"""Helper processes forked for one call, which share its requests with it.

``with forked(work, helpers) as share:`` forks ``helpers`` processes, and
``share(requests, each)`` yields ``work(*request)`` for each request, in
request order.  The requests queue up between two ends: this process runs
request 0 and then takes requests from the front, and each helper takes
them from the back, each process as soon as it is free.  A request that
raises unqueues every later request, and ``share`` raises the error of
the first request that failed, after yielding every earlier result.  So
the results and the error are those of a serial run, whichever process
ran what.  ``each``, if given, runs here on each result as it arrives.

``training.train`` shares each minibatch's chunks this way,
``market_data.ingest_eod`` a market's files and ``gridsearch.grid_search``
each stage's cells.  Fork, whatever the platform default: a helper
inherits ``work``, its inputs, the one-thread BLAS pin and any wrapper
installed on a module's functions without pickling anything.  Only the
pipes' messages are pickled: each ``share`` call's requests, once for
every helper (``train``'s chunk row indices, parameter vector, scale and
random-mode noise rows; ``ingest_eod``'s file paths; ``grid_search``'s
config and cells), and the replies.
"""

from __future__ import annotations

import pickle
import signal
import traceback
from contextlib import contextmanager, nullcontext, suppress
from typing import Callable, Iterator


class _Raised(Exception):
    """A helper's exception and its formatted traceback, which ``share``
    makes the exception's ``__cause__``: pickling the exception drops it."""

    def __str__(self):
        return self.args[1]


def _receive(conn):
    """A helper's next message; ChildProcessError if it ended without one."""
    try:
        return conn.recv()
    except (EOFError, ConnectionError):
        raise ChildProcessError("a helper process ended without replying; it may have been "
                                "killed, for example for lack of memory") from None


def _run(serve: Callable, conn, callers_ends: list) -> None:
    # The fork copied the caller's ends of every pipe made so far; while a
    # copy is open here, the caller closing its own would not end ``serve``.
    for end in callers_ends:
        end.close()
    # Ctrl-C reaches the whole process group; the caller handles it and
    # closes the pipe, which ends ``serve``.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # EOFError or OSError: the caller has closed its end.
    with conn, suppress(EOFError, OSError):
        serve(conn)


@contextmanager
def forked(work: Callable, helpers: int) -> Iterator[Callable]:
    """Fork ``helpers`` processes and yield ``share`` (see the module
    docstring); every helper is joined on exit, however the block ends.
    After an exception other than a failed request's leaves ``share``,
    its helpers are released, and the block should end."""
    conns, procs = [], []
    if helpers > 0:
        # Imported here, so that a serial run holds no multiprocessing modules.
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        # [front, back): the positions no process has taken, and the helpers
        # that have yet to take one in the current share
        ends = fork.Array("q", 3)
        lock = ends.get_lock()
    else:
        ends, lock = [0, 0, 0], nullcontext()

    def take(front: bool, first: bool = False) -> int | None:
        """The untaken position at one end, or None.  This process leaves
        one position for each helper yet to take one (``first`` marks a
        helper's first take), so a helper slow to start still gets work."""
        with lock:
            lo, hi, waiting = ends
            if first:
                ends[2] = waiting - 1
            if lo >= hi - (waiting if front else 0):
                return None
            if front:
                ends[0] = lo + 1
                return lo
            ends[1] = hi - 1
            return hi - 1

    def unqueue(after: int) -> None:
        """Drop every untaken position after ``after``, which is taken."""
        with lock:
            ends[1] = max(ends[0], min(ends[1], after))

    def serve(conn) -> None:  # a helper's loop
        while True:
            requests = conn.recv()
            k = take(front=False, first=True)
            while k is not None:
                try:
                    reply = work(*requests[k])
                except Exception as exc:
                    unqueue(k)
                    reply = _Raised(exc, f'\n"""\n{traceback.format_exc()}"""')
                conn.send((k, reply))
                k = take(front=False)
            conn.send(None)

    def share(requests: list[tuple], each: Callable | None = None) -> Iterator:
        results = [None] * len(requests)
        failed = [len(requests), None]  # the first failing position known, and its error
        busy = list(conns)  # the helpers that may still take requests

        def done(k: int, result) -> None:
            if isinstance(result, _Raised):
                result.args[0].__cause__ = result
                fail(k, result.args[0])
            elif k < failed[0]:
                results[k] = result
                if each is not None:
                    each(result)

        def fail(k: int, error: Exception) -> None:
            unqueue(k)
            if k < failed[0]:
                failed[:] = [k, error]

        def collect(wait: bool) -> None:
            for conn in conns:
                while conn in busy and (wait or conn.poll()):
                    if (message := _receive(conn)) is None:
                        busy.remove(conn)
                    else:
                        done(*message)

        ends[:] = [1, len(requests), len(busy)]  # this process holds request 0
        try:
            if busy:
                message = pickle.dumps(requests)
                for conn in busy:
                    with suppress(ConnectionError):  # a dead helper's ``_receive`` raises
                        conn.send_bytes(message)
            k = 0 if requests else None
            while k is not None:
                try:
                    result = work(*requests[k])
                except Exception as exc:
                    fail(k, exc)
                else:
                    done(k, result)
                collect(wait=False)
                k = take(front=True)
            collect(wait=True)
        except BaseException:
            unqueue(-1)
            for conn in conns:  # each helper ends after its current request
                conn.close()
            raise
        yield from results[: failed[0]]
        if failed[1] is not None:
            raise failed[1]

    try:
        for _ in range(helpers):
            here, there = fork.Pipe()
            proc = fork.Process(target=_run, args=(serve, there, [*conns, here]))
            conns.append(here)
            procs.append(proc)
            proc.start()
            there.close()
        yield share
    finally:
        unqueue(-1)
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.pid is not None:
                proc.join()
