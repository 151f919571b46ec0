"""Helper processes forked for one call and joined before it returns.

``training.train`` computes a minibatch's chunks in them and
``market_data.ingest_eod`` parses a market's files, both through
``serve`` and ``in_rounds``; ``gridsearch.grid_search`` scores each
stage's cells.  Fork, whatever the platform default: a helper inherits
its inputs, its work function, the one-thread BLAS pin and any wrapper
installed on a module's functions without pickling anything.  Only the
pipes' messages are pickled: the requests (``train``'s chunk row
indices, parameter vector, scale and random-mode noise rows;
``ingest_eod``'s file paths; ``grid_search``'s ``(base, queue)`` per
stage) and the replies.
"""

from __future__ import annotations

import signal
import traceback
from contextlib import contextmanager, suppress
from typing import Callable, Iterator


class _Raised(Exception):
    """A helper's exception and its formatted traceback, which ``receive``
    makes the exception's ``__cause__``: pickling the exception drops it."""

    def __str__(self):
        return self.args[1]


def reply(conn, work: Callable, *args):
    """In a helper: send back ``work(*args)`` and return it, or send the
    exception it raised and return None."""
    try:
        result = work(*args)
    except Exception as exc:
        conn.send(_Raised(exc, f'\n"""\n{traceback.format_exc()}"""'))
        return None
    conn.send(result)
    return result


def serve(conn, work: Callable) -> None:
    """A helper's loop: reply to each request received with
    ``work(*request)``, or the exception it raised, until the caller
    closes its end."""
    while True:
        reply(conn, work, *conn.recv())


def in_rounds(work: Callable, requests: list[tuple], helpers: list) -> Iterator:
    """Yield ``work(*request)`` for each of ``requests``, in their order.

    Request k runs in process k mod P, where process 0 is this one and
    the others are ``helpers``, each running ``serve`` on the same work.
    Requests go out a round of P at a time, so a helper has at most one
    in flight: it never blocks sending a reply while this process blocks
    sending it a request.  An exception, this process's or a helper's,
    is raised at its request's turn.
    """
    procs = len(helpers) + 1
    for first in range(0, len(requests), procs):
        rest = requests[first + 1 : first + procs]
        for conn, request in zip(helpers, rest):
            send(conn, request)
        yield work(*requests[first])
        for conn in helpers[: len(rest)]:
            yield receive(conn)


def send(conn, message) -> None:
    """Send a helper work; if it has ended, its ``receive`` raises."""
    with suppress(ConnectionError):
        conn.send(message)


def receive(conn):
    """A helper's next reply; raises the exception that it sent back, or
    ChildProcessError if it ended without replying."""
    try:
        result = conn.recv()
    except (EOFError, ConnectionError):
        raise ChildProcessError("a helper process ended without replying; it may have been "
                                "killed, for example for lack of memory") from None
    if isinstance(result, _Raised):
        raise result.args[0] from result
    return result


def _run(serve: Callable, conn, callers_ends: list, *args) -> None:
    # The fork copied the caller's ends of every pipe made so far; while a
    # copy is open here, the caller closing its own would not end ``serve``.
    for end in callers_ends:
        end.close()
    # Ctrl-C reaches the whole process group; the caller handles it and
    # closes the pipe, which ends ``serve``.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # EOFError or OSError: the caller has closed its end.
    with conn, suppress(EOFError, OSError):
        serve(conn, *args)


@contextmanager
def forked(serve: Callable, helper_args: list[tuple]) -> Iterator[list]:
    """Pipes to one forked process per entry of ``helper_args``, running
    ``serve(conn, *entry)``; each is closed and joined on exit, however
    the block ends."""
    helpers = []
    try:
        if helper_args:
            # Imported here, so that a serial run holds no multiprocessing modules.
            import multiprocessing

            fork = multiprocessing.get_context("fork")
            for args in helper_args:
                here, there = fork.Pipe()
                callers_ends = [conn for conn, _ in helpers] + [here]
                proc = fork.Process(target=_run, args=(serve, there, callers_ends, *args))
                helpers.append((here, proc))
                proc.start()
                there.close()
        yield [conn for conn, _ in helpers]
    finally:
        for conn, _ in helpers:
            conn.close()
        for _, proc in helpers:
            if proc.pid is not None:
                proc.join()
