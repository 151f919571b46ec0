"""Helper processes forked for one call and joined before it returns.

``training.train`` computes a minibatch's chunks in them and
``market_data.ingest_eod`` parses a market's files in them.  Fork,
whatever the platform default: a helper inherits its inputs, the
one-thread BLAS pin and any wrapper installed on a module's functions
without pickling anything.  Only the replies sent back are pickled.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Callable, Iterator


def _run(serve: Callable, conn, callers_ends: list, *args) -> None:
    # The fork copied the caller's ends of every pipe made so far; while a
    # copy is open here, the caller closing its own would not end ``serve``.
    for end in callers_ends:
        end.close()
    # Ctrl-C reaches the whole process group; the caller handles it and
    # closes the pipe, which ends ``serve``.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with conn:
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
