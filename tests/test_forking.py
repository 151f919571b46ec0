"""forking.forked, serve and in_rounds with toy helpers: replies, order, errors,
dead helpers and joins."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import advalstm
from advalstm.forking import forked, in_rounds, receive, send, serve


def double(x):
    return 2 * x


def fail(x):
    raise ValueError(f"no good: {x}")


def with_pid(x):
    return x, os.getpid()


def fail_at_5(x):
    if x == 5:
        raise ValueError(f"no good: {x}")
    return x


def exit_at_once(conn, code):
    os._exit(code)


def killed_on_request(conn):
    conn.recv()
    os.kill(os.getpid(), signal.SIGKILL)  # as the kernel's out-of-memory killer does


def report_pid_then_wait(conn):
    conn.send(os.getpid())
    conn.recv()


class TestReplies:
    def test_each_helper_answers_in_turn(self):
        with forked(serve, [(double,)] * 2) as helpers:
            for x in range(3):
                for conn in helpers:
                    send(conn, (x,))
                assert [receive(conn) for conn in helpers] == [2 * x, 2 * x]

    def test_no_helpers_no_pipes(self):
        with forked(serve, []) as helpers:
            assert helpers == []


class TestInRounds:
    @pytest.mark.parametrize("count", [2, 9], ids=["fewer-requests", "more-requests"])
    @pytest.mark.parametrize("helper_count", [0, 1, 2, 3])
    def test_request_k_runs_in_process_k_mod_p(self, helper_count, count):
        procs = helper_count + 1
        with forked(serve, [(with_pid,)] * helper_count) as helpers:
            results = list(in_rounds(with_pid, [(x,) for x in range(count)], helpers))
        assert [x for x, _ in results] == list(range(count))
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == min(procs, count)
        assert pids == [pids[k % procs] for k in range(count)]

    @pytest.mark.parametrize("helper_count", [0, 1, 2, 3])
    def test_an_exception_is_raised_at_its_turn(self, helper_count):
        # 5 runs in process 5 mod P: the caller at P = 1, a helper otherwise.
        seen = []
        with forked(serve, [(fail_at_5,)] * helper_count) as helpers:
            with pytest.raises(ValueError, match="^no good: 5$"):
                for x in in_rounds(fail_at_5, [(x,) for x in range(9)], helpers):
                    seen.append(x)
        assert seen == [0, 1, 2, 3, 4]
        assert multiprocessing.active_children() == []

    def test_helpers_are_joined_when_the_consumer_stops_early(self):
        with forked(serve, [(time.sleep,)] * 3) as helpers:
            for _ in in_rounds(time.sleep, [(0.1,)] * 8, helpers):
                break  # the other three requests of the round are still running
        assert multiprocessing.active_children() == []


class TestErrors:
    def test_a_helpers_exception_carries_its_traceback(self):
        with forked(serve, [(fail,)]) as [conn]:
            send(conn, (7,))
            with pytest.raises(ValueError, match="^no good: 7$") as caught:
                receive(conn)
        cause = str(caught.value.__cause__)
        # the helper's own frames, down to the line that raised
        assert "in fail" in cause and 'raise ValueError(f"no good: {x}")' in cause
        assert "ValueError: no good: 7" in cause

    def test_reply_returns_after_sending_an_exception(self):
        with forked(serve, [(fail,)]) as [conn]:
            send(conn, (1,))
            with pytest.raises(ValueError, match="no good: 1"):
                receive(conn)
            send(conn, (2,))
            with pytest.raises(ValueError, match="no good: 2"):
                receive(conn)

    @pytest.mark.parametrize("helper, args", [(exit_at_once, (0,)), (exit_at_once, (1,)),
                                              (killed_on_request, ())],
                             ids=["exit-0", "exit-1", "sigkill"])
    def test_a_helper_that_ends_without_replying(self, helper, args):
        with forked(helper, [args]) as [conn]:
            send(conn, ())
            with pytest.raises(ChildProcessError, match="^a helper process ended without"):
                receive(conn)

    def test_sending_to_a_dead_helper_raises_at_receive(self):
        with forked(exit_at_once, [(3,)]) as [conn]:
            assert conn.poll(10)  # its end closed
            for _ in range(3):
                send(conn, ("work",) * 1000)
            with pytest.raises(ChildProcessError) as caught:
                receive(conn)
        assert isinstance(caught.value, OSError)  # so the CLI exits 2 with one line


class TestJoin:
    def test_helpers_are_joined_when_the_block_raises(self):
        with pytest.raises(RuntimeError, match="in the block"):
            with forked(report_pid_then_wait, [()] * 3) as helpers:
                pids = [receive(conn) for conn in helpers]
                assert {p.pid for p in multiprocessing.active_children()} == set(pids)
                raise RuntimeError("in the block")
        assert multiprocessing.active_children() == []

    def test_helpers_busy_in_their_work_are_joined(self):
        start = time.monotonic()
        with forked(serve, [(time.sleep,)] * 2) as helpers:
            for conn in helpers:
                send(conn, (0.2,))
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start >= 0.2


def test_a_serial_grid_imports_no_multiprocessing():
    # Where Python has no fork (Windows), a serial run must not need it.
    script = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from advalstm import gridsearch\n"
        "from advalstm.training import TrainConfig\n"
        "gridsearch._evaluate_cell = lambda data, base, cell: replace(cell, val_acc=50.0)\n"
        "grid = gridsearch.GridSpec(hidden_sizes=(4, 8), lags=(2,), l2_coefs=(0.1,),\n"
        "                           adv_weights=(0.1,), adv_scales=(0.1, 0.5))\n"
        "result = gridsearch.grid_search(grid, None, TrainConfig(), workers=1)\n"
        "assert len(result.cells) == 4\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "             ('multiprocessing', 'concurrent')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(advalstm.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
