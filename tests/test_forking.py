"""forking.forked and its share with toy work at 0-3 helpers: order, errors,
dead helpers, joins and pipe-sized messages."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import advalstm
from advalstm import forking
from advalstm.forking import forked

HELPERS = [0, 1, 2, 3]


def double(x):
    return 2 * x


def fail(x):
    raise ValueError(f"no good: {x}")


def fail_at_5(x):
    if x == 5:
        raise ValueError(f"no good: {x}")
    return x


def logged(log: Path, fail_at: int | None = None, sleep_s: float = 0.05):
    """Work that appends "k start" to ``log``, sleeps, appends "k end" and
    returns k; request ``fail_at`` appends "k fail" and raises at once."""

    def work(k):
        with open(log, "a") as fh:
            fh.write(f"{k} {'fail' if k == fail_at else 'start'}\n")
        if k == fail_at:
            raise ValueError(f"no good: {k}")
        time.sleep(sleep_s)
        with open(log, "a") as fh:
            fh.write(f"{k} end\n")
        return k

    return work


def read_log(log: Path) -> list[tuple[int, str]]:
    return [(int(k), what) for k, what in map(str.split, log.read_text().splitlines())]


class TestReplies:
    def test_each_helper_answers_in_turn(self):
        # One fork serves every share of the block.
        with forked(double, 2) as share:
            for x in range(3):
                assert list(share([(x + k,) for k in range(5)])) == [2 * (x + k) for k in range(5)]

    def test_no_helpers_no_pipes(self):
        with forked(double, 0) as share:
            assert multiprocessing.active_children() == []
            assert list(share([(1,), (2,)])) == [2, 4]
            assert list(share([])) == []

    @pytest.mark.parametrize("helper_count", HELPERS)
    def test_each_runs_here_on_every_result(self, helper_count):
        caller, seen = os.getpid(), []

        def work(x):
            time.sleep(0.01)
            return x, os.getpid()

        with forked(work, helper_count) as share:
            results = list(share([(x,) for x in range(12)],
                                 each=lambda r: seen.append((r, os.getpid()))))
        assert sorted(r for r, _ in seen) == results
        assert {pid for _, pid in seen} == {caller}

    @pytest.mark.parametrize("helper_count", HELPERS)
    def test_requests_and_replies_larger_than_a_pipe_buffer(self, helper_count):
        # Each message holds 256 KB, four times what a Linux pipe buffers, so
        # a helper blocks in send until this process reads its reply.
        def work(k, blob):
            return bytes([k]) * len(blob)

        requests = [(k, bytes([k]) * (256 << 10)) for k in range(10)]
        with forked(work, helper_count) as share:
            assert list(share(requests)) == [blob for _, blob in requests]


class TestInRounds:
    """Requests as ``share`` takes them from both ends of its queue (the
    class keeps its earlier name)."""

    @pytest.mark.parametrize("count", [2, 9], ids=["fewer-requests", "more-requests"])
    @pytest.mark.parametrize("helper_count", HELPERS)
    def test_results_come_in_request_order(self, helper_count, count):
        def work(x):
            time.sleep(0.003 * ((7 * x) % 5))  # so requests finish out of order
            return x

        with forked(work, helper_count) as share:
            assert list(share([(x,) for x in range(count)])) == list(range(count))

    @pytest.mark.parametrize("helper_count", HELPERS)
    def test_an_exception_is_raised_at_its_turn(self, helper_count):
        seen = []
        with forked(fail_at_5, helper_count) as share:
            with pytest.raises(ValueError, match="^no good: 5$"):
                for x in share([(x,) for x in range(9)]):
                    seen.append(x)
        assert seen == [0, 1, 2, 3, 4]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("helper_count", HELPERS)
    def test_the_first_failing_request_wins(self, helper_count):
        # A helper takes request 9 first and fails at once; request 2 fails
        # 200 ms later, and a serial run would raise its error.
        def work(x):
            if x == 2:
                time.sleep(0.2)
            if x in (2, 9):
                raise ValueError(f"no good: {x}")
            return x

        seen = []
        with forked(work, helper_count) as share:
            with pytest.raises(ValueError, match="^no good: 2$"):
                for x in share([(x,) for x in range(10)]):
                    seen.append(x)
        assert seen == [0, 1]

    @pytest.mark.parametrize("fail_at", [0, 3, 8])
    @pytest.mark.parametrize("helper_count", HELPERS)
    def test_no_request_after_a_failure_starts_once_it_is_known(self, tmp_path, helper_count,
                                                                 fail_at):
        log = tmp_path / "log.txt"
        with forked(logged(log, fail_at), helper_count) as share:
            with pytest.raises(ValueError, match=f"^no good: {fail_at}$"):
                list(share([(k,) for k in range(12)]))
        entries = read_log(log)
        known = entries.index((fail_at, "fail"))
        assert [k for k, what in entries[known:] if what == "start" and k > fail_at] == []
        started = [k for k, what in entries if what == "start"]
        assert sorted(started) == sorted(set(started))  # no request twice
        assert set(range(fail_at)) <= set(started)

    @pytest.mark.parametrize("helper_count", HELPERS)
    def test_every_request_before_a_helpers_failure_still_runs(self, tmp_path, helper_count):
        # A helper's first request is the last one, which fails at once.
        log = tmp_path / "log.txt"
        seen = []
        with forked(logged(log, fail_at=11, sleep_s=0.02), helper_count) as share:
            with pytest.raises(ValueError, match="^no good: 11$"):
                for k in share([(k,) for k in range(12)]):
                    seen.append(k)
        assert seen == list(range(11))
        assert sorted(k for k, what in read_log(log) if what == "end") == list(range(11))

    def test_a_helper_slow_to_start_still_takes_a_request(self, monkeypatch):
        # The helper starts only once this process has run requests 0-2.
        real_run = forking._run
        started = multiprocessing.get_context("fork").Event()

        def slow_run(*args):
            started.wait(10)
            real_run(*args)

        def work(x):
            if x == 2:
                started.set()
            return os.getpid()

        monkeypatch.setattr(forking, "_run", slow_run)
        with forked(work, 1) as share:
            pids = list(share([(x,) for x in range(4)]))
        assert pids[:3] == [os.getpid()] * 3 and pids[3] != os.getpid()

    def test_helpers_are_joined_when_the_consumer_stops_early(self):
        with forked(time.sleep, 3) as share:
            for _ in share([(0.1,)] * 8):
                break
        assert multiprocessing.active_children() == []


class TestErrors:
    def test_a_helpers_exception_carries_its_traceback(self):
        caller = os.getpid()

        def work(x):
            if os.getpid() != caller:
                fail(x)
            return x

        with forked(work, 1) as share:  # the helper takes request 1
            with pytest.raises(ValueError, match="^no good: 1$") as caught:
                list(share([(0,), (1,)]))
        cause = str(caught.value.__cause__)
        # the helper's own frames, down to the line that raised
        assert "in fail" in cause and 'raise ValueError(f"no good: {x}")' in cause
        assert "ValueError: no good: 1" in cause

    def test_reply_returns_after_sending_an_exception(self):
        # A helper whose request raised serves the block's next share.
        caller = os.getpid()

        def work(x):
            if x < 0:
                fail(x)
            return os.getpid()

        with forked(work, 1) as share:
            with pytest.raises(ValueError, match="^no good: -1$"):
                list(share([(0,), (-1,)]))
            pids = list(share([(x,) for x in range(6)]))
        assert pids[0] == caller and pids[-1] != caller

    @pytest.mark.parametrize("how", ["exit-0", "exit-1", "sigkill"])
    def test_a_helper_that_ends_without_replying(self, how):
        caller = os.getpid()

        def work(x):
            if os.getpid() != caller:
                if how == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer does
                os._exit(int(how[-1]))
            return x

        with forked(work, 1) as share:
            with pytest.raises(ChildProcessError, match="^a helper process ended without"):
                list(share([(x,) for x in range(4)]))
        assert multiprocessing.active_children() == []

    def test_sending_to_a_dead_helper_raises_at_receive(self):
        with forked(double, 1) as share:
            [helper] = multiprocessing.active_children()
            os.kill(helper.pid, signal.SIGKILL)
            helper.join()
            with pytest.raises(ChildProcessError) as caught:
                list(share([(b"work" * (64 << 10),)] * 3))  # more than the pipe holds
        assert isinstance(caught.value, OSError)  # so the CLI exits 2 with one line


class TestJoin:
    def test_helpers_are_joined_when_the_block_raises(self):
        with pytest.raises(RuntimeError, match="in the block"):
            with forked(double, 3) as share:
                assert list(share([(x,) for x in range(4)])) == [0, 2, 4, 6]
                assert len(multiprocessing.active_children()) == 3
                raise RuntimeError("in the block")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where, error", [
        ("each", RuntimeError), ("each", KeyboardInterrupt), ("block", KeyboardInterrupt),
    ])
    def test_helpers_are_joined_when_each_or_the_block_raises(self, where, error):
        def each(result):
            if where == "each":
                raise error("here")

        with pytest.raises(error, match="here"):
            with forked(time.sleep, 2) as share:
                for _ in share([(0.05,)] * 8, each):
                    pass
                raise error("here")
        assert multiprocessing.active_children() == []

    def test_helpers_busy_in_their_work_are_joined(self, tmp_path):
        # ``each`` raises on the first result, while the helpers are still
        # in their first requests; none is cut short.
        log = tmp_path / "log.txt"

        def each(result):
            raise RuntimeError("in each")

        with pytest.raises(RuntimeError, match="in each"):
            with forked(logged(log, sleep_s=0.2), 2) as share:
                list(share([(k,) for k in range(8)], each))
        entries = read_log(log)
        assert multiprocessing.active_children() == []
        assert sorted(k for k, what in entries if what == "start") == \
            sorted(k for k, what in entries if what == "end")


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
