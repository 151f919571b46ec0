import ctypes
import dataclasses
import datetime as dt
import json
import multiprocessing
import os
import platform
import struct
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import advalstm
from advalstm import cli, gridsearch, market_data, training
from advalstm.artifacts import (
    MAGIC,
    load_checkpoint,
    load_dataset,
    read_container,
    save_checkpoint,
    save_dataset,
    write_container,
)
from advalstm.cli import main
from advalstm.config import dump_config, load_config
from advalstm.errors import DivergenceError, NumericError
from advalstm.market_data import SplitArrays
from advalstm.model import init_params
from advalstm.synthetic import write_regime_price_csv

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def price_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("prices")
    write_regime_price_csv(d, n_stocks=4, n_days=120, seed=11)
    return d


BASE_KEYS = dict(
    [
        ("data.lag", "5"),
        ("split.train_end", "2020-03-01"),
        ("split.val_end", "2020-04-01"),
        ("split.test_end", "2020-05-01"),
        ("model.map_size", "8"),
        ("model.hidden_size", "8"),
        ("train.l2", "0.001"),
        ("train.learning_rate", "0.01"),
        ("train.batch_size", "64"),
        ("train.epochs", "5"),
        ("train.seed", "3"),
    ]
)


# What a command prints when a forked helper ends without replying.
HELPER_DIED = ("error: a helper process ended without replying; it may have been killed, "
               "for example for lack of memory")


def write_config(path: Path, price_dir, out_dir, **overrides) -> Path:
    keys = dict(BASE_KEYS)
    keys["data.path"] = str(price_dir)
    keys["out.dir"] = str(out_dir)
    keys.update({k: str(v) for k, v in overrides.items()})
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


HEADER = b"stock,date,open,high,low,close,adj_close,volume\n"


def run(*argv) -> int:
    return main(list(argv))


class TestBuild:
    def test_build_writes_dataset_and_manifest(self, price_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", price_dir, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "train:" in out and "positive fraction" in out
        assert (tmp_path / "out" / "dataset.bin").is_file()
        manifest = json.loads((tmp_path / "out" / "build_manifest.json").read_text())
        assert manifest["split_sizes"]["train"] > 0
        assert len(manifest["dataset_sha256"]) == 64

    def test_missing_input_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", tmp_path / "nonexistent", tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert run("build", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_unknown_key_exits_2(self, price_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.paths = oops\n")
        assert run("build", "--config", str(cfg)) == 2

    def test_repeated_key_exits_2(self, price_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", price_dir, tmp_path / "out")
        cfg.write_text(cfg.read_text() + "train.epochs = 7\n")
        assert run("build", "--config", str(cfg)) == 2
        assert f"{cfg}:14: key 'train.epochs' already set on line 10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_feature_after_the_last_test_anchor_is_stored(self, price_dir, tmp_path):
        # 120 days from 2020-01-01; days from 2020-04-15 on lie past the test end.
        cfg = write_config(tmp_path / "run.cfg", price_dir, tmp_path / "out",
                           **{"split.test_end": "2020-04-15"})
        assert run("build", "--config", str(cfg)) == 0
        meta, tensors = read_container(tmp_path / "out" / "dataset.bin")
        days = tensors["features"].shape[1]
        assert days == tensors["test_anchor_idx"].max() + 1
        assert meta["calendar"][days - 1] < "2020-04-15" < meta["calendar"][-1]

    def test_rerun_is_byte_identical(self, price_dir, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        c1 = write_config(tmp_path / "c1.cfg", price_dir, out1)
        c2 = write_config(tmp_path / "c2.cfg", price_dir, out2)
        assert run("build", "--config", str(c1)) == 0
        assert run("build", "--config", str(c2)) == 0
        assert (out1 / "dataset.bin").read_bytes() == (out2 / "dataset.bin").read_bytes()

    @pytest.mark.parametrize("day, code", [(50, 2), (79, 0)])
    def test_feature_overflow_is_an_input_error(self, tmp_path, capsys, day, code):
        # open / close overflows c_open to inf.  Day 50 lies in a window;
        # day 79 is the last day, which no window reads.
        prices = tmp_path / "prices"
        (symbol,) = write_regime_price_csv(prices, n_stocks=1, n_days=80, seed=11)
        path = prices / f"{symbol}.csv"
        lines = path.read_text().splitlines()
        cells = lines[1 + day].split(",")
        cells[2], cells[5] = "1e300", "1e-10"  # open, close
        lines[1 + day] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == code
        if code:
            err = capsys.readouterr().err
            assert symbol in err and cells[1] in err

    def test_infinite_movement_is_an_input_error(self, tmp_path, capsys):
        # adj_close 1e-10 then 1e300 gives anchor day 78 an infinite
        # next-day movement (label +1) while its window stays finite.
        prices = tmp_path / "prices"
        (symbol,) = write_regime_price_csv(prices, n_stocks=1, n_days=80, seed=11)
        path = prices / f"{symbol}.csv"
        lines = path.read_text().splitlines()
        for day, adj_close in ((78, "1e-10"), (79, "1e300")):
            cells = lines[1 + day].split(",")
            cells[6] = adj_close
            lines[1 + day] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "movement" in err and symbol in err and lines[1 + 78].split(",")[1] in err
        assert not (tmp_path / "out" / "dataset.bin").exists()


    def test_non_utf8_csv_exits_2_naming_the_file(self, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        (prices / "latin1.csv").write_bytes(HEADER + "\xc4,2020-01-02,1,1,1,1,1,1\n".encode("latin-1"))
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        assert "latin1.csv" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# caf\xe9\ndata.lag = 5\n")
        assert run("build", "--config", str(cfg)) == 2
        assert f"error: {cfg}: not UTF-8 text" in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, price_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", price_dir, tmp_path / "out")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("build", "--config", str(cfg), "--out", str(taken)) == 2
        assert str(taken) in capsys.readouterr().err

    def test_directory_named_like_a_csv_exits_2(self, price_dir, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        for f in price_dir.glob("*.csv"):
            (prices / f.name).write_bytes(f.read_bytes())
        (prices / "x.csv").mkdir()
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        assert "x.csv" in capsys.readouterr().err

    def test_bom_header_builds_the_same_dataset(self, price_dir, tmp_path):
        prices = tmp_path / "prices"
        prices.mkdir()
        for f in price_dir.glob("*.csv"):
            (prices / f.name).write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        digests = []
        for name, data in (("plain", price_dir), ("bom", prices)):
            cfg = write_config(tmp_path / f"{name}.cfg", data, tmp_path / name)
            assert run("build", "--config", str(cfg)) == 0
            digests.append((tmp_path / name / "dataset.bin").read_bytes())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("form", ["basic", "week"])
    def test_date_other_than_yyyy_mm_dd_exits_2(self, tmp_path, capsys, form):
        prices = tmp_path / "prices"
        (symbol,) = write_regime_price_csv(prices, n_stocks=1, n_days=80, seed=11)
        path = prices / f"{symbol}.csv"
        lines = path.read_text().splitlines()
        cells = lines[10].split(",")
        day = dt.date.fromisoformat(cells[1])
        year, week, weekday = day.isocalendar()
        cells[1] = day.strftime("%Y%m%d") if form == "basic" else f"{year}-W{week:02d}-{weekday}"
        lines[10] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        assert f"{symbol}.csv:11: bad date {cells[1]!r}" in capsys.readouterr().err

    def test_cell_over_csv_field_limit_exits_2_naming_file_and_line(self, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        row = f'A,2020-01-02,1,1,1,1,1,1\nA,2020-01-03,"{"1" * 200_000}",1,1,1,1,1\n'
        (prices / "big.csv").write_bytes(HEADER + row.encode())
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        assert f"{prices / 'big.csv'}:3: malformed CSV" in capsys.readouterr().err

    def test_header_only_csvs_exit_2_saying_no_rows(self, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        for name in ("a.csv", "b.csv"):
            (prices / name).write_bytes(HEADER)
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        assert f"no data rows found under {prices}" in capsys.readouterr().err


@pytest.fixture()
def built(price_dir, tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", price_dir, out)
    assert run("build", "--config", str(cfg)) == 0
    return cfg, out, tmp_path


class TestTrain:
    def test_artifacts_written(self, built):
        cfg, out, _ = built
        assert run("train", "--config", str(cfg)) == 0
        assert (out / "model.ckpt").is_file()
        curves = (out / "loss_curves.csv").read_text().splitlines()
        assert curves[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(curves) >= 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["dataset_sha256"]

    def test_missing_dataset_exits_2(self, price_dir, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", price_dir, tmp_path / "fresh")
        assert run("train", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("key, value", [("train.learning_rate", "nan"), ("train.l2", "inf")])
    def test_non_finite_config_value_exits_2(self, price_dir, built, capsys, key, value):
        cfg, out, base = built
        bad = write_config(base / "bad.cfg", price_dir, out, **{key: value})
        assert run("train", "--config", str(bad)) == 2
        assert key in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("where", ["flag", "key"])
    def test_negative_seed_exits_2(self, price_dir, built, capsys, where):
        cfg, out, base = built
        if where == "flag":
            argv = ("--config", str(cfg), "--seed", "-1")
        else:
            argv = ("--config", str(write_config(base / "s.cfg", price_dir, out,
                                                 **{"train.seed": "-5"})))
        assert run("train", *argv) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_non_finite_train_window_exits_4(self, built, capsys):
        cfg, out, _ = built
        meta, tensors = read_container(out / "dataset.bin")
        # day 1 of train window 3
        stock, anchor = tensors["train_stock_idx"][3], tensors["train_anchor_idx"][3]
        tensors["features"][stock, anchor - meta["lag"] + 2, 2] = np.nan
        write_container(out / "dataset.bin", meta, tensors)
        assert run("train", "--config", str(cfg)) == 4
        assert "train windows must be finite" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_dataset_of_stored_windows_exits_4_asking_for_a_rebuild(self, built, capsys):
        # The layout before the feature panel: each split's windows in full.
        cfg, out, _ = built
        meta, tensors = read_container(out / "dataset.bin")
        features = tensors.pop("features")
        for split in ("train", "val", "test"):
            stock, anchor = tensors[f"{split}_stock_idx"], tensors[f"{split}_anchor_idx"]
            tensors[f"{split}_windows"] = features[
                stock[:, None], anchor[:, None] + np.arange(1 - meta["lag"], 1)]
            tensors[f"{split}_movement"] = np.zeros(len(stock))
        write_container(out / "dataset.bin", meta, tensors)
        assert run("train", "--config", str(cfg)) == 4
        assert "rerun `advalstm build`" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["tensors"][0].update(dtype="|V0"), "which no container holds"),
        (lambda h: h["tensors"][0].update(dtype=">f8"), "which no container holds"),
        (lambda h: h["tensors"][0].update(shape=[2**62, 4]), "truncated tensor 'adj_close'"),
        (lambda h: h["meta"].update(lag=5.9), "dataset lag must be an integer >= 1"),
        (lambda h: h["meta"].update(lag="5"), "dataset lag must be an integer >= 1"),
        (lambda h: h["meta"]["stocks"].__setitem__(1, h["meta"]["stocks"][0]),
         "dataset stocks must be distinct strings"),
        (lambda h: h["meta"].update(stocks=list(range(len(h["meta"]["stocks"])))),
         "dataset stocks must be distinct strings"),
        (lambda h: h["meta"].update(stocks="ABCD"), "dataset stocks must be distinct strings"),
        (lambda h: h["meta"]["calendar"].reverse(), "calendar must be strictly increasing"),
        (lambda h: h["meta"]["calendar"].__setitem__(1, h["meta"]["calendar"][0]),
         "calendar must be strictly increasing"),
        (lambda h: h["meta"]["calendar"].__setitem__(0, h["meta"]["calendar"][0].replace("-", "")),
         "Invalid isoformat string"),
    ], ids=["dtype_V0", "dtype_big_endian", "shape_overflow", "lag_float", "lag_string",
            "stocks_repeated", "stocks_ints", "stocks_one_string", "calendar_reversed",
            "calendar_repeated", "calendar_not_iso"])
    def test_bad_dataset_header_exits_4(self, built, capsys, edit, message):
        cfg, out, _ = built
        rewrite_header(out / "dataset.bin", edit)
        assert run("train", "--config", str(cfg)) == 4
        assert message in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_minibatches_are_gathered_one_at_a_time(self, price_dir, tmp_path, monkeypatch):
        # No process holds the whole train split: each gather is one
        # minibatch, or the validation split that every epoch scores.
        out, batch = tmp_path / "out", 16
        cfg = write_config(tmp_path / "run.cfg", price_dir, out, **{
            "split.train_end": "2020-04-01", "split.val_end": "2020-04-15",
            "train.batch_size": batch})
        assert run("build", "--config", str(cfg)) == 0
        dataset = load_dataset(out / "dataset.bin")
        bound = max(batch, len(dataset.val))
        assert len(dataset.train) > bound
        sizes = []
        real_gather = market_data.gather_windows

        def recording_gather(features, stock_idx, anchor_idx, lag):
            sizes.append(len(stock_idx))
            return real_gather(features, stock_idx, anchor_idx, lag)

        monkeypatch.setattr(market_data, "gather_windows", recording_gather)
        assert run("train", "--config", str(cfg)) == 0
        assert sizes and max(sizes) <= bound

    def test_seed_flag_overrides(self, built):
        cfg, out, _ = built
        assert run("train", "--config", str(cfg), "--seed", "99") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_rerun_is_byte_identical(self, built):
        cfg, out, _ = built
        assert run("train", "--config", str(cfg)) == 0
        first = (out / "model.ckpt").read_bytes()
        curves1 = (out / "loss_curves.csv").read_bytes()
        assert run("train", "--config", str(cfg)) == 0
        assert (out / "model.ckpt").read_bytes() == first
        assert (out / "loss_curves.csv").read_bytes() == curves1

    def test_beta_zero_adversarial_equals_normal(self, price_dir, built):
        cfg, out, base = built
        normal_cfg = write_config(base / "n.cfg", price_dir, out, **{"train.mode": "normal"})
        assert run("train", "--config", str(normal_cfg)) == 0
        normal_curves = (out / "loss_curves.csv").read_bytes()
        adv_cfg = write_config(
            base / "a.cfg", price_dir, out,
            **{"train.mode": "adversarial", "train.adv_weight": "0.0"},
        )
        assert run("train", "--config", str(adv_cfg)) == 0
        assert (out / "loss_curves.csv").read_bytes() == normal_curves

    def test_divergence_exits_3(self, price_dir, built):
        cfg, out, base = built
        bad = write_config(
            base / "d.cfg", price_dir, out,
            **{"train.learning_rate": "1e160", "train.l2": "1.0"},
        )
        assert run("train", "--config", str(bad)) == 3



class TestTrainWorkers:
    """``train`` computes the chunks of a batch over 512 rows in one
    process per usable CPU."""

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("train-workers")
        write_regime_price_csv(base / "prices", n_stocks=12, n_days=200, seed=11)
        out = base / "out"
        cfg = write_config(base / "run.cfg", base / "prices", out, **{
            "split.train_end": "2020-07-01", "split.val_end": "2020-08-01",
            "split.test_end": "2020-10-01", "train.mode": "adversarial",
            "train.batch_size": "1024", "train.epochs": "2"})
        assert run("build", "--config", str(cfg)) == 0
        # a two-chunk batch and a tail
        assert 1024 < len(load_dataset(out / "dataset.bin").train) < 2048
        return cfg, out

    def test_bytes_do_not_depend_on_the_cpu_count(self, big):
        cfg, out = big
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(advalstm.__file__).resolve().parents[1])
        outputs = []
        for cpus in (1, 2):
            script = (f"import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus})); "
                      f"from advalstm.cli import main; sys.exit(main(['train', '--config', "
                      f"{str(cfg)!r}]))")
            subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True)
            outputs.append([(out / name).read_bytes()
                            for name in ("model.ckpt", "loss_curves.csv", "run_manifest.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("affinity", [None, {0}, {0, 1}], ids=["real", "one", "two"])
    def test_one_worker_per_usable_cpu(self, big, monkeypatch, affinity):
        cfg, _ = big
        if affinity is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        workers = []
        real_train = cli.train

        def recording_train(*args, **kwargs):
            workers.append(kwargs["workers"])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", recording_train)
        assert run("train", "--config", str(cfg)) == 0
        assert workers == [len(os.sched_getaffinity(0))]
        assert multiprocessing.active_children() == []

    def test_one_worker_where_python_cannot_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert cli._usable_cpus() == 1

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_divergence_in_a_chunk_exits_3(self, big, monkeypatch, capsys, where):
        cfg, _ = big
        caller = os.getpid()
        real_objective = training.objective_adversarial

        def failing(*args, **kwargs):
            if (os.getpid() == caller) == (where == "caller"):
                raise NumericError(f"non-finite chunk in the {where}")
            return real_objective(*args, **kwargs)

        monkeypatch.setattr(training, "objective_adversarial", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run("train", "--config", str(cfg)) == 3
        assert f"non-finite chunk in the {where}" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


    def test_a_helper_that_dies_exits_2(self, big, monkeypatch, capsys):
        cfg, _ = big
        caller = os.getpid()
        real_objective = training.objective_adversarial

        def dying(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(1)  # as a helper killed for lack of memory ends
            return real_objective(*args, **kwargs)

        monkeypatch.setattr(training, "objective_adversarial", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run("train", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.splitlines() == [HELPER_DIED]
        assert multiprocessing.active_children() == []


class TestBuildWorkers:
    """``build`` parses a directory's files in one process per usable CPU."""

    @pytest.fixture(scope="class")
    def market(self, tmp_path_factory):
        """Four one-stock files; the second and fourth each hold a row
        whose high is below its open."""
        base = tmp_path_factory.mktemp("build-workers")
        prices = base / "prices"
        symbols = write_regime_price_csv(prices, n_stocks=4, n_days=120, seed=11)
        for symbol in symbols[1::2]:
            path = prices / f"{symbol}.csv"
            lines = path.read_text().splitlines()
            cells = lines[7].split(",")
            cells[3] = repr(float(cells[2]) / 2)  # high = open / 2
            lines[7] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        return base, prices

    def test_bytes_do_not_depend_on_the_cpu_count(self, market):
        base, prices = market
        out = base / "out"
        cfg = write_config(base / "run.cfg", prices, out)
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(advalstm.__file__).resolve().parents[1])
        outputs = []
        for cpus in (1, 2):
            script = (f"import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus})); "
                      f"from advalstm.cli import main; sys.exit(main(['build', '--config', "
                      f"{str(cfg)!r}]))")
            proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True)
            outputs.append([proc.stdout, proc.stderr]
                           + [(out / name).read_bytes()
                              for name in ("dataset.bin", "build_manifest.json")])
        assert outputs[0][1].count(b"MarketSemanticsWarning") == 2
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("affinity", [None, {0}, {0, 1}], ids=["real", "one", "two"])
    def test_one_worker_per_usable_cpu(self, market, tmp_path, monkeypatch, affinity):
        _, prices = market
        if affinity is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        workers = []
        real_ingest = cli.ingest_eod

        def recording_ingest(*args, **kwargs):
            workers.append(kwargs["workers"])
            return real_ingest(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest_eod", recording_ingest)
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 0
        assert workers == [len(os.sched_getaffinity(0))]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [(0,), (1,), (3,), (1, 2), (2, 3)],
                             ids=["file-0", "file-1", "file-3", "files-1-2", "files-2-3"])
    def test_the_first_bad_file_exits_2_with_no_process_left(self, market, tmp_path, monkeypatch,
                                                             capsys, bad):
        _, prices = market
        files = sorted(prices.glob("*.csv"))
        copy = tmp_path / "prices"
        copy.mkdir()
        for i, f in enumerate(files):  # files[bad[0]] is the first bad one in file order
            text = f.read_text() + ("SYN,2020-05-01,x,1,1,1,1,1\n" if i in bad else "")
            (copy / f.name).write_text(text)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = write_config(tmp_path / "run.cfg", copy, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        first = copy / files[bad[0]].name
        assert f"error: {first}:122: column 'open' is not a number" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


    def test_a_helper_that_dies_exits_2(self, market, tmp_path, monkeypatch, capsys):
        _, prices = market
        caller = os.getpid()
        real_read_csv = market_data._read_csv

        def dying(*args):
            if os.getpid() != caller:
                os._exit(1)
            return real_read_csv(*args)

        monkeypatch.setattr(market_data, "_read_csv", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.splitlines() == [HELPER_DIED]
        assert multiprocessing.active_children() == []


class TestGrid:
    def test_grid_and_best_config(self, price_dir, built, capsys):
        cfg, out, base = built
        grid_cfg = write_config(
            base / "g.cfg", price_dir, out,
            **{
                "grid.hidden_sizes": "4,8",
                "grid.lags": "2,5",
                "grid.l2_coefs": "0.01",
                "grid.adv_weights": "0.01,0.1",
                "grid.adv_scales": "0.05",
                "grid.epochs": "2",
            },
        )
        assert run("grid", "--config", str(grid_cfg)) == 0
        lines = (out / "grid_results.csv").read_text().splitlines()
        assert lines[0] == "U,T,lambda,beta,epsilon,val_acc,val_mcc"
        assert len(lines) == 1 + 4 + 2
        stage2 = [row.split(",") for row in lines[-2:]]
        u, t, lam, beta, eps, acc, _ = max(
            stage2, key=lambda r: (float(r[5]), -float(r[3]), -float(r[4]))
        )
        expected = dataclasses.replace(
            load_config(grid_cfg), mode="adversarial",
            map_size=int(u), hidden_size=int(u), att_size=int(u), lag=int(t),
            l2_coef=float(lam), adv_weight=float(beta), adv_scale=float(eps),
        )
        assert (out / "best_config.cfg").read_text() == dump_config(expected)
        assert capsys.readouterr().out == (
            f"grid: 6 cells; best hidden={u} lag={t} l2={lam} adv_weight={beta} "
            f"adv_scale={eps} val_acc={float(acc):.2f}\n"
        )

    @pytest.mark.parametrize("key, value", [
        ("grid.hidden_sizes", "4,0"),
        ("grid.lags", "2,0"),
        ("grid.l2_coefs", "0.01,-1"),
        ("grid.adv_weights", "-0.1"),
        ("grid.adv_scales", "-0.01"),
    ])
    def test_bad_axis_exits_2_before_training(self, price_dir, built, monkeypatch, capsys,
                                              key, value):
        cfg, out, base = built
        trained = []
        real_train = gridsearch.train

        def counting_train(*args, **kwargs):
            trained.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(gridsearch, "train", counting_train)
        grid_cfg = write_config(
            base / "bad.cfg", price_dir, out,
            **{"grid.hidden_sizes": "4", "grid.lags": "2,3", "grid.l2_coefs": "0.01",
               "grid.adv_weights": "0.01", "grid.adv_scales": "0.05", "grid.epochs": "1",
               key: value},
        )
        assert run("grid", "--config", str(grid_cfg)) == 2
        assert key.split(".")[1] in capsys.readouterr().err
        assert trained == []
        assert not (out / "grid_results.csv").exists()

    @pytest.mark.parametrize("key, value, repeated", [
        ("grid.lags", "2,2", "2"), ("grid.hidden_sizes", "4,8,4", "4"),
        ("grid.l2_coefs", "0.1,0.10", "0.1"),
    ])
    def test_repeated_axis_value_exits_2(self, price_dir, built, monkeypatch, capsys,
                                         key, value, repeated):
        cfg, out, base = built
        trained = []
        monkeypatch.setattr(gridsearch, "train", lambda *args, **kwargs: trained.append(args))
        grid_cfg = write_config(
            base / "repeat.cfg", price_dir, out,
            **{"grid.hidden_sizes": "4", "grid.lags": "2,3", "grid.l2_coefs": "0.01",
               "grid.adv_weights": "0.01", "grid.adv_scales": "0.05", "grid.epochs": "1",
               key: value},
        )
        assert run("grid", "--config", str(grid_cfg)) == 2
        assert f"{key.split('.')[1]} repeats the value {repeated}" in capsys.readouterr().err
        assert trained == []
        assert not (out / "grid_results.csv").exists()

    def test_divergence_exits_3(self, price_dir, built, capsys):
        cfg, out, base = built
        grid_cfg = write_config(
            base / "div.cfg", price_dir, out,
            **{"train.learning_rate": "1e300", "grid.hidden_sizes": "4",
               "grid.lags": "2", "grid.l2_coefs": "0.01", "grid.adv_weights": "0.01",
               "grid.adv_scales": "0.05", "grid.epochs": "2"},
        )
        assert run("grid", "--config", str(grid_cfg)) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "grid_results.csv").exists()

    def test_divergence_in_a_worker_exits_3(self, price_dir, built, monkeypatch, capsys):
        cfg, out, base = built
        parent = os.getpid()
        real_evaluate_cell = gridsearch._evaluate_cell

        def diverging_in_workers(data_for_lag, base_train, cell):
            if os.getpid() != parent:
                raise DivergenceError("non-finite loss in a worker")
            return real_evaluate_cell(data_for_lag, base_train, cell)

        monkeypatch.setattr(gridsearch, "_evaluate_cell", diverging_in_workers)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid_cfg = write_config(
            base / "div.cfg", price_dir, out,
            **{"grid.hidden_sizes": "4,8", "grid.lags": "2,5", "grid.l2_coefs": "0.01",
               "grid.adv_weights": "0.01", "grid.adv_scales": "0.05", "grid.epochs": "2"},
        )
        assert run("grid", "--config", str(grid_cfg)) == 3
        assert "non-finite loss in a worker" in capsys.readouterr().err
        assert not (out / "grid_results.csv").exists()

    def test_a_helper_that_dies_exits_2(self, price_dir, built, monkeypatch, capsys):
        cfg, out, base = built
        parent = os.getpid()
        real_evaluate_cell = gridsearch._evaluate_cell

        def dying(data_for_lag, base_train, cell):
            if os.getpid() != parent:
                os._exit(1)
            return real_evaluate_cell(data_for_lag, base_train, cell)

        monkeypatch.setattr(gridsearch, "_evaluate_cell", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid_cfg = write_config(
            base / "dies.cfg", price_dir, out,
            **{"grid.hidden_sizes": "4,8", "grid.lags": "2,5", "grid.l2_coefs": "0.01",
               "grid.adv_weights": "0.01", "grid.adv_scales": "0.05", "grid.epochs": "2"},
        )
        assert run("grid", "--config", str(grid_cfg)) == 2
        assert capsys.readouterr().err.splitlines() == [HELPER_DIED]
        assert not (out / "grid_results.csv").exists()
        assert multiprocessing.active_children() == []

    def test_bytes_do_not_depend_on_the_cpu_count(self, price_dir, built):
        cfg, out, base = built
        grid_cfg = write_config(
            base / "g.cfg", price_dir, out,
            **{"grid.hidden_sizes": "4,8", "grid.lags": "2,5", "grid.l2_coefs": "0.01",
               "grid.adv_weights": "0.01,0.1", "grid.adv_scales": "0.05", "grid.epochs": "2"},
        )
        # numpy starts its BLAS with as many threads as it likes; the
        # forked workers must inherit the CLI's one-thread pin.
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(advalstm.__file__).resolve().parents[1])
        outputs = []
        for cpus in (1, 2):
            script = (f"import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus})); "
                      f"from advalstm.cli import main; sys.exit(main(['grid', '--config', "
                      f"{str(grid_cfg)!r}]))")
            subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True)
            outputs.append([(out / name).read_bytes()
                            for name in ("grid_results.csv", "best_config.cfg")])
        assert outputs[0] == outputs[1]

    def test_lag_deeper_than_dataset_exits_4(self, price_dir, built, monkeypatch, capsys):
        cfg, out, base = built
        trained = []
        real_train = gridsearch.train

        def counting_train(*args, **kwargs):
            trained.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(gridsearch, "train", counting_train)
        grid_cfg = write_config(
            base / "g2.cfg", price_dir, out,
            **{"grid.lags": "2,10", "grid.hidden_sizes": "4",
               "grid.l2_coefs": "0.01", "grid.adv_weights": "0.01",
               "grid.adv_scales": "0.05", "grid.epochs": "1"},
        )
        assert run("grid", "--config", str(grid_cfg)) == 4
        assert "lag 10 is deeper than the dataset's lag" in capsys.readouterr().err
        assert trained == []
        assert not (out / "grid_results.csv").exists()

    def test_empty_validation_split_exits_2_before_training(self, price_dir, built, monkeypatch,
                                                            capsys):
        cfg, out, base = built
        dataset = load_dataset(out / "dataset.bin")
        empty = SplitArrays(*(getattr(dataset.val, f.name)[:0]
                              for f in dataclasses.fields(SplitArrays)))
        save_dataset(out / "dataset.bin", dataclasses.replace(dataset, val=empty),
                     load_config(cfg).split_spec())
        trained = []
        real_train = gridsearch.train

        def counting_train(*args, **kwargs):
            trained.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(gridsearch, "train", counting_train)
        grid_cfg = write_config(
            base / "g2.cfg", price_dir, out,
            **{"grid.lags": "2", "grid.hidden_sizes": "4",
               "grid.l2_coefs": "0.01", "grid.adv_weights": "0.01",
               "grid.adv_scales": "0.05", "grid.epochs": "1"},
        )
        assert run("grid", "--config", str(grid_cfg)) == 2
        assert "validation split is empty" in capsys.readouterr().err
        assert trained == []
        assert not (out / "grid_results.csv").exists()


class TestLag:
    def test_grid_winner_lag_reaches_train_and_eval(self, price_dir, built):
        cfg, out, base = built
        grid_cfg = write_config(
            base / "g.cfg", price_dir, out,
            **{
                "grid.hidden_sizes": "4",
                "grid.lags": "2,3",
                "grid.l2_coefs": "0.01",
                "grid.adv_weights": "0.1",
                "grid.adv_scales": "0.05",
                "grid.epochs": "2",
            },
        )
        assert run("grid", "--config", str(grid_cfg)) == 0
        best_cfg = out / "best_config.cfg"
        best = load_config(best_cfg)
        assert best.lag in (2, 3)  # shorter than the dataset's lag 5
        assert run("train", "--config", str(best_cfg)) == 0
        _, _, meta = load_checkpoint(out / "model.ckpt")
        assert meta["lag"] == best.lag
        assert run("eval", "--config", str(best_cfg)) == 0
        assert run("attack", "--config", str(best_cfg)) == 0

    def test_train_lag_deeper_than_dataset_exits_4(self, price_dir, built):
        cfg, out, base = built
        deep = write_config(base / "deep.cfg", price_dir, out, **{"data.lag": "6"})
        assert run("train", "--config", str(deep)) == 4

    def test_checkpoint_lag_deeper_than_dataset_exits_4(self, built, small_dims):
        cfg, out, base = built
        params = init_params(small_dims, np.random.default_rng(0))
        ckpt = base / "deep.ckpt"
        save_checkpoint(ckpt, params, lag=6, seed=0, mode="normal", best_epoch=0)
        assert run("eval", "--config", str(cfg), str(ckpt)) == 4
        assert run("attack", "--config", str(cfg), str(ckpt)) == 4


def rewrite_header(path: Path, edit) -> None:
    """Apply ``edit`` to a container's parsed JSON header, in place."""
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (size,) = struct.unpack_from("<I", raw, len(MAGIC))
    header = json.loads(raw[start : start + size])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[: len(MAGIC)] + struct.pack("<I", len(new)) + new + raw[start + size :])


MALFORMED_HEADERS = {
    "no_feat_dim": lambda h: h["meta"].pop("feat_dim"),
    "hidden_size_not_int": lambda h: h["meta"].update(hidden_size="x"),
    "tensor_without_name": lambda h: h["tensors"][0].pop("name"),
    "tensor_without_dtype": lambda h: h["tensors"][0].pop("dtype"),
    "tensor_without_shape": lambda h: h["tensors"][0].pop("shape"),
}


@pytest.fixture()
def trained(built):
    cfg, out, base = built
    assert run("train", "--config", str(cfg)) == 0
    return cfg, out, base


class TestEval:
    def test_reports_written(self, trained, capsys):
        cfg, out, _ = trained
        assert run("eval", "--config", str(cfg)) == 0
        stdout = capsys.readouterr().out
        assert "mom" in stdout and "model" in stdout
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "name,acc,mcc"
        names = [line.split(",")[0] for line in metrics[1:]]
        assert names == ["mom", "mr", "model", "ri_pct"]
        preds = (out / "predictions.csv").read_text().splitlines()
        assert preds[0] == "stock,date,label,confidence,predicted"
        hist = (out / "confidence_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_low,bin_high,count"

    def test_rerun_identical(self, trained):
        cfg, out, _ = trained
        assert run("eval", "--config", str(cfg)) == 0
        first = (out / "metrics.csv").read_bytes()
        assert run("eval", "--config", str(cfg)) == 0
        assert (out / "metrics.csv").read_bytes() == first

    def test_missing_checkpoint_exits_2(self, built):
        cfg, out, _ = built
        assert run("eval", "--config", str(cfg)) == 2

    def test_checkpoint_from_other_dataset_exits_4(self, price_dir, trained, tmp_path_factory):
        cfg, out, base = trained
        other = tmp_path_factory.mktemp("other")
        other_prices = other / "prices"
        write_regime_price_csv(other_prices, n_stocks=4, n_days=120, seed=77)
        other_cfg = write_config(other / "c.cfg", other_prices, other / "out")
        assert run("build", "--config", str(other_cfg)) == 0
        assert (
            run("eval", "--config", str(other_cfg), str(out / "model.ckpt")) == 4
        )

    def test_corrupt_dataset_index_exits_4(self, trained):
        cfg, out, base = trained
        # A checkpoint without a dataset hash, so only the index check can fail.
        params, _, _ = load_checkpoint(out / "model.ckpt")
        ckpt = base / "nohash.ckpt"
        save_checkpoint(ckpt, params, lag=5, seed=0, mode="normal", best_epoch=0)
        assert run("eval", "--config", str(cfg), str(ckpt)) == 0
        meta, tensors = read_container(out / "dataset.bin")
        tensors["test_stock_idx"][0] = -1
        write_container(out / "dataset.bin", meta, tensors)
        assert run("eval", "--config", str(cfg), str(ckpt)) == 4

    def test_non_finite_adj_close_exits_4(self, trained, capsys):
        cfg, out, base = trained
        # A checkpoint without a dataset hash, so only the price check can fail.
        params, _, _ = load_checkpoint(out / "model.ckpt")
        ckpt = base / "nohash.ckpt"
        save_checkpoint(ckpt, params, lag=5, seed=0, mode="normal", best_epoch=0)
        meta, tensors = read_container(out / "dataset.bin")
        tensors["adj_close"][0, -1] = np.nan
        write_container(out / "dataset.bin", meta, tensors)
        for command in ("eval", "attack"):
            assert run(command, "--config", str(cfg), str(ckpt)) == 4
            assert "adj_close must be finite and > 0" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_checkpoint_header_exits_4(self, built, small_dims, case):
        cfg, out, base = built
        ckpt = base / "bad.ckpt"
        params = init_params(small_dims, np.random.default_rng(0))
        save_checkpoint(ckpt, params, lag=5, seed=0, mode="normal", best_epoch=0)
        assert run("eval", "--config", str(cfg), str(ckpt)) == 0
        rewrite_header(ckpt, MALFORMED_HEADERS[case])
        assert run("eval", "--config", str(cfg), str(ckpt)) == 4
        assert run("attack", "--config", str(cfg), str(ckpt)) == 4

    @pytest.mark.parametrize("key, value", [
        ("lag", True), ("lag", 0), ("lag", 2.0),
        ("adv_scale", None), ("adv_scale", "x"), ("adv_scale", [1]), ("adv_scale", -0.5),
        ("adv_scale", float("nan")), ("adv_scale", float("inf")),
        pytest.param("adv_scale", 10**400, id="adv_scale-10**400"),
        ("dataset_sha256", 5), ("dataset_sha256", ["a"]),
    ])
    def test_bad_checkpoint_header_value_exits_4(self, built, small_dims, capsys, key, value):
        cfg, out, base = built
        ckpt = base / "bad.ckpt"
        params = init_params(small_dims, np.random.default_rng(0))
        save_checkpoint(ckpt, params, lag=5, seed=0, mode="normal", best_epoch=0)
        rewrite_header(ckpt, lambda h: h["meta"].update({key: value}))
        for command in ("eval", "attack"):
            assert run(command, "--config", str(cfg), str(ckpt)) == 4
            assert f"checkpoint {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("name, shape", [("b_att", (3,)), ("b_i", (2,)), ("u_att", (4, 1))])
    def test_wrong_tensor_shape_exits_4(self, built, small_dims, capsys, name, shape):
        cfg, out, base = built
        ckpt = base / "bad.ckpt"
        params = init_params(small_dims, np.random.default_rng(0))
        save_checkpoint(ckpt, params, lag=5, seed=0, mode="normal", best_epoch=0)
        meta, tensors = read_container(ckpt)
        tensors[name] = np.zeros(shape)
        write_container(ckpt, meta, tensors)
        for command in ("eval", "attack"):
            assert run(command, "--config", str(cfg), str(ckpt)) == 4
            assert name in capsys.readouterr().err


    def test_non_finite_checkpoint_exits_4(self, trained, capsys):
        cfg, out, _ = trained
        ckpt = out / "model.ckpt"
        meta, tensors = read_container(ckpt)
        tensors["w_map"][0, 0] = np.nan
        write_container(ckpt, meta, tensors)
        for command in ("eval", "attack"):
            assert run(command, "--config", str(cfg)) == 4
            assert "w_map" in capsys.readouterr().err


class TestAttack:
    def test_report_written(self, trained):
        cfg, out, _ = trained
        assert run("attack", "--config", str(cfg), "--scale", "0.05") == 0
        lines = (out / "attack_report.csv").read_text().splitlines()
        assert lines[0] == "metric,clean,attacked,rpd"
        assert lines[1].startswith("acc,")
        assert lines[2].startswith("mcc,")

    def test_zero_scale_keeps_metrics_bit_identical(self, trained):
        cfg, out, _ = trained
        assert run("attack", "--config", str(cfg), "--scale", "0.0") == 0
        for line in (out / "attack_report.csv").read_text().splitlines()[1:]:
            _, clean, attacked, drop = line.split(",")
            assert clean == attacked
            assert drop in ("0.0", "")

    def test_negative_scale_exits_2(self, trained):
        cfg, out, _ = trained
        assert run("attack", "--config", str(cfg), "--scale", "-1") == 2

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_exits_2(self, trained, scale):
        cfg, out, _ = trained
        assert run("attack", "--config", str(cfg), "--scale", scale) == 2
        assert not (out / "attack_report.csv").exists()


class TestReport:
    def test_aggregates_metrics(self, trained, capsys):
        cfg, out, base = trained
        assert run("eval", "--config", str(cfg)) == 0
        m1 = out / "metrics.csv"
        m2 = out / "metrics2.csv"
        m2.write_bytes(m1.read_bytes())
        assert run("report", "--config", str(cfg), str(m1), str(m2)) == 0
        stdout = capsys.readouterr().out
        assert "±" in stdout
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "name,metric,mean,std,runs"
        model_acc = next(l for l in lines[1:] if l.startswith("model,acc"))
        assert model_acc.endswith(",2")  # two runs
        assert ",0.0," in model_acc  # identical runs have zero std

    @pytest.mark.parametrize("row, where", [
        ("model,abc,0.1", ":3: acc"), ("model,57.2", ":3: mcc"),
        ("model,nan,0.1", ":3: acc"), ("model,57.2,-inf", ":3: mcc"),
    ], ids=["not-a-number", "short-row", "nan", "inf"])
    def test_bad_metrics_cell_exits_4(self, price_dir, tmp_path, capsys, row, where):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", price_dir, out)
        bad = tmp_path / "metrics.csv"
        bad.write_text(f"name,acc,mcc\nmom,50.0,0.0\n{row}\nri_pct,1.5,\n")
        assert run("report", "--config", str(cfg), str(bad)) == 4
        assert f"error: {bad}{where} must be a finite number" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_no_inputs_exits_2(self, trained):
        cfg, out, _ = trained
        assert run("report", "--config", str(cfg)) == 2


class TestBlasThreads:
    def test_outputs_do_not_depend_on_thread_count(self, tmp_path):
        # 4,472 train windows at batch 1024 end each epoch on a 376-row
        # batch, where a two-thread BLAS splits the gradient sums differently.
        prices = tmp_path / "prices"
        write_regime_price_csv(prices, n_stocks=30, n_days=300, seed=4)
        src = str(Path(advalstm.__file__).resolve().parents[1])
        names = ("model.ckpt", "loss_curves.csv", "predictions.csv")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            cfg = write_config(
                tmp_path / f"threads{threads}.cfg", prices, out,
                **{"data.lag": "15", "split.train_end": "2020-08-01",
                   "split.val_end": "2020-09-30", "split.test_end": "2020-10-26",
                   "model.map_size": "32", "model.hidden_size": "32",
                   "train.batch_size": "1024", "train.mode": "adversarial",
                   "train.epochs": "1", "train.patience": "0"},
            )
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            for command in ("build", "train", "eval"):
                argv = [sys.executable, "-m", "advalstm.cli", command, "--config", str(cfg)]
                subprocess.run(argv, env=env, check=True, capture_output=True)
            outputs.append({name: (out / name).read_bytes() for name in names})
        for name in names:
            assert outputs[0][name] == outputs[1][name], name


class TestRetainFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt settings are glibc's")
    def test_hidden_32_steps_stop_page_faulting(self):
        # Each step at this shape frees about 64 MB; without the setting,
        # the five steps take about 80k minor faults.
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from advalstm import cli
            from advalstm.model import ModelDims, init_params
            from advalstm.training import objective_adversarial
            cli._retain_freed_memory()
            rng = np.random.default_rng(0)
            params = init_params(ModelDims(feat_dim=11, map_size=32, hidden_size=32), rng)
            x = rng.normal(size=(1024, 15, 11))
            y = np.where(rng.random(1024) < 0.5, -1.0, 1.0)
            objective_adversarial(x, y, params, 1e-3, 0.5, 0.01)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                objective_adversarial(x, y, params, 1e-3, 0.5, 0.01)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(advalstm.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              check=True, capture_output=True, text=True)
        assert int(done.stdout) < 1000

    def test_outputs_do_not_depend_on_it(self, price_dir, tmp_path):
        code = textwrap.dedent("""
            import sys
            from advalstm import cli
            if sys.argv[1] == "off":
                cli._retain_freed_memory = lambda: None
            for command in ("build", "train", "eval", "attack"):
                assert cli.main([command, "--config", "run.cfg"]) == 0
            assert cli.main(["grid", "--config", "grid.cfg"]) == 0
        """)
        grid = {"grid.hidden_sizes": "4,8", "grid.lags": "2,5", "grid.l2_coefs": "0.01",
                "grid.adv_weights": "0.01,0.1", "grid.adv_scales": "0.05", "grid.epochs": "2"}
        src = str(Path(advalstm.__file__).resolve().parents[1])
        outputs = []
        for variant in ("off", "on"):
            cwd = tmp_path / variant  # the same relative out.dir, so manifests compare too
            cwd.mkdir()
            write_config(cwd / "run.cfg", price_dir, "out", **{"train.mode": "adversarial"})
            write_config(cwd / "grid.cfg", price_dir, "out", **grid)
            done = subprocess.run([sys.executable, "-c", code, variant], cwd=cwd,
                                  env=dict(os.environ, PYTHONPATH=src), check=True,
                                  capture_output=True)
            files = {f.name: f.read_bytes() for f in (cwd / "out").iterdir()}
            outputs.append((done.stdout, files))
        assert sorted(outputs[0][1]) == [
            "attack_report.csv", "best_config.cfg", "build_manifest.json",
            "confidence_histogram.csv", "dataset.bin", "grid_results.csv", "loss_curves.csv",
            "metrics.csv", "model.ckpt", "predictions.csv", "run_manifest.json",
        ]
        assert outputs[0] == outputs[1]

    def test_libc_without_mallopt_exits_0(self, price_dir, tmp_path, monkeypatch):
        real, asked = ctypes.CDLL, []

        def cdll(name, *args, **kwargs):
            if name is None:  # the process's own libc
                asked.append(name)
                return types.SimpleNamespace()
            return real(name, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cfg = write_config(tmp_path / "run.cfg", price_dir, tmp_path / "out")
        assert run("build", "--config", str(cfg)) == 0
        assert asked == [None]


def test_cli_import_loads_no_scipy():
    src = str(Path(advalstm.__file__).resolve().parents[1])
    code = "import sys, advalstm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True)
    assert done.stdout == "[]\n"
