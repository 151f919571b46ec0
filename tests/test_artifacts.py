import dataclasses
import datetime as dt
import json
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from advalstm.artifacts import (
    MAGIC,
    METRICS_COLUMNS,
    file_sha256,
    load_checkpoint,
    load_dataset,
    read_container,
    read_metrics_csv,
    save_checkpoint,
    save_dataset,
    write_container,
    write_csv,
)
from advalstm.errors import ArtifactMismatchError, EmptySplitWarning
from advalstm.gridsearch import GridCell
from advalstm.market_data import (CSV_COLUMNS, SPLIT_NAMES, DatasetArtifact, SplitArrays, SplitSpec,
                                  align_trading_days, ingest_eod, label_and_window)
from advalstm.model import ModelDims, ParamSet, init_params, param_shapes
from advalstm.synthetic import write_regime_price_csv
from advalstm.training import EpochRecord

from conftest import series_from_closes
from helpers import feature_oracle


class TestContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.bin"
        meta = {"alpha": 1, "nested": {"b": [1, 2, 3]}, "text": "hi"}
        rng = np.random.default_rng(0)
        tensors = {
            "floats": rng.standard_normal((3, 4)),
            "bytes": np.array([1, -2, 3], dtype=np.int8),
            "ints": np.array([[5, 6]], dtype=np.int32),
            "empty": np.zeros((0, 7)),
        }
        write_container(path, meta, tensors)
        meta2, tensors2 = read_container(path)
        assert meta2 == meta
        assert set(tensors2) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(tensors2[name], tensors[name])
            assert tensors2[name].dtype == tensors[name].dtype

    def test_zero_dim_shape_kept(self, tmp_path):
        path = tmp_path / "x.bin"
        write_container(path, {}, {"s": np.array(2.5)})
        _, tensors = read_container(path)
        assert tensors["s"].shape == ()
        assert tensors["s"] == 2.5

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        tensors = {"t": np.arange(12.0).reshape(3, 4)}
        write_container(a, {"k": 1}, tensors)
        write_container(b, {"k": 1}, tensors)
        assert a.read_bytes() == b.read_bytes()
        assert file_sha256(a) == file_sha256(b)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ArtifactMismatchError, match="not a recognized"):
            read_container(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "x.bin"
        write_container(p, {}, {"t": np.ones(10)})
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ArtifactMismatchError, match="truncated"):
            read_container(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "x.bin"
        write_container(p, {}, {"t": np.ones(3)})
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(ArtifactMismatchError, match="trailing"):
            read_container(p)

    @pytest.mark.parametrize(
        "header",
        [
            [1],
            {"format_version": 1, "tensors": []},
            {"format_version": 1, "meta": {}, "tensors": 5},
            {"format_version": 1, "meta": {}, "tensors": [1]},
            *(
                {"format_version": 1, "meta": {}, "tensors": [{"name": "t", **entry}]}
                for entry in (
                    {"dtype": "|O", "shape": []},
                    {"dtype": "<f8", "shape": [-1, 0]},
                    {"dtype": "<f8", "shape": [1.0]},
                )
            ),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        p = tmp_path / "x.bin"
        raw = json.dumps(header).encode()
        # Payload for one float64 where the header lists a tensor.
        payload = b"\x00" * 8 if isinstance(header, dict) and header["tensors"] else b""
        p.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + payload)
        with pytest.raises(ArtifactMismatchError):
            read_container(p)

    @pytest.mark.parametrize("entry, message", [
        ({"dtype": "|V0", "shape": [3]}, "dtype '|V0', which no container holds"),
        ({"dtype": [], "shape": [3]}, "dtype [], which no container holds"),
        ({"dtype": ">f8", "shape": [1]}, "dtype '>f8', which no container holds"),
        ({"dtype": "<f8", "shape": [2**62, 4]}, "truncated tensor 't'"),
    ], ids=["zero_itemsize", "empty_struct", "big_endian", "int64_overflow"])
    def test_bad_tensor_entry_rejected(self, tmp_path, entry, message):
        p = tmp_path / "x.bin"
        raw = json.dumps({"format_version": 1, "meta": {},
                          "tensors": [{"name": "t", **entry}]}).encode()
        p.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + b"\x00" * 8)
        with pytest.raises(ArtifactMismatchError, match=re.escape(message)):
            read_container(p)

    def test_any_layout_writes_the_same_bytes(self, tmp_path):
        t = np.arange(24.0).reshape(4, 6)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(a, {}, {"t": t, "s": np.array(2.5), "i": np.arange(5, dtype=np.int16)})
        # big-endian, Fortran-ordered and strided inputs of the same values
        write_container(b, {}, {"t": np.asfortranarray(t.astype(">f8")),
                                "s": np.array(2.5, dtype=">f8"),
                                "i": np.repeat(np.arange(5, dtype=np.int16), 2)[::2]})
        assert a.read_bytes() == b.read_bytes()

    def test_load_and_save_hold_one_copy_of_the_payload(self, tmp_path):
        # The payload is large next to the header and the interpreter's own
        # allocations, so each ratio is close to the number of copies held.
        rng = np.random.default_rng(0)
        tensors = {"a": rng.standard_normal((512, 1024)), "b": rng.standard_normal((256, 2048)),
                   "c": np.arange(10, dtype=np.int32)}
        payload = sum(t.nbytes for t in tensors.values())
        path = tmp_path / "x.bin"
        tracemalloc.start()
        try:
            write_container(path, {"k": 1}, tensors)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, loaded = read_container(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert write_peak <= 0.25 * payload, write_peak / payload
        assert read_peak <= 1.25 * payload, read_peak / payload
        for name, t in tensors.items():
            assert_same_array(loaded[name], t)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, small_dims):
        params = init_params(small_dims, np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, lag=4, seed=5, mode="adversarial",
                        best_epoch=7, adv_scale=0.05, dataset_sha256="abc")
        loaded, dims, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.to_vector(), params.to_vector())
        assert dims == small_dims
        assert meta["lag"] == 4
        assert meta["seed"] == 5
        assert meta["mode"] == "adversarial"
        assert meta["best_epoch"] == 7
        assert meta["adv_scale"] == 0.05
        assert meta["dataset_sha256"] == "abc"

    def test_round_trip_keeps_shapes(self, tmp_path, small_dims):
        params = init_params(small_dims, np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, lag=4, seed=5, mode="normal", best_epoch=1)
        loaded, _, _ = load_checkpoint(path)
        assert params.b_head.shape == ()
        for name, a in params.items():
            assert getattr(loaded, name).shape == a.shape, name

    @pytest.mark.parametrize("name, shape", [("b_att", (3,)), ("b_i", (2,)), ("u_att", (4, 1)),
                                             ("b_head", (1,))])
    def test_tensor_shape_checked_against_recorded_sizes(self, tmp_path, small_dims, name, shape):
        params = init_params(small_dims, np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, lag=4, seed=5, mode="normal", best_epoch=1)
        meta, tensors = read_container(path)
        tensors[name] = np.zeros(shape)
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match=name):
            load_checkpoint(path)

    def test_header_sizes_checked_before_any_allocation(self, tmp_path, small_dims):
        # These sizes would need about 2.6 TiB of parameters: the stored
        # tensors' shapes are compared with them before anything that
        # size is allocated.
        params = init_params(small_dims, np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, lag=4, seed=5, mode="normal", best_epoch=1)
        meta, tensors = read_container(path)
        meta.update(hidden_size=200_000, map_size=200_000, att_size=200_000)
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match="tensor w_map has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("w_map", np.nan), ("b_head", np.inf),
                                             ("u_att", -np.inf), ("b_i", "x")])
    def test_non_finite_tensor_rejected(self, tmp_path, small_dims, name, value):
        params = init_params(small_dims, np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, lag=4, seed=5, mode="normal", best_epoch=1)
        meta, tensors = read_container(path)
        a = tensors[name]
        tensors[name] = np.where(np.arange(a.size).reshape(a.shape) == 0, value, a)
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match=f"{name} must hold finite real"):
            load_checkpoint(path)

    def test_kind_checked(self, tmp_path):
        p = tmp_path / "x.bin"
        write_container(p, {"kind": "dataset"}, {})
        with pytest.raises(ArtifactMismatchError, match="not a checkpoint"):
            load_checkpoint(p)

    def test_rewrite_is_byte_identical(self, tmp_path, small_dims):
        params = init_params(small_dims, np.random.default_rng(5))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for p in (a, b):
            save_checkpoint(p, params, lag=3, seed=0, mode="normal", best_epoch=1)
        assert a.read_bytes() == b.read_bytes()


def small_dataset():
    closes = list(10.0 * 1.02 ** np.arange(60))
    aligned = align_trading_days({"A": series_from_closes(closes),
                                  "B": series_from_closes([c * 2 for c in closes])})
    spec = SplitSpec(
        train_end=dt.date(2020, 2, 10),
        val_end=dt.date(2020, 2, 20),
        test_end=dt.date(2020, 3, 10),
        lag=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySplitWarning)
        dataset = label_and_window(aligned, spec)
    return dataset, spec


def assert_same_array(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


class TestDataset:
    def test_round_trip(self, tmp_path):
        built, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, built, spec, dropped=["Z"])
        ds = load_dataset(path)
        # every field, so that a field added later is saved and loaded too
        for f in dataclasses.fields(DatasetArtifact):
            got, expected = getattr(ds, f.name), getattr(built, f.name)
            if isinstance(expected, np.ndarray):
                assert_same_array(got, expected)
            elif isinstance(expected, SplitArrays):
                for g in dataclasses.fields(SplitArrays):
                    assert_same_array(getattr(got, g.name), getattr(expected, g.name))
            else:
                assert type(got) is type(expected) and got == expected, f.name
        assert read_container(path)[0]["dropped"] == ["Z"]
        assert ds.lag == 3
        # the first 29 days read by no window are NaN, and load accepts them
        assert np.isnan(ds.features[:, :29]).all()
        # anchor indices point at calendar dates inside the test split
        for t in ds.test.anchor_idx:
            assert spec.val_end <= ds.calendar[t] < spec.test_end

    def test_rewrite_is_byte_identical(self, tmp_path):
        dataset, spec = small_dataset()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(a, dataset, spec)
        save_dataset(b, dataset, spec)
        assert a.read_bytes() == b.read_bytes()

    def test_adj_close_is_contiguous_and_saves_the_same_bytes(self, tmp_path):
        built, spec = small_dataset()
        assert built.adj_close.flags.c_contiguous
        # the same values as a strided view, as the price panel's column is
        strided = np.empty((*built.adj_close.shape, 5))[..., 4]
        strided[...] = built.adj_close
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(a, built, spec)
        save_dataset(b, dataclasses.replace(built, adj_close=strided), spec)
        assert a.read_bytes() == b.read_bytes()

    def test_kind_checked(self, tmp_path, small_dims):
        p = tmp_path / "m.ckpt"
        params = init_params(small_dims, np.random.default_rng(0))
        save_checkpoint(p, params, lag=3, seed=0, mode="normal", best_epoch=0)
        with pytest.raises(ArtifactMismatchError, match="not a dataset"):
            load_dataset(p)

    # 2 stocks, 60 days, lag 3.  The last anchor is day 58, so the panel
    # holds days 0..58: anchor 1 would read day -1, which the gather
    # wraps to day 58, and anchor 59 lies past the panel.
    @pytest.mark.parametrize(
        "name, value",
        [("stock_idx", -1), ("stock_idx", 2), ("anchor_idx", -1), ("anchor_idx", 60),
         ("anchor_idx", 1), ("anchor_idx", 59)],
    )
    def test_index_out_of_range_rejected(self, tmp_path, name, value):
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        meta, tensors = read_container(path)
        tensors[f"test_{name}"][0] = value
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match=f"test {name} out of range"):
            load_dataset(path)

    @pytest.mark.parametrize("split, value", [("train", np.nan), ("test", np.inf)])
    def test_non_finite_window_rejected(self, tmp_path, split, value):
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        meta, tensors = read_container(path)
        # the oldest day of the split's last window
        stock, anchor = tensors[f"{split}_stock_idx"][-1], tensors[f"{split}_anchor_idx"][-1]
        tensors["features"][stock, anchor - spec.lag + 1, 4] = value
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match=f"{split} windows must be finite"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -2.0])
    def test_adj_close_must_be_finite_and_positive(self, tmp_path, value):
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        meta, tensors = read_container(path)
        tensors["adj_close"][1, 7] = value
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match="adj_close must be finite and > 0"):
            load_dataset(path)

    @pytest.mark.parametrize("name, dtype, message", [
        ("test_stock_idx", np.float64, "test stock_idx must have a signedinteger dtype"),
        ("val_anchor_idx", np.float64, "val anchor_idx must have a signedinteger dtype"),
        ("train_labels", np.float64, "train labels must have a signedinteger dtype"),
        ("features", np.int64, "features must be floating"),
        ("test_labels", np.float64, "test labels must have a signedinteger dtype"),
        ("adj_close", np.int64, "adj_close must be finite and > 0, in a floating dtype"),
    ], ids=["test_stock_idx", "val_anchor_idx", "train_labels", "features", "test_labels",
            "adj_close"])
    def test_dtype_kind_checked(self, tmp_path, name, dtype, message):
        # In-range values of the wrong kind: a float index array would pass
        # every range check and then fail as an index.
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        meta, tensors = read_container(path)
        tensors[name] = np.ceil(np.nan_to_num(tensors[name])).astype(dtype)
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match=message):
            load_dataset(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        write_container(path, {"kind": "dataset"}, {})
        with pytest.raises(ArtifactMismatchError, match="incomplete dataset"):
            load_dataset(path)

    def test_inconsistent_sizes_rejected(self, tmp_path):
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        meta, tensors = read_container(path)
        tensors["val_labels"] = tensors["val_labels"][:-1]
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError, match="inconsistent val split sizes"):
            load_dataset(path)

    @pytest.mark.parametrize("shape", [(3, 59, 11), (2, 61, 11), (2, 59, 10), (2, 59)],
                             ids=["stocks", "days", "feat_dim", "two_axes"])
    def test_feature_panel_shape_checked(self, tmp_path, shape):
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        meta, tensors = read_container(path)
        tensors["features"] = np.zeros(shape)
        write_container(path, meta, tensors)
        with pytest.raises(ArtifactMismatchError,
                           match="features must be floating, stocks x at most the calendar.s days x 11"):
            load_dataset(path)

    def test_arrays_match_the_feature_oracle_at_every_lag(self, tmp_path):
        write_regime_price_csv(tmp_path / "prices", n_stocks=3, n_days=90, seed=4)
        aligned = align_trading_days(ingest_eod(tmp_path / "prices"))
        spec = SplitSpec(train_end=dt.date(2020, 2, 20), val_end=dt.date(2020, 3, 5),
                         test_end=dt.date(2020, 3, 20), lag=5)
        path = tmp_path / "d.bin"
        save_dataset(path, label_and_window(aligned, spec), spec)
        ds = load_dataset(path)
        for split in SPLIT_NAMES:
            data = getattr(ds, split)
            assert len(data)
            for lag in range(1, spec.lag + 1):
                x, y = ds.arrays(split, lag)
                expected = [
                    [feature_oracle(aligned.prices[s], t - lag + 1 + j) for j in range(lag)]
                    for s, t in zip(data.stock_idx.tolist(), data.anchor_idx.tolist())
                ]
                assert x.tobytes() == np.array(expected).tobytes()
                np.testing.assert_array_equal(y, data.labels)
            with pytest.raises(ArtifactMismatchError, match="deeper than the dataset's lag 5"):
                ds.arrays(split, spec.lag + 1)

    def test_arrays_slice_to_a_shorter_lag(self, tmp_path):
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        ds = load_dataset(path)
        x3, y3 = ds.arrays("train")
        x2, y2 = ds.arrays("train", 2)
        assert x3.shape[1] == 3 and x2.shape[1] == 2
        np.testing.assert_array_equal(x2, x3[:, 1:, :])
        np.testing.assert_array_equal(y2, y3)
        assert y3.dtype == np.float64
        with pytest.raises(ArtifactMismatchError, match="deeper than the dataset's lag 3"):
            ds.arrays("train", 4)

    def test_windows_index_like_the_gathered_arrays(self, tmp_path):
        dataset, spec = small_dataset()
        path = tmp_path / "d.bin"
        save_dataset(path, dataset, spec)
        ds = load_dataset(path)
        for lag in (spec.lag, 2):
            windows, y = ds.windows("train", lag)
            x, y_all = ds.arrays("train", lag)
            assert len(windows) == len(x) > 3
            assert_same_array(y, y_all)
            for rows in (np.array([3, 0, 3, len(x) - 1]), slice(1, 3), slice(None)):
                got = windows[rows]
                assert got.shape == x[rows].shape and got.dtype == x.dtype
                assert got.tobytes() == x[rows].tobytes()
        with pytest.raises(ArtifactMismatchError, match="deeper than the dataset's lag 3"):
            ds.windows("train", 4)


def pinned_market_csv() -> str:
    """Two stocks over 45 days, every price written with two decimals."""
    lines = [",".join(CSV_COLUMNS)]
    for stock, base in (("AAA", 12.5), ("BBB", 40.25)):
        for i in range(45):
            close = base + (i * 37 % 23) * 0.13
            cells = (close - 0.05, close + 0.35, close - 0.4, close, close * 0.98)
            lines.append(f"{stock},{dt.date(2020, 1, 1) + dt.timedelta(days=i)},"
                         + ",".join(f"{c:.2f}" for c in cells) + f",{1000 + 10 * i}")
    return "\n".join(lines) + "\n"


class TestPinnedBytes:
    """The SHA-256 of two containers, recorded when they were first written.

    Neither file's bytes go through exp or BLAS (features are ratios and
    sums of parsed prices; the parameters are written as given), so the
    hashes hold for every numpy build.  A change that moves them changes
    the file format, and says so."""

    def test_dataset(self, tmp_path):
        (tmp_path / "m.csv").write_text(pinned_market_csv())
        spec = SplitSpec(dt.date(2020, 2, 5), dt.date(2020, 2, 9), dt.date(2020, 2, 15), lag=3)
        dataset = label_and_window(align_trading_days(ingest_eod(tmp_path / "m.csv")), spec)
        assert dataset.counts() == {"train": 8, "val": 8, "test": 10}
        save_dataset(tmp_path / "d.bin", dataset, spec)
        assert file_sha256(tmp_path / "d.bin") == (
            "6112fbf2902cd031e7643e649d199ed528379660871c034b5d350e2dc546f044")

    def test_checkpoint(self, tmp_path):
        dims = ModelDims(feat_dim=11, map_size=4, hidden_size=4, att_size=4)
        n = sum(math.prod(shape) for shape in param_shapes(dims).values())
        save_checkpoint(tmp_path / "m.ckpt", ParamSet(dims, np.arange(n) / 7), lag=3, seed=1,
                        mode="adversarial", best_epoch=2, adv_scale=0.05,
                        dataset_sha256="ab" * 32)
        assert file_sha256(tmp_path / "m.ckpt") == (
            "b886c839889f13a303f35f5b7e96e97dd479cafbb3999c81ea6ccc56b9fe5478")


class TestCsv:
    def test_loss_curves(self, tmp_path):
        p = tmp_path / "loss.csv"
        history = [
            EpochRecord(epoch=1, train_loss=0.75, val_loss=0.5, val_acc=62.5),
            EpochRecord(epoch=2, train_loss=0.25, val_loss=1.0 / 3.0, val_acc=75.0),
        ]
        # EpochRecord's fields are the columns, in order.
        write_csv(p, ("epoch", "train_loss", "val_loss", "val_acc"),
                  map(dataclasses.astuple, history))
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert lines[1] == "1,0.75,0.5,62.5"
        # repr round-trips the exact float
        assert float(lines[2].split(",")[2]) == 1.0 / 3.0

    def test_grid_header(self, tmp_path):
        # GridCell's fields are the columns, in order: U is hidden_size, T the
        # lag, lambda the L2, beta the adversarial weight and epsilon its scale.
        p = tmp_path / "grid.csv"
        write_csv(p, ("U", "T", "lambda", "beta", "epsilon", "val_acc", "val_mcc"),
                  map(dataclasses.astuple, [GridCell(4, 3, 0.01, 0.05, 0.1, 55.5, 0.25)]))
        assert p.read_bytes() == (b"U,T,lambda,beta,epsilon,val_acc,val_mcc\r\n"
                                  b"4,3,0.01,0.05,0.1,55.5,0.25\r\n")

    def test_cells_are_float_repr_or_empty(self, tmp_path):
        # csv.writer itself writes every float cell as repr(float(v)) and
        # None as an empty cell; the report bytes rely on both.
        p = tmp_path / "summary.csv"
        floats = (np.float64(1 / 3), 1e-05, 1e16, -0.0, float("nan"))
        write_csv(p, ("name", "metric", "mean", "std", "runs"),
                  [floats, ("model", "acc", 0.5, None, 7)])
        lines = p.read_text().splitlines()
        assert lines[1].split(",") == [repr(float(v)) for v in floats]
        assert lines[2] == "model,acc,0.5,,7"

    def test_metrics_round_trip(self, tmp_path):
        p = tmp_path / "metrics.csv"
        write_csv(p, METRICS_COLUMNS, [("mom", 50.0, 0.0), ("model", 57.2, 0.1483),
                                       ("ri_pct", 4.08, None)])
        rows = read_metrics_csv(p)
        assert rows[0] == {"name": "mom", "acc": "50.0", "mcc": "0.0"}
        assert rows[2]["mcc"] == ""
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ArtifactMismatchError):
            read_metrics_csv(bad)

    @pytest.mark.parametrize("row, column, cell", [
        ("model,abc,0.1", "acc", "'abc'"), ("model,57.2", "mcc", "None"),
        ("model", "acc", "None"), ("model,nan,0.1", "acc", "'nan'"),
        ("model,57.2,inf", "mcc", "'inf'"), ("model,-inf,0.1", "acc", "'-inf'"),
    ])
    def test_metrics_cells_must_be_finite_numbers_or_empty(self, tmp_path, row, column, cell):
        p = tmp_path / "metrics.csv"
        p.write_text(f"name,acc,mcc\nmom,50.0,0.0\n{row}\nri_pct,,\n")
        with pytest.raises(ArtifactMismatchError) as info:
            read_metrics_csv(p)
        assert str(info.value) == (
            f"{p}:3: {column} must be a finite number or empty, got {cell}"
        )

    def test_metrics_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "metrics.csv"
        p.write_bytes(b"name,acc,mcc\ncaf\xe9,50.0,0.0\n")
        with pytest.raises(ArtifactMismatchError, match="not UTF-8"):
            read_metrics_csv(p)
