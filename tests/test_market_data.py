import contextlib
import datetime as dt
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from advalstm import market_data
from advalstm.errors import (
    AlignmentError,
    ContractError,
    DataError,
    EmptySplitWarning,
    MarketSemanticsWarning,
    ParseError,
)
from advalstm.market_data import (
    CSV_COLUMNS,
    FEATURE_DIM,
    FEATURE_NAMES,
    MIN_HISTORY,
    PRICE_COLUMNS,
    EodSeries,
    SplitSpec,
    align_trading_days,
    compute_features,
    gather_windows,
    ingest_eod,
    label_and_window,
)

from conftest import flat_series, price_rows, series_from_closes
from helpers import feature_oracle, ingest_oracle

HEADER = ",".join(CSV_COLUMNS)


def write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")


def day(i):
    return (dt.date(2020, 1, 1) + dt.timedelta(days=i)).isoformat()


def price_row(stock, i, price, volume=1000):
    return f"{stock},{day(i)},{price},{price},{price},{price},{price},{volume}"


class TestIngest:
    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_eod(tmp_path / "nope.csv")

    def test_header_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("stock,date,open\nA,2020-01-01,1\n")
        with pytest.raises(ParseError, match="missing columns"):
            ingest_eod(p)

    def test_bad_number_reports_file_and_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [price_row("A", 0, 10), f"A,{day(1)},x,10,10,10,10,1000"])
        with pytest.raises(ParseError, match=r"bad\.csv:3"):
            ingest_eod(p)

    def test_bad_date(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [f"A,01/02/2020,10,10,10,10,10,1000"])
        with pytest.raises(ParseError, match="bad date"):
            ingest_eod(p)

    def test_non_positive_price(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [f"A,{day(0)},10,10,10,0,10,1000"])
        with pytest.raises(DataError, match="non-positive close"):
            ingest_eod(p)

    def test_negative_volume(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [f"A,{day(0)},10,10,10,10,10,-5"])
        with pytest.raises(DataError, match="negative volume"):
            ingest_eod(p)

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"A,{day(0)},inf,10,10,10,10,1000", "non-finite open=inf"),
            (f"A,{day(0)},10,10,10,10,-inf,1000", "non-finite adj_close=-inf"),
            (f"A,{day(0)},10,10,10,10,10,nan", "non-finite volume=nan"),
        ],
        ids=["open", "adj_close", "volume"],
    )
    def test_non_finite_value(self, tmp_path, row, message):
        p = tmp_path / "bad.csv"
        write_csv(p, [row])
        with pytest.raises(DataError, match=message):
            ingest_eod(p)

    def test_duplicate_date(self, tmp_path):
        p = tmp_path / "dup.csv"
        write_csv(p, [price_row("A", 0, 10), price_row("A", 0, 11)])
        with pytest.raises(DataError, match="duplicate date"):
            ingest_eod(p)

    def test_rows_sorted_by_date(self, tmp_path):
        p = tmp_path / "shuffled.csv"
        write_csv(p, [price_row("A", 2, 12), price_row("A", 0, 10), price_row("A", 1, 11)])
        series = ingest_eod(p)
        dates = series["A"].dates.tolist()
        assert dates == sorted(dates)

    def test_directory_of_files_and_sorted_stocks(self, tmp_path):
        write_csv(tmp_path / "b.csv", [price_row("B", 0, 20)])
        write_csv(tmp_path / "a.csv", [price_row("A", 0, 10)])
        series = ingest_eod(tmp_path)
        assert list(series) == ["A", "B"]

    def test_high_low_bounds_warning(self, tmp_path):
        p = tmp_path / "odd.csv"
        write_csv(p, [f"A,{day(0)},10,9,10,10,10,1000"])  # high < open
        with pytest.warns(MarketSemanticsWarning, match="1 row"):
            ingest_eod(p)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warnings_point_at_the_caller_in_file_order(self, tmp_path, workers):
        write_csv(tmp_path / "a.csv", [f"A,{day(0)},10,12,11,10,10,1000"])  # low > open
        write_csv(tmp_path / "b.csv", [price_row("B", 0, 20), f"B,{day(1)},10,9,10,10,10,1000"])
        with pytest.warns(MarketSemanticsWarning) as caught:
            ingest_eod(tmp_path, workers=workers)  # b.csv is the helper's at 2 workers
        assert [str(w.message) for w in caught] == [
            f"{tmp_path / 'a.csv'}: 1 row(s) where low/high do not bound open/close "
            f"(first at line 2)",
            f"{tmp_path / 'b.csv'}: 1 row(s) where low/high do not bound open/close "
            f"(first at line 3)"]
        assert [w.filename for w in caught] == [__file__, __file__]

    @pytest.mark.parametrize("bad", [None, 0, 3], ids=["clean", "caller", "helper"])
    @pytest.mark.parametrize("workers", [3, 8])
    def test_more_workers_than_cpus(self, tmp_path, workers, bad):
        # Five files of 5,000 rows: up to four helpers, each with a reply
        # larger than a pipe holds, blocked in send when the caller stops.
        for k in range(5):
            rows = [price_row(f"S{k}", i, 10 + k) for i in range(5000)]
            rows += ["S,2020-01-01,x,1,1,1,1,1"] if k == bad else []
            write_csv(tmp_path / f"f{k}.csv", rows)
        read = [ingest_outcome(lambda p: {s: (e.dates, e.prices)
                                          for s, e in ingest_eod(p, workers=w).items()}, tmp_path)
                for w in (1, workers)]
        assert read[0] == read[1]
        assert isinstance(read[0][0], tuple) == (bad is not None)


PRICE_TEXT = ("10", "10.5", " 9.75 ", "1_0", "1e1", "11", "0.5", "12.000")
VOLUME_TEXT = ("0", "1000", "1_000", " 5 ", "2.5")
FAULTS = {
    "number": ("x", "1__0", "", "1.0.0"),
    "date": ("2020-13-01", "20200102", "2020-W01-1", "01/02/2020", "", "2020-1-02"),
    "stock": ("", "   "),
    "non_finite": ("+nan", "1e400", "-inf", "NaN"),
    "price": ("0", "-1.5", "-0"),
    "volume": ("-3", "-0.5"),
}


@st.composite
def raw_markets(draw):
    """A multi-file CSV market as {file name: text}, with at most one
    injected fault; returns (files, fault kind or None)."""
    stocks = draw(st.lists(st.sampled_from(("A", "BB", "Ä", "c d")), min_size=1, max_size=3,
                           unique=True))
    rows = []
    for stock in stocks:
        for i in sorted(draw(st.sets(st.integers(0, 9), max_size=6))):
            pad = draw(st.sampled_from(("", " ", "\t")))
            rows.append({"stock": pad + stock + pad, "date": day(i) + pad,
                         **{c: draw(st.sampled_from(PRICE_TEXT)) for c in PRICE_COLUMNS},
                         "volume": draw(st.sampled_from(VOLUME_TEXT))})
    rows = draw(st.permutations(rows))
    n_files = draw(st.integers(1, 3))
    owner = [draw(st.integers(0, n_files - 1)) for _ in rows]
    fault = draw(st.sampled_from((None, *FAULTS, "short", "duplicate"))) if rows else None
    cut = set()
    if fault == "duplicate":
        twin = dict(draw(st.sampled_from(rows)), close="99")
        rows.append(twin)
        owner.append(draw(st.integers(0, n_files - 1)))
    elif fault == "short":
        cut.add(draw(st.integers(0, len(rows) - 1)))
    elif fault:
        target = draw(st.integers(0, len(rows) - 1))
        column = {"number": draw(st.sampled_from(CSV_COLUMNS[2:])), "date": "date",
                  "stock": "stock", "non_finite": draw(st.sampled_from(CSV_COLUMNS[2:])),
                  "price": draw(st.sampled_from(PRICE_COLUMNS)), "volume": "volume"}[fault]
        rows[target] = dict(rows[target], **{column: draw(st.sampled_from(FAULTS[fault]))})
    files = {}
    for f in range(n_files):
        header = list(draw(st.permutations(CSV_COLUMNS)))
        for extra in draw(st.lists(st.sampled_from(("note", *CSV_COLUMNS)), max_size=2)):
            header.insert(draw(st.integers(0, len(header))), extra)  # a repeat is read last
        last = {name: i for i, name in enumerate(header)}
        needed = max(last[c] for c in CSV_COLUMNS) + 1
        lines = [",".join(header)]
        for r, row in enumerate(rows):
            if owner[r] != f:
                continue
            cells = [row[name] if last.get(name) == i and name in row else "zz"
                     for i, name in enumerate(header)]
            if r in cut:
                cells = cells[: draw(st.integers(1, needed - 1))]  # 0 cells is a blank line
            else:
                cells = cells[: draw(st.integers(needed, len(cells)))]  # drop unread tail cells
                cells += ["x"] * draw(st.integers(0, 2))  # over-long rows
            lines.append(",".join(cells))
            lines += [""] * draw(st.integers(0, 1))  # blank lines
        files[f"part-{f}.csv"] = "\n".join(lines) + "\n"
    return files, fault


def ingest_outcome(ingest, path):
    """(series or (exception type, message), MarketSemanticsWarning texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = {s: (list(map(int, dates)), prices.tobytes())
                      for s, (dates, prices) in ingest(path).items()}
        except (ParseError, DataError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught if w.category is MarketSemanticsWarning]


class TestIngestMatchesRowOracle:
    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=200, deadline=None)
    @given(market=raw_markets(), block_rows=st.integers(1, 8))
    def test_same_series_errors_and_warnings(self, market, block_rows, workers):
        files, fault = market
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).write_text(text, encoding="utf-8")
            # a helper inherits the patch through the fork
            with mock.patch.object(market_data, "BLOCK_ROWS", block_rows):  # files span blocks
                columnar = ingest_outcome(
                    lambda p: {s: (e.dates, e.prices)
                               for s, e in ingest_eod(p, workers=workers).items()}, tmp)
            expected = ingest_outcome(ingest_oracle, tmp)
        assert columnar == expected
        if fault:
            assert isinstance(expected[0], tuple), "the injected fault was not caught"


class TestAlign:
    def test_no_series_is_a_contract_error(self):
        with pytest.raises(ContractError):
            align_trading_days({})

    def test_low_coverage_stock_dropped(self):
        full = flat_series(100)
        patchy = flat_series(10)
        aligned = align_trading_days({"FULL": full, "PATCHY": patchy}, min_coverage=0.9)
        assert aligned.dropped == ["PATCHY"]
        assert aligned.stocks == ["FULL"]
        assert len(aligned.calendar) == 100

    def test_all_dropped_raises(self):
        a = flat_series(10)
        b = flat_series(10, start=dt.date(2021, 1, 1))
        with pytest.raises(AlignmentError, match="coverage"):
            align_trading_days({"A": a, "B": b}, min_coverage=0.9)

    def test_disjoint_dates_raise(self):
        a = flat_series(10)
        b = flat_series(10, start=dt.date(2021, 1, 1))
        with pytest.raises(AlignmentError, match="shared"):
            align_trading_days({"A": a, "B": b}, min_coverage=0.0)

    def test_intersection_calendar(self):
        a = series_from_closes(10.0 + np.arange(100))
        b = series_from_closes(500.0 + np.arange(100), start=dt.date(2020, 1, 11))  # 10-day offset
        aligned = align_trading_days({"B": b, "A": a}, min_coverage=0.5)
        assert len(aligned.calendar) == 90
        assert aligned.stocks == ["A", "B"]
        assert aligned.prices.shape == (2, 90, len(PRICE_COLUMNS))
        for prices, series in zip(aligned.prices, (a, b)):
            on_calendar = [i for i, d in enumerate(series.dates.tolist())
                           if dt.date.fromordinal(d) in set(aligned.calendar)]
            dates = [dt.date.fromordinal(d) for d in series.dates[on_calendar].tolist()]
            assert dates == aligned.calendar
            np.testing.assert_array_equal(prices, price_rows(series)[on_calendar])
        np.testing.assert_array_equal(aligned.adj_close, aligned.prices[:, :, 4])


PANEL_SHAPE = (3, MIN_HISTORY + 12, len(PRICE_COLUMNS))
RANDOM_PANEL = np.random.default_rng(0).uniform(0.01, 1000.0, PANEL_SHAPE)


def features(series) -> np.ndarray:
    """compute_features of a one-stock panel: (n_days, FEATURE_DIM)."""
    return compute_features(price_rows(series)[None])[0]


class TestFeatures:
    def test_needs_min_history(self):
        series = flat_series(MIN_HISTORY + 5)
        feats = features(series)
        assert np.isnan(feats[: MIN_HISTORY - 1]).all()
        assert feats.shape[0] == len(series)
        assert np.isfinite(feats[MIN_HISTORY - 1]).all()  # first valid day

    def test_constant_series_gives_zero_vector(self):
        feats = features(flat_series(40))[35]
        assert feats.shape == (FEATURE_DIM,)
        np.testing.assert_array_equal(feats, np.zeros(FEATURE_DIM))

    def test_five_day_average_hand_case(self):
        # Last five adjusted closes are 5,5,5,5,10: mean 6, 6/10-1 = -0.4.
        closes = [5.0] * 34 + [10.0]
        feats = features(series_from_closes(closes))[34]
        idx = FEATURE_NAMES.index("5-day")
        assert feats[idx] == pytest.approx(-0.4, abs=1e-15)

    def test_full_vector_hand_case(self):
        # 29 constant days, then one crafted day with distinct fields.
        series = series_from_closes([8.0] * 30)
        series.prices[29] = [9.0, 12.0, 6.0, 10.0, 10.0]  # open, high, low, close, adj_close
        feats = features(series)[29]
        # Hand-computed, in FEATURE_NAMES order.
        def kday(k):
            return ((8.0 * (k - 1) + 10.0) / k) / 10.0 - 1.0

        expect = [
            9.0 / 10.0 - 1.0,     # c_open
            12.0 / 10.0 - 1.0,    # c_high
            6.0 / 10.0 - 1.0,     # c_low
            10.0 / 8.0 - 1.0,     # n_close
            10.0 / 8.0 - 1.0,     # n_adj_close
            kday(5),
            kday(10),
            kday(15),
            kday(20),
            kday(25),
            kday(30),
        ]
        np.testing.assert_allclose(feats, expect, rtol=0, atol=1e-15)

    def test_scale_invariance(self):
        closes = list(10.0 + np.abs(np.sin(np.arange(40))) * 3.0)
        base = features(series_from_closes(closes))[35]
        scaled = features(series_from_closes([c * 7.5 for c in closes]))[35]
        np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        prices=arrays(np.float64, PANEL_SHAPE, elements=st.floats(0.01, 1000.0)),
        n_stocks=st.integers(1, PANEL_SHAPE[0]),
        n_days=st.integers(1, PANEL_SHAPE[1]),
    )
    @example(prices=RANDOM_PANEL, n_stocks=2, n_days=MIN_HISTORY - 1)
    @example(prices=RANDOM_PANEL, n_stocks=2, n_days=MIN_HISTORY)
    @example(prices=RANDOM_PANEL, n_stocks=2, n_days=MIN_HISTORY + 1)
    def test_panel_matches_oracle(self, prices, n_stocks, n_days):
        prices = prices[:n_stocks, :n_days]
        feats = compute_features(prices)
        assert feats.shape == (n_stocks, n_days, FEATURE_DIM)
        for s in range(n_stocks):
            assert np.isnan(feats[s, : MIN_HISTORY - 1]).all()
            for t in range(MIN_HISTORY - 1, n_days):
                assert feats[s, t].tobytes() == feature_oracle(prices[s], t).tobytes()


def make_spec(lag=2, **kw):
    defaults = dict(
        train_end=dt.date(2020, 2, 10),
        val_end=dt.date(2020, 2, 20),
        test_end=dt.date(2020, 3, 10),
        lag=lag,
    )
    defaults.update(kw)
    return SplitSpec(**defaults)


class TestSplitSpec:
    def test_boundaries_must_increase(self):
        with pytest.raises(ContractError):
            make_spec(val_end=dt.date(2020, 1, 1))

    def test_lag_must_be_positive(self):
        with pytest.raises(ContractError):
            make_spec(lag=0)

    def test_threshold_signs(self):
        with pytest.raises(ContractError):
            make_spec(pos_threshold=-0.1)
        with pytest.raises(ContractError):
            make_spec(neg_threshold=0.1)


def rising_aligned(n_days=60, rate=0.02, stocks=("A", "B", "C")):
    """Every day rises by `rate`, so every movement clears the +1 threshold."""
    closes = list(10.0 * (1.0 + rate) ** np.arange(n_days))
    series = {s: series_from_closes(closes) for s in stocks}
    return align_trading_days(series, min_coverage=0.9)


class TestLabelAndWindow:
    def test_example_counts_on_rising_fixture(self):
        # 60 days, lag 5: anchors are day indices 33..58 inclusive (the
        # last day has no next-day label), all movements positive.
        aligned = rising_aligned()
        spec = make_spec(
            lag=5,
            train_end=dt.date(2020, 2, 10),  # day index 40
            val_end=dt.date(2020, 2, 20),    # day index 50
            test_end=dt.date(2020, 3, 10),   # day index 69
        )
        splits = label_and_window(aligned, spec)
        # train: anchors 33..39 (7), val: 40..49 (10), test: 50..58 (9), x3 stocks
        assert splits.counts() == {"train": 21, "val": 30, "test": 27}
        assert all(np.all(getattr(splits, name).labels == 1) for name in ("train", "val", "test"))

    def test_half_open_boundary(self):
        aligned = rising_aligned()
        spec = make_spec(lag=5)
        splits = label_and_window(aligned, spec)
        boundary = spec.train_end
        dates = aligned.calendar
        assert all(dates[t] < boundary for t in splits.train.anchor_idx)
        assert any(dates[t] == boundary for t in splits.val.anchor_idx)

    def test_window_rows_match_feature_oracle(self):
        aligned = rising_aligned(stocks=("A",))
        spec = make_spec(lag=4)
        splits = label_and_window(aligned, spec)
        val = splits.val
        (window,) = gather_windows(splits.features, val.stock_idx[:1], val.anchor_idx[:1], 4)
        t = val.anchor_idx[0]
        for offset in range(4):
            np.testing.assert_array_equal(
                window[offset], feature_oracle(aligned.prices[0], t - 3 + offset)
            )

    def test_neutral_movements_dropped(self):
        # Flat series: movement 0 sits strictly between the thresholds.
        series = {"A": flat_series(60)}
        aligned = align_trading_days(series)
        with pytest.warns(EmptySplitWarning):
            splits = label_and_window(aligned, make_spec(lag=2))
        assert splits.counts() == {"train": 0, "val": 0, "test": 0}

    def test_splits_partition_anchor_dates(self):
        aligned = rising_aligned()
        spec = make_spec(lag=3)
        splits = label_and_window(aligned, spec)
        seen = {}
        for name in ("train", "val", "test"):
            data = getattr(splits, name)
            for key in zip(data.stock_idx.tolist(), data.anchor_idx.tolist()):
                assert key not in seen, f"{key} appears in {seen.get(key)} and {name}"
                seen[key] = name

    def test_short_history_stock_contributes_nothing(self):
        short = {"A": flat_series(10)}
        aligned = align_trading_days(short)
        with pytest.warns(EmptySplitWarning):
            splits = label_and_window(aligned, make_spec(lag=2))
        assert splits.counts() == {"train": 0, "val": 0, "test": 0}

    def test_infinite_movement_is_an_input_error(self):
        # adj_close 1e-10 on day 78, then 1e300: anchor 78's movement
        # overflows to inf (label +1) while its lag-1 window stays finite.
        series = flat_series(80)
        for day, adj_close in ((78, 1e-10), (79, 1e300)):
            series.prices[day, PRICE_COLUMNS.index("adj_close")] = adj_close
        aligned = align_trading_days({"A": series})
        spec = make_spec(lag=1, test_end=dt.date(2020, 4, 1))
        anchor = dt.date.fromordinal(int(series.dates[78]))
        with pytest.raises(DataError, match=f"movement for A on {anchor}"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySplitWarning)
            label_and_window(aligned, spec)

    @settings(max_examples=60, deadline=None)
    @given(
        movement=st.floats(min_value=-0.2, max_value=0.2),
        pos=st.floats(min_value=1e-4, max_value=0.05),
        neg=st.floats(min_value=-0.05, max_value=-1e-4),
    )
    def test_labeling_thresholds_property(self, movement, pos, neg):
        # One anchor day (index 29 with lag 1); its movement is `movement`.
        closes = [10.0] * 30 + [10.0 * (1.0 + movement)]
        aligned = align_trading_days({"A": series_from_closes(closes)})
        spec = SplitSpec(
            train_end=dt.date(2020, 3, 1),
            val_end=dt.date(2020, 3, 2),
            test_end=dt.date(2020, 3, 3),
            lag=1,
            pos_threshold=pos,
            neg_threshold=neg,
        )
        if abs(movement - pos) < 1e-9 or abs(movement - neg) < 1e-9:
            return  # too close to a boundary for float reconstruction via prices
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySplitWarning)
            splits = label_and_window(aligned, spec)
        labels = splits.train.labels.tolist()
        recovered = closes[30] / closes[29] - 1.0
        if recovered >= pos:
            assert labels == [1]
        elif recovered <= neg:
            assert labels == [-1]
        else:
            assert labels == []


class TestStack:
    def test_shapes_and_dtype(self):
        aligned = rising_aligned(stocks=("A",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySplitWarning)
            splits = label_and_window(aligned, make_spec(lag=5))
        train = splits.train
        x, y = gather_windows(splits.features, train.stock_idx, train.anchor_idx, 5), train.labels
        assert x.shape == (len(splits.train), 5, FEATURE_DIM)
        assert x.dtype == np.float64
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_empty(self):
        with pytest.warns(EmptySplitWarning):
            splits = label_and_window(align_trading_days({"A": flat_series(60)}),
                                      make_spec(lag=2))
        train = splits.train
        x, y = gather_windows(splits.features, train.stock_idx, train.anchor_idx, 2), train.labels
        assert x.shape[0] == 0 and y.shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 30), (4, 30, 3)])
    def test_gather_equals_the_fancy_index(self, shape):
        rng = np.random.default_rng(7)
        panel, lag = rng.normal(size=shape), 6
        stock = rng.integers(0, shape[0], 200).astype(np.int32)
        anchor = rng.integers(lag - 1, shape[1], 200).astype(np.int32)
        expected = panel[stock[:, None], anchor[:, None] + np.arange(1 - lag, 1)]
        got = gather_windows(panel, stock, anchor, lag)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_feature_panel_is_contiguous_and_ends_on_the_last_anchor(self):
        series = {"B": random_series(3), "A": random_series(4)}
        dataset = label_and_window(align_trading_days(series), make_spec(lag=4))
        last = max(int(getattr(dataset, name).anchor_idx.max()) for name in ("train", "val", "test"))
        assert dataset.features.shape[1] == last + 1
        assert dataset.features.flags.c_contiguous

    def test_empty_split_warning_names_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            label_and_window(align_trading_days({"A": flat_series(60)}), make_spec(lag=2))
        empty = [w for w in caught if issubclass(w.category, EmptySplitWarning)]
        assert empty and all(w.filename == __file__ for w in empty)


def random_series(seed, n_days=60):
    """A stock whose open/high/low/close/adj_close all differ from day to day."""
    rng = np.random.default_rng(seed)
    close = 20.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, n_days)))
    adj = close * np.exp(np.cumsum(rng.normal(0.0, 0.002, n_days)))
    open_ = close * (1.0 + rng.normal(0.0, 0.01, n_days))
    high = np.maximum(open_, close) * (1.0 + rng.uniform(0.0, 0.01, n_days))
    low = np.minimum(open_, close) * (1.0 - rng.uniform(0.0, 0.01, n_days))
    dates = dt.date(2020, 1, 1).toordinal() + np.arange(n_days, dtype=np.int64)
    return EodSeries(dates=dates, prices=np.stack([open_, high, low, close, adj], axis=1))


def rows_by_anchor(splits, lag):
    """anchor day index -> (window, label) over every split."""
    out = {}
    for name in ("train", "val", "test"):
        data = getattr(splits, name)
        windows = gather_windows(splits.features, data.stock_idx, data.anchor_idx, lag)
        for i, t in enumerate(data.anchor_idx.tolist()):
            out[t] = (windows[i], data.labels[i])
    return out


class TestColumnarBuild:
    def test_columns_match_loop_reference(self):
        # One anchor at a time, the way the columns are defined.
        series = {"B": random_series(3), "A": random_series(4)}
        spec = make_spec(lag=4)
        splits = label_and_window(align_trading_days(series), spec)
        expected = {"train": [], "val": [], "test": []}
        for s_idx, stock in enumerate(sorted(series)):
            records = series[stock]
            adj = records.prices[:, PRICE_COLUMNS.index("adj_close")]
            for t in range(MIN_HISTORY - 1 + spec.lag - 1, len(records) - 1):
                day = dt.date.fromordinal(int(records.dates[t]))
                if day >= spec.test_end:
                    continue
                name = "train" if day < spec.train_end else "val" if day < spec.val_end else "test"
                movement = adj[t + 1] / adj[t] - 1.0
                if spec.neg_threshold < movement < spec.pos_threshold:
                    continue
                rows = price_rows(records)
                window = np.stack([feature_oracle(rows, d) for d in range(t - 3, t + 1)])
                expected[name].append((s_idx, t, 1 if movement > 0 else -1, window))
        for name, rows in expected.items():
            got = getattr(splits, name)
            assert rows and len(got) == len(rows)
            assert got.stock_idx.tolist() == [r[0] for r in rows]
            assert got.anchor_idx.tolist() == [r[1] for r in rows]
            assert got.labels.tolist() == [r[2] for r in rows]
            np.testing.assert_array_equal(
                gather_windows(splits.features, got.stock_idx, got.anchor_idx, spec.lag),
                np.stack([r[3] for r in rows]))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        day=st.integers(0, 59),
        column=st.sampled_from(("open", "high", "low", "close", "adj_close")),
        factor=st.floats(min_value=0.5, max_value=2.0).filter(lambda f: f != 1.0),
    )
    def test_no_look_ahead(self, seed, day, column, factor):
        series = random_series(seed)
        spec = make_spec(lag=4)
        prices = series.prices.copy()
        prices[day, PRICE_COLUMNS.index(column)] *= factor
        perturbed = EodSeries(series.dates, prices)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySplitWarning)
            before = rows_by_anchor(
                label_and_window(align_trading_days({"A": series}), spec), spec.lag)
            after = rows_by_anchor(
                label_and_window(align_trading_days({"A": perturbed}), spec), spec.lag
            )
        for t, (window, label) in before.items():
            if t + 1 < day:
                # the change lies after t + 1: anchor t is untouched
                assert t in after
                np.testing.assert_array_equal(after[t][0], window)
                assert after[t][1] == label
            elif t + 1 == day and t in after:
                # day t + 1 moves only anchor t's label
                np.testing.assert_array_equal(after[t][0], window)
        for t in after:
            if t + 1 < day:
                assert t in before

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), n_files=st.integers(1, 4))
    def test_csv_row_order_does_not_change_dataset(self, seed, n_files):
        from advalstm.cli import main
        from advalstm.synthetic import write_regime_price_csv

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_regime_price_csv(tmp / "sorted", n_stocks=3, n_days=80, seed=1)
            rows = []
            for f in sorted((tmp / "sorted").glob("*.csv")):
                rows += f.read_text().splitlines()[1:]
            rng = np.random.default_rng(seed)
            shuffled = [rows[i] for i in rng.permutation(len(rows))]
            (tmp / "shuffled").mkdir()
            for part in range(n_files):
                write_csv(tmp / "shuffled" / f"part-{part}.csv", shuffled[part::n_files])
            digests = []
            for name in ("sorted", "shuffled"):
                cfg = tmp / f"{name}.cfg"
                cfg.write_text(
                    f"data.path = {tmp / name}\nout.dir = {tmp / name}-out\n"
                    "data.lag = 3\nsplit.train_end = 2020-02-20\n"
                    "split.val_end = 2020-03-05\nsplit.test_end = 2020-03-25\n"
                )
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["build", "--config", str(cfg)]) == 0
                digests.append((tmp / f"{name}-out" / "dataset.bin").read_bytes())
            assert digests[0] == digests[1]
