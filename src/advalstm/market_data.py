"""End-of-day market data pipeline.

Raw per-stock price rows go through four stages: ingestion (CSV ->
whole columns parsed and checked at once, a directory's files side by
side in forked processes -> one date-sorted EodSeries of date ordinals
and prices per stock), trading-day alignment (intersection
calendar across stocks, stored as one dense (stocks, days, price column)
panel), feature computation (11 price ratios for every stock-day of the
panel at once), and labeling (next-day movement labels of anchor days in
temporal train/val/test splits, held with the feature panel in one
DatasetArtifact, whose ``windows`` and ``arrays`` gather their windows).

All prices are taken as given; adjusted close is used for movement
labels and moving averages, raw close for the close-to-close return.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    ArtifactMismatchError,
    ContractError,
    DataError,
    EmptySplitWarning,
    MarketSemanticsWarning,
    ParseError,
)
from .forking import forked, in_rounds, serve

CSV_COLUMNS = ("stock", "date", "open", "high", "low", "close", "adj_close", "volume")

# Last axis of AlignedData.prices.
PRICE_COLUMNS = ("open", "high", "low", "close", "adj_close")
NUMERIC_COLUMNS = (*PRICE_COLUMNS, "volume")

FEATURE_NAMES = (
    "c_open",
    "c_high",
    "c_low",
    "n_close",
    "n_adj_close",
    "5-day",
    "10-day",
    "15-day",
    "20-day",
    "25-day",
    "30-day",
)
FEATURE_DIM = len(FEATURE_NAMES)

MOVING_AVERAGE_DAYS = (5, 10, 15, 20, 25, 30)

# Longest moving average; a day needs this much history (inclusive) to
# be featurized, so the first 30 aligned days of a stock yield nothing.
MIN_HISTORY = 30

DEFAULT_POS_THRESHOLD = 0.0055  # movement >= +0.55% labels +1
DEFAULT_NEG_THRESHOLD = -0.005  # movement <= -0.50% labels -1
DEFAULT_MIN_COVERAGE = 0.98     # share of the union of dates a kept stock must have

SPLIT_NAMES = ("train", "val", "test")

# Data rows a CSV file is checked in at once; a file's cells are held as
# strings only one block at a time.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class EodSeries:
    """One stock's trading days in columnar form, sorted by date."""

    dates: np.ndarray   # (n,) int64 proleptic Gregorian ordinals, increasing
    prices: np.ndarray  # (n, len(PRICE_COLUMNS)) float64

    def __len__(self) -> int:
        return int(self.dates.shape[0])


@dataclass(frozen=True)
class SplitSpec:
    """Temporal split boundaries plus windowing and labeling knobs.

    Split intervals are half-open on anchor date: train is
    [start-of-data, train_end), validation [train_end, val_end),
    test [val_end, test_end).  Thresholds are fractional movements
    (0.0055 means +0.55%).
    """

    train_end: dt.date
    val_end: dt.date
    test_end: dt.date
    lag: int
    pos_threshold: float = DEFAULT_POS_THRESHOLD
    neg_threshold: float = DEFAULT_NEG_THRESHOLD

    def __post_init__(self):
        if not (self.train_end < self.val_end < self.test_end):
            raise ContractError(
                f"split boundaries must be increasing, got "
                f"{self.train_end} / {self.val_end} / {self.test_end}"
            )
        if self.lag < 1:
            raise ContractError(f"lag must be >= 1, got {self.lag}")
        if not (self.pos_threshold > 0 > self.neg_threshold):
            raise ContractError(
                f"thresholds must satisfy pos > 0 > neg, got "
                f"{self.pos_threshold} / {self.neg_threshold}"
            )


@dataclass
class AlignedData:
    """Result of trading-day alignment: one price per stock, calendar
    day and PRICE_COLUMNS entry."""

    stocks: list[str]       # sorted
    calendar: list[dt.date]
    prices: np.ndarray      # (n_stocks, n_days, len(PRICE_COLUMNS)) float64
    dropped: list[str] = field(default_factory=list)

    @property
    def adj_close(self) -> np.ndarray:
        """(n_stocks, n_days) view of the adjusted closes."""
        return self.prices[:, :, PRICE_COLUMNS.index("adj_close")]


@dataclass(frozen=True)
class SplitArrays:
    """One split in columnar form: row i of every array is one labeled
    example, the window of stock ``stock_idx[i]`` that ends on calendar
    day ``anchor_idx[i]`` (see ``gather_windows``)."""

    labels: np.ndarray      # (n,) int8, +1 or -1
    stock_idx: np.ndarray   # (n,) int32, position in the sorted stock list
    anchor_idx: np.ndarray  # (n,) int32, calendar index of the anchor day

    def __len__(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class Windows:
    """The windows of one split at one lag, gathered from the feature
    panel only when indexed: ``windows[rows]`` is the ndarray of the
    selected rows' windows (see ``gather_windows``), ``windows[:]`` all of
    them.  ``train`` takes it as ``x_train`` and gathers a minibatch a step."""

    features: np.ndarray    # (n_stocks, days, FEATURE_DIM) float64
    stock_idx: np.ndarray   # (n,) position in the sorted stock list
    anchor_idx: np.ndarray  # (n,) calendar index of the anchor day
    lag: int

    def __len__(self) -> int:
        return int(self.stock_idx.shape[0])

    def __getitem__(self, rows) -> np.ndarray:
        return gather_windows(self.features, self.stock_idx[rows], self.anchor_idx[rows],
                              self.lag)


@dataclass(frozen=True)
class DatasetArtifact:
    """One labeled dataset, as ``label_and_window`` builds it and
    ``load_dataset`` reads it back: the splits, the feature panel their
    windows are gathered from, and the prices the baselines read."""

    stocks: list[str]       # sorted
    calendar: list[dt.date]
    adj_close: np.ndarray   # (n_stocks, n_days) float64
    features: np.ndarray    # (n_stocks, last anchor + 1, FEATURE_DIM) float64
    lag: int
    train: SplitArrays
    val: SplitArrays
    test: SplitArrays

    def counts(self) -> dict[str, int]:
        return {name: len(getattr(self, name)) for name in SPLIT_NAMES}

    def positive_fraction(self) -> dict[str, float | None]:
        out = {}
        for name in SPLIT_NAMES:
            labels = getattr(self, name).labels
            out[name] = int(np.count_nonzero(labels > 0)) / labels.size if labels.size else None
        return out

    def windows(self, split: str, lag: int | None = None) -> tuple[Windows, np.ndarray]:
        """The (windows, float labels) of one split, with the windows left in the panel.

        A window of any ``lag`` up to the dataset's ends on the same
        anchor day, so every lag sees the same anchors and labels.
        """
        lag = self.lag if lag is None else lag
        if lag < 1:
            raise ContractError(f"lag must be >= 1, got {lag}")
        if lag > self.lag:
            raise ArtifactMismatchError(
                f"lag {lag} is deeper than the dataset's lag {self.lag}; "
                f"rebuild with data.lag >= {lag}"
            )
        data: SplitArrays = getattr(self, split)
        return (Windows(self.features, data.stock_idx, data.anchor_idx, lag),
                data.labels.astype(np.float64))

    def arrays(self, split: str, lag: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Model-ready (windows, float labels) of one split, every window gathered."""
        x, y = self.windows(split, lag)
        return x[:], y


def _parse_date(cell) -> dt.date:
    """Exactly YYYY-MM-DD on every Python (3.11's fromisoformat takes more)."""
    text = cell.strip()
    day = dt.date.fromisoformat(text)
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return day


def _check_row(row: dict, path: str, line_no: int) -> None:
    """Raise the error of one row's first problem, checking in column order."""
    stock = (row.get("stock") or "").strip()
    if not stock:
        raise ParseError(f"{path}:{line_no}: empty stock id")
    try:
        date = _parse_date(row["date"])
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"{path}:{line_no}: bad date {row.get('date')!r}: {exc}") from exc
    values = {}
    for col in NUMERIC_COLUMNS:
        try:
            values[col] = float(row[col])
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"{path}:{line_no}: column {col!r} is not a number: {row.get(col)!r}"
            ) from exc
    for col, value in values.items():
        if not math.isfinite(value):
            problem = "non-finite"
        elif col == "volume" and value < 0.0:
            problem = "negative"
        elif col != "volume" and value <= 0.0:
            problem = "non-positive"
        else:
            continue
        raise DataError(f"{path}:{line_no}: {problem} {col}={value} for {stock} on {date}")


def _ordinal(cell) -> int:
    """The date ordinal of an exact YYYY-MM-DD cell, 0 for anything else."""
    with contextlib.suppress(ValueError, AttributeError):
        return _parse_date(cell).toordinal()
    return 0


def _check_block(rows: list[list[str]], header: list[str], codes: dict[str, int],
                 ordinals: dict[str, int], path: Path,
                 line0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check consecutive data rows of one file, the first at line
    ``line0``, a column at a time; return their stock codes (values of
    ``codes``, which learns new ids), date ordinals (values of
    ``ordinals``, which learns new date cells) and NUMERIC_COLUMNS."""
    n, last = len(rows), {name: i for i, name in enumerate(header)}
    table = list(itertools.zip_longest(header, *rows))  # pads short rows with None
    column = {c: table[last[c]][1:] for c in CSV_COLUMNS}
    stripped = {raw: (raw or "").strip() for raw in set(column["stock"])}
    code_of = {raw: codes.setdefault(s, len(codes)) if s else -1 for raw, s in stripped.items()}
    stock_code = np.fromiter(map(code_of.__getitem__, column["stock"]), np.intp, n)
    ordinals.update({raw: _ordinal(raw) for raw in set(column["date"]) - ordinals.keys()})
    dates = np.fromiter(map(ordinals.__getitem__, column["date"]), np.int64, n)
    values = np.empty((n, len(NUMERIC_COLUMNS)))
    try:
        for j, col in enumerate(NUMERIC_COLUMNS):
            values[:, j] = np.fromiter(map(float, column[col]), np.float64, n)
    except (TypeError, ValueError):  # a cell is not a number: find it row by row
        bad = np.ones(n, dtype=bool)
    else:
        bad = ((stock_code < 0) | (dates == 0) | ~np.isfinite(values).all(axis=1)
               | (values[:, :-1] <= 0.0).any(axis=1) | (values[:, -1] < 0.0))
    for i in range(int(np.argmax(bad)) if bad.any() else n, n):  # raises at the first bad row
        _check_row({c: column[c][i] for c in CSV_COLUMNS}, str(path), line0 + i)
    return stock_code, dates, values


def _read_csv(path: Path, ordinals: dict[str, int]) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, list[str], int, int | None]:
    """Check one file BLOCK_ROWS rows at a time; return its rows' stock
    codes, date ordinals and NUMERIC_COLUMNS as ``_check_block`` gives
    them, the file's stock ids in code order, and its count of rows where
    low/high do not bound open/close with the first one's line.

    Rows read as csv.DictReader reads them: blank lines are skipped and
    not counted (line numbers count the rest from 2), a column named
    twice is read from its last place, a short row reads None past its end.
    """
    codes, parts = {}, []  # stock id -> code in this file; each block's arrays
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise ParseError(f"{path}: header is missing columns {missing}")
            rows = filter(None, reader)
            for line0 in itertools.count(2, BLOCK_ROWS):
                block = list(itertools.islice(rows, BLOCK_ROWS))
                parts.append(_check_block(block, header, codes, ordinals, path, line0))
                if len(block) < BLOCK_ROWS:
                    break
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from exc
    stock_code, dates, values = map(np.concatenate, zip(*parts))

    open_, high, low, close = values[:, :4].T  # PRICE_COLUMNS order
    unbounded = np.flatnonzero((low > np.minimum(open_, close)) | (high < np.maximum(open_, close)))
    first_line = int(unbounded[0]) + 2 if unbounded.size else None
    return stock_code, dates, values, list(codes), unbounded.size, first_line


def ingest_eod(path: str | Path, *, workers: int = 1) -> dict[str, EodSeries]:
    """Read one CSV file (or every ``*.csv`` in a directory) into
    date-sorted series, in sorted stock order.

    Raises ParseError for malformed rows or CSV syntax (with file:line
    context) and non-UTF-8 files; DataError for non-positive prices, duplicate
    (stock, date) pairs, or no data rows at all.  Warns once per file with
    rows where low/high do not bound open/close (MarketSemanticsWarning).

    ``workers`` counts the processes that parse files, this one included:
    file k of the sorted list is parsed in process k mod P, with
    P = min(workers, files), and the others are forked once per call.
    Their results are taken in file order, so the series, the first error
    and the warnings are those of a serial read whatever ``workers`` is.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input path does not exist: {path}")
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise DataError(f"no .csv files under {path}")

    codes, ordinals, parts = {}, {}, []  # stock id -> code; date cell -> ordinal; file arrays

    def parse(f: Path):  # each process fills its own copy of ``ordinals``
        return _read_csv(f, ordinals)

    requests = [(f,) for f in files]
    with forked(serve, [(parse,)] * (min(workers, len(files)) - 1)) as helpers:
        for (f,), result in zip(requests, in_rounds(parse, requests, helpers)):
            stock_code, dates, values, stocks, unbounded, first_line = result
            if unbounded:
                warnings.warn(f"{f}: {unbounded} row(s) where low/high do not bound "
                              f"open/close (first at line {first_line})",
                              MarketSemanticsWarning, stacklevel=2)
            code = np.array([codes.setdefault(s, len(codes)) for s in stocks], np.intp)
            parts.append((code[stock_code], dates, values))
    stock_code, dates, values = map(np.concatenate, zip(*parts))
    del parts  # not held through the sort, which is ingest's memory peak
    if not codes:
        raise DataError(f"no data rows found under {path}")
    stocks = sorted(codes)
    stock_idx = np.argsort([codes[s] for s in stocks])[stock_code]  # code -> sorted position
    order = np.lexsort((dates, stock_idx))
    stock_idx, dates, prices = stock_idx[order], dates[order], values[order, :len(PRICE_COLUMNS)]
    dup = np.flatnonzero((stock_idx[1:] == stock_idx[:-1]) & (dates[1:] == dates[:-1]))
    if dup.size:
        raise DataError(f"duplicate date {dt.date.fromordinal(int(dates[dup[0]]))} "
                        f"for stock {stocks[stock_idx[dup[0]]]}")
    bounds = np.searchsorted(stock_idx, np.arange(len(stocks) + 1))
    return {s: EodSeries(dates[a:b], prices[a:b]) for s, a, b in zip(stocks, bounds, bounds[1:])}


def align_trading_days(series_by_stock: dict[str, EodSeries],
                       min_coverage: float = DEFAULT_MIN_COVERAGE) -> AlignedData:
    """Restrict every stock to the dates present in all stocks and stack
    the survivors into one price panel.

    ``series_by_stock`` holds date-sorted series with one row per date,
    as ``ingest_eod`` returns them.  Stocks covering less than
    ``min_coverage`` of the union of dates are dropped before
    intersecting, so one patchy series cannot wipe out the calendar.
    Raises AlignmentError when nothing survives.
    """
    if not series_by_stock:
        raise ContractError("align_trading_days needs at least one stock series")

    n_union = np.unique(np.concatenate([s.dates for s in series_by_stock.values()])).size
    kept = [s for s in sorted(series_by_stock) if len(series_by_stock[s]) >= min_coverage * n_union]
    dropped = sorted(set(series_by_stock) - set(kept))
    if not kept:
        raise AlignmentError(
            f"all {len(series_by_stock)} stocks fall below coverage ratio {min_coverage}"
        )

    held = [series_by_stock[s] for s in kept]
    days, count = np.unique(np.concatenate([s.dates for s in held]), return_counts=True)
    common = days[count == len(held)]
    if not common.size:
        raise AlignmentError("no trading day is shared by all retained stocks")
    prices = np.stack([s.prices[np.isin(s.dates, common)] for s in held])
    calendar = [dt.date.fromordinal(d) for d in common.tolist()]
    return AlignedData(stocks=kept, calendar=calendar, prices=prices, dropped=dropped)


@np.errstate(over="ignore", invalid="ignore")
def compute_features(prices: np.ndarray) -> np.ndarray:
    """The 11 feature ratios of every stock-day of a price panel.

    ``prices`` is (n_stocks, n_days, len(PRICE_COLUMNS)); the result is
    (n_stocks, n_days, FEATURE_DIM), in FEATURE_NAMES order:

      c_open      open_t / close_t - 1        (c_high, c_low likewise)
      n_close     close_t / close_{t-1} - 1
      n_adj_close adj_close_t / adj_close_{t-1} - 1
      k-day       (mean of adj_close over last k days) / adj_close_t - 1
                  for k in 5, 10, 15, 20, 25, 30

    A day needs MIN_HISTORY days up to and including itself; earlier
    days are NaN.  Overflow yields inf or NaN without a warning.
    """
    open_, high, low, close, adj = np.moveaxis(np.asarray(prices, dtype=np.float64), -1, 0)
    n_stocks, n_days = close.shape
    out = np.full((n_stocks, n_days, FEATURE_DIM), np.nan)
    if n_days < MIN_HISTORY:
        return out
    t, prev = slice(MIN_HISTORY - 1, None), slice(MIN_HISTORY - 2, -1)
    for j, column in enumerate((open_, high, low)):
        out[:, t, j] = column[:, t] / close[:, t] - 1.0
    out[:, t, 3] = close[:, t] / close[:, prev] - 1.0
    out[:, t, 4] = adj[:, t] / adj[:, prev] - 1.0
    # adj_t + adj_{t-1} + ... in that order, the summation order of the
    # per-day definition, so every mean is bit-identical to it.
    total = np.zeros((n_stocks, n_days - MIN_HISTORY + 1))
    summed = 0
    for j, k in enumerate(MOVING_AVERAGE_DAYS, start=5):
        for i in range(summed, k):
            total += adj[:, MIN_HISTORY - 1 - i : n_days - i]
        summed = k
        out[:, t, j] = total / k / adj[:, t] - 1.0
    return out


def gather_windows(features: np.ndarray, stock_idx: np.ndarray, anchor_idx: np.ndarray,
                   lag: int) -> np.ndarray:
    """``out[i, j]`` is ``features[stock_idx[i], anchor_idx[i] - lag + 1 + j]``: the
    windows end on their anchors.  The rows are taken from the panel flattened
    to (stocks * days, ...), so a day index below 0 reads the previous stock's
    last days (the panel's last, for stock 0); callers keep every anchor at
    ``lag - 1`` or later."""
    first = stock_idx.astype(np.intp) * features.shape[1] + anchor_idx
    return np.take(features.reshape(-1, *features.shape[2:]),
                   first[:, None] + np.arange(1 - lag, 1), axis=0)


def label_and_window(aligned: AlignedData, spec: SplitSpec) -> DatasetArtifact:
    """Label anchor days and assign them to splits.

    The movement percent of an anchor day is the next trading day's
    adjusted-close change; anchors strictly between the thresholds are in
    no split.  Rows are ordered by stock (sorted), then anchor day.  The
    feature panel ends on the last anchor day.  An empty split is a
    warning.  Raises DataError when a window reads a non-finite feature
    or a row's movement is non-finite, which extreme ratios overflow to.
    """
    # A contiguous copy: the strided view would be copied again by every
    # gather from it, such as each baseline's.
    adj = np.ascontiguousarray(aligned.adj_close)
    anchors = np.arange(MIN_HISTORY - 1 + spec.lag - 1, len(aligned.calendar) - 1)
    with np.errstate(over="ignore"):
        movement = adj[:, anchors + 1] / adj[:, anchors] - 1.0
    labels = np.where(movement >= spec.pos_threshold, 1,
                      np.where(movement <= spec.neg_threshold, -1, 0)).astype(np.int8)
    bounds = [d.toordinal() for d in (spec.train_end, spec.val_end, spec.test_end)]
    # 0 train, 1 val, 2 test, 3 past the test end (half-open intervals)
    bucket = np.searchsorted(bounds, [aligned.calendar[t].toordinal() for t in anchors],
                             side="right")
    rows = [np.nonzero((bucket == b) & (labels != 0)) for b in range(len(SPLIT_NAMES))]
    end = max((int(anchors[a].max()) + 1 for _, a in rows if a.size), default=0)
    # A day's features read only that day and earlier ones, so the panel can
    # stop at the last anchor; computed on that many days, it is contiguous.
    feats = compute_features(aligned.prices[:, :end])
    finite = np.isfinite(feats).all(axis=2)
    splits = {}
    for name, (stock, a) in zip(SPLIT_NAMES, rows):
        t = anchors[a]
        bad = ~gather_windows(finite, stock, t, spec.lag)
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise DataError(f"non-finite feature for {aligned.stocks[stock[row]]} on "
                            f"{aligned.calendar[t[row] + 1 - spec.lag + j]}")
        bad_move = np.flatnonzero(~np.isfinite(movement[stock, a]))
        if bad_move.size:
            row = bad_move[0]
            raise DataError(f"non-finite next-day movement for {aligned.stocks[stock[row]]} "
                            f"on {aligned.calendar[t[row]]}")
        if not stock.size:
            warnings.warn(f"split {name!r} has no retained examples", EmptySplitWarning,
                          stacklevel=2)
        splits[name] = SplitArrays(labels[stock, a], stock.astype(np.int32), t.astype(np.int32))
    return DatasetArtifact(aligned.stocks, aligned.calendar, adj, feats, spec.lag, **splits)
