"""End-of-day market data pipeline.

Raw per-stock price rows go through four stages: ingestion (CSV ->
validated, date-sorted series), trading-day alignment (intersection
calendar across stocks), feature computation (11 price ratios per day),
and labeling/windowing (lag windows with next-day movement labels,
partitioned into temporal train/val/test splits).

All prices are taken as given; adjusted close is used for movement
labels and moving averages, raw close for the close-to-close return.
"""

from __future__ import annotations

import csv
import datetime as dt
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    ContractError,
    DataError,
    EmptySplitWarning,
    MarketSemanticsWarning,
    NumericError,
    ParseError,
    WindowError,
)

CSV_COLUMNS = ("stock", "date", "open", "high", "low", "close", "adj_close", "volume")

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

SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class EodRecord:
    """One trading day of raw prices for one stock."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: float


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
    """Result of trading-day alignment."""

    calendar: list[dt.date]
    series: dict[str, list[EodRecord]]
    dropped: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SplitArrays:
    """One split in columnar form: row i of every array is one labeled
    lag window.  ``windows[i, j]`` is the feature vector of the j-th
    oldest day; the last row belongs to the anchor day."""

    windows: np.ndarray     # (n, lag, FEATURE_DIM) float64
    labels: np.ndarray      # (n,) int8, +1 or -1
    movement: np.ndarray    # (n,) float64, next-day adjusted-close change
    stock_idx: np.ndarray   # (n,) int32, position in the sorted stock list
    anchor_idx: np.ndarray  # (n,) int32, calendar index of the anchor day

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @classmethod
    def concat(cls, parts: Sequence["SplitArrays"], lag: int) -> "SplitArrays":
        if not parts:
            return cls(
                windows=np.zeros((0, lag, FEATURE_DIM), dtype=np.float64),
                labels=np.zeros((0,), dtype=np.int8),
                movement=np.zeros((0,), dtype=np.float64),
                stock_idx=np.zeros((0,), dtype=np.int32),
                anchor_idx=np.zeros((0,), dtype=np.int32),
            )
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


@dataclass(frozen=True)
class DatasetSplits:
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


def _parse_row(row: dict, path: str, line_no: int) -> tuple[str, EodRecord]:
    stock = (row.get("stock") or "").strip()
    if not stock:
        raise ParseError(f"{path}:{line_no}: empty stock id")
    try:
        date = dt.date.fromisoformat(row["date"].strip())
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"{path}:{line_no}: bad date {row.get('date')!r}: {exc}") from exc
    values = {}
    for col in ("open", "high", "low", "close", "adj_close", "volume"):
        try:
            values[col] = float(row[col])
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"{path}:{line_no}: column {col!r} is not a number: {row.get(col)!r}"
            ) from exc
    for col in ("open", "high", "low", "close", "adj_close"):
        if not np.isfinite(values[col]) or values[col] <= 0.0:
            raise DataError(
                f"{path}:{line_no}: non-positive {col}={values[col]} for {stock} on {date}"
            )
    if not np.isfinite(values["volume"]) or values["volume"] < 0.0:
        raise DataError(
            f"{path}:{line_no}: negative volume={values['volume']} for {stock} on {date}"
        )
    return stock, EodRecord(date=date, **values)


def _read_csv(path: Path, into: dict[str, list[EodRecord]]) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"{path}: header is missing columns {missing}")
        bad_bounds = 0
        first_bad = None
        for line_no, row in enumerate(reader, start=2):
            stock, rec = _parse_row(row, str(path), line_no)
            if rec.low > min(rec.open, rec.close) or rec.high < max(rec.open, rec.close):
                bad_bounds += 1
                first_bad = first_bad or line_no
            into.setdefault(stock, []).append(rec)
        if bad_bounds:
            warnings.warn(
                f"{path}: {bad_bounds} row(s) where low/high do not bound "
                f"open/close (first at line {first_bad})",
                MarketSemanticsWarning,
                stacklevel=3,
            )


def ingest_eod(path: str | Path) -> dict[str, list[EodRecord]]:
    """Read one CSV file (or every ``*.csv`` in a directory) into
    per-stock series, sorted by date.

    Raises ParseError for malformed rows (with file:line context),
    DataError for non-positive prices or duplicate (stock, date) pairs.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input path does not exist: {path}")
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise DataError(f"no .csv files under {path}")

    series: dict[str, list[EodRecord]] = {}
    for f in files:
        _read_csv(f, series)

    out: dict[str, list[EodRecord]] = {}
    for stock in sorted(series):
        records = sorted(series[stock], key=lambda r: r.date)
        for prev, cur in zip(records, records[1:]):
            if prev.date == cur.date:
                raise DataError(f"duplicate date {cur.date} for stock {stock}")
        out[stock] = records
    return out


def align_trading_days(
    series_by_stock: dict[str, list[EodRecord]],
    min_coverage: float = 0.98,
) -> AlignedData:
    """Restrict every stock to the dates present in all stocks.

    Stocks covering less than ``min_coverage`` of the union of dates are
    dropped before intersecting, so one patchy series cannot wipe out
    the calendar.  Raises AlignmentError when nothing survives.
    """
    if not series_by_stock:
        raise ContractError("align_trading_days needs at least one stock series")

    dates_by_stock = {s: {r.date for r in recs} for s, recs in series_by_stock.items()}
    union: set[dt.date] = set()
    for dates in dates_by_stock.values():
        union |= dates

    kept = [s for s, d in sorted(dates_by_stock.items()) if len(d) >= min_coverage * len(union)]
    dropped = [s for s in sorted(dates_by_stock) if s not in set(kept)]
    if not kept:
        raise AlignmentError(
            f"all {len(series_by_stock)} stocks fall below coverage ratio {min_coverage}"
        )

    common = set.intersection(*(dates_by_stock[s] for s in kept))
    if not common:
        raise AlignmentError("no trading day is shared by all retained stocks")
    calendar = sorted(common)

    aligned = {
        s: [r for r in series_by_stock[s] if r.date in common] for s in kept
    }
    return AlignedData(calendar=calendar, series=aligned, dropped=dropped)


def compute_features(series: Sequence[EodRecord], t: int) -> np.ndarray:
    """Compute the 11 feature ratios for day index ``t`` of one series.

    In FEATURE_NAMES order:

      c_open      open_t / close_t - 1        (c_high, c_low likewise)
      n_close     close_t / close_{t-1} - 1
      n_adj_close adj_close_t / adj_close_{t-1} - 1
      k-day       (mean of adj_close over last k days) / adj_close_t - 1
                  for k in 5, 10, 15, 20, 25, 30

    Requires MIN_HISTORY days up to and including ``t``.
    """
    if t >= len(series):
        raise WindowError(f"day index {t} out of range for series of length {len(series)}")
    if t < MIN_HISTORY - 1:
        raise WindowError(
            f"day index {t} has only {t + 1} days of history, need {MIN_HISTORY}"
        )
    rec, prev = series[t], series[t - 1]
    feats = [
        rec.open / rec.close - 1.0,
        rec.high / rec.close - 1.0,
        rec.low / rec.close - 1.0,
        rec.close / prev.close - 1.0,
        rec.adj_close / prev.adj_close - 1.0,
    ]
    for k in MOVING_AVERAGE_DAYS:
        avg = sum(series[t - i].adj_close for i in range(k)) / k
        feats.append(avg / rec.adj_close - 1.0)
    out = np.array(feats, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite feature at day index {t}")
    return out


def label_and_window(aligned: AlignedData, spec: SplitSpec) -> DatasetSplits:
    """Build labeled lag windows and assign them to splits.

    The movement percent of an anchor day is the next trading day's
    adjusted-close change; windows strictly between the thresholds are
    discarded everywhere (they exist in no split).  Rows are ordered by
    stock (sorted), then anchor day.  An empty split is a warning, not
    an error.
    """
    parts: dict[str, list[SplitArrays]] = {name: [] for name in SPLIT_NAMES}
    bounds = [d.toordinal() for d in (spec.train_end, spec.val_end, spec.test_end)]
    first_anchor = MIN_HISTORY - 1 + spec.lag - 1
    for s_idx, stock in enumerate(sorted(aligned.series)):
        records = aligned.series[stock]
        n = len(records)
        if n < first_anchor + 2:
            continue
        feats = np.full((n, FEATURE_DIM), np.nan)
        for t in range(MIN_HISTORY - 1, n):
            feats[t] = compute_features(records, t)
        t = np.arange(first_anchor, n - 1)
        adj = np.array([r.adj_close for r in records], dtype=np.float64)
        movement = adj[t + 1] / adj[t] - 1.0
        labels = np.where(movement >= spec.pos_threshold, 1,
                          np.where(movement <= spec.neg_threshold, -1, 0)).astype(np.int8)
        # 0 train, 1 val, 2 test, 3 past the test end (half-open intervals)
        bucket = np.searchsorted(bounds, [records[i].date.toordinal() for i in t], side="right")
        for b, name in enumerate(SPLIT_NAMES):
            keep = (bucket == b) & (labels != 0)
            if not keep.any():
                continue
            anchors = t[keep]
            parts[name].append(
                SplitArrays(
                    windows=feats[anchors[:, None] + np.arange(1 - spec.lag, 1)],
                    labels=labels[keep],
                    movement=movement[keep],
                    stock_idx=np.full(anchors.size, s_idx, dtype=np.int32),
                    anchor_idx=anchors.astype(np.int32),
                )
            )
    splits = DatasetSplits(**{name: SplitArrays.concat(parts[name], spec.lag)
                              for name in SPLIT_NAMES})
    for name in SPLIT_NAMES:
        if not len(getattr(splits, name)):
            warnings.warn(f"split {name!r} has no retained examples", EmptySplitWarning,
                          stacklevel=2)
    return splits
