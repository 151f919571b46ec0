"""Independent numerical oracles shared by the tests.

The finite-difference gradient here is deliberately dumb: central
differences on the flattened parameter vector, one coordinate at a
time.  It shares no code with the analytic backward pass it checks.
The feature oracle likewise computes one stock-day at a time from the
definition, sharing no code with the panel computation, and the ingest
oracle reads CSVs one dict per row, sharing no code with the columnar
ingest.  The price-CSV oracle is the synthetic generator as first
written: one ``np.exp`` and one ``csv.writer`` row per stock-day.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
import warnings
from pathlib import Path

import numpy as np

from advalstm.errors import DataError, MarketSemanticsWarning, ParseError
from advalstm.market_data import CSV_COLUMNS
from advalstm.model import ModelDims, ParamSet, init_params

FD_STEP = 1e-5
REL_TOL = 1e-4


def finite_difference_gradient(
    fn, params: ParamSet, step: float = FD_STEP, coords=None
) -> np.ndarray:
    """Central-difference gradient of a scalar function of the parameters,
    at the flat-vector indices ``coords`` (every index when None)."""
    vec = params.to_vector()
    coords = range(vec.size) if coords is None else coords
    out = np.empty(len(coords))
    for k, i in enumerate(coords):
        up = vec.copy()
        up[i] += step
        down = vec.copy()
        down[i] -= step
        out[k] = (fn(params.from_vector(up)) - fn(params.from_vector(down))) / (2.0 * step)
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, atol: float = 0.0) -> float:
    """Largest relative error, after forgiving ``atol`` of absolute error."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max((np.abs(analytic - numeric) - atol) / denom))


def wide_inputs(rng):
    """(params, x, atol) at hidden 32, lag 3: a single window and a batch
    of 4.  At this width the 2-D attention projection is not bit-identical
    to a batched one.  Some of these gradients are near 3e-8, where the
    central difference's own error (about 1e-10 at this width, with or
    without the 2-D projections) is a relative error far above 1e-6, so
    1e-10 of absolute error is forgiven."""
    params = init_params(ModelDims(feat_dim=11, map_size=32, hidden_size=32), rng)
    return [(params, rng.standard_normal(shape), 1e-10) for shape in ((3, 11), (4, 3, 11))]


def margins_clear_of_kink(y: np.ndarray, yhat: np.ndarray, gap: float = 1e-3) -> bool:
    """True when no example sits within ``gap`` of the hinge kink, where
    the loss is not differentiable and finite differences are unreliable."""
    return bool(np.all(np.abs(y * np.asarray(yhat) - 1.0) > gap))


def feature_oracle(rows, t: int) -> np.ndarray:
    """The 11 features of day ``t`` of one stock, from its price rows
    (open, high, low, close, adj_close), in FEATURE_NAMES order."""
    if not 29 <= t < len(rows):
        raise ValueError(f"day {t} needs 30 days of history in {len(rows)} rows")
    open_, high, low, close, adj = np.asarray(rows, dtype=np.float64).T.tolist()
    feats = [
        open_[t] / close[t] - 1.0,
        high[t] / close[t] - 1.0,
        low[t] / close[t] - 1.0,
        close[t] / close[t - 1] - 1.0,
        adj[t] / adj[t - 1] - 1.0,
    ]
    for k in (5, 10, 15, 20, 25, 30):
        avg = sum(adj[t - i] for i in range(k)) / k
        feats.append(avg / adj[t] - 1.0)
    return np.array(feats)


def _oracle_row(row: dict, path: str, line_no: int):
    stock = (row.get("stock") or "").strip()
    if not stock:
        raise ParseError(f"{path}:{line_no}: empty stock id")
    try:
        text = row["date"].strip()
        date = dt.date.fromisoformat(text)
        if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", text, flags=re.ASCII):
            raise ValueError(f"Invalid isoformat string: {text!r}")  # Python 3.10's wording
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
    return stock, date, values


def ingest_oracle(path) -> dict[str, tuple[list[int], np.ndarray]]:
    """Per-row reference for ``market_data.ingest_eod``: one
    csv.DictReader dict and one check per row, then a per-stock sort and
    a pairwise duplicate scan.  It follows the ingest contract (UTF-8
    with an optional BOM, dates exactly YYYY-MM-DD, an error when no
    file holds a data row).  Returns {stock: (date ordinals, (n, 5)
    open/high/low/close/adj_close)} in sorted stock order."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input path does not exist: {path}")
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise DataError(f"no .csv files under {path}")
    series: dict[str, list] = {}
    for f in files:
        with open(f, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ParseError(f"{f}: empty file")
            missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise ParseError(f"{f}: header is missing columns {missing}")
            bad_bounds, first_bad = 0, None
            for line_no, row in enumerate(reader, start=2):
                stock, date, v = _oracle_row(row, str(f), line_no)
                if v["low"] > min(v["open"], v["close"]) or v["high"] < max(v["open"], v["close"]):
                    bad_bounds += 1
                    first_bad = first_bad or line_no
                prices = [v[c] for c in ("open", "high", "low", "close", "adj_close")]
                series.setdefault(stock, []).append((date, prices))
        if bad_bounds:
            warnings.warn(f"{f}: {bad_bounds} row(s) where low/high do not bound "
                          f"open/close (first at line {first_bad})", MarketSemanticsWarning)
    if not series:
        raise DataError(f"no data rows found under {path}")
    out = {}
    for stock in sorted(series):
        records = sorted(series[stock], key=lambda r: r[0])
        for prev, cur in zip(records, records[1:]):
            if prev[0] == cur[0]:
                raise DataError(f"duplicate date {cur[0]} for stock {stock}")
        out[stock] = ([d.toordinal() for d, _ in records],
                      np.array([p for _, p in records], dtype=np.float64).reshape(-1, 5))
    return out


def regime_price_csv_oracle(
    out_dir,
    n_stocks: int = 4,
    n_days: int = 120,
    seed: int = 0,
    drift: float = 0.01,
    vol: float = 0.004,
    switch_prob: float = 0.05,
    start_date: dt.date = dt.date(2020, 1, 1),
) -> list[str]:
    """Per-row reference for ``synthetic.write_regime_price_csv``, whose
    bytes must match it exactly: the same draws in the same order, one
    ``np.exp`` per day and one ``csv.writer.writerow`` per line."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    dates = [start_date + dt.timedelta(days=i) for i in range(n_days)]
    symbols = [f"SYN{i:02d}" for i in range(n_stocks)]
    for symbol in symbols:
        regime = 1.0 if rng.random() < 0.5 else -1.0
        log_price = float(np.log(20.0 + 80.0 * rng.random()))
        closes = np.empty(n_days)
        for d in range(n_days):
            closes[d] = np.exp(log_price)
            if rng.random() < switch_prob:
                regime = -regime
            log_price += regime * drift + vol * rng.standard_normal()
        opens = np.empty(n_days)
        opens[0] = closes[0] * (1.0 + 0.002 * rng.standard_normal())
        opens[1:] = closes[:-1]
        spread = 1.0 + np.abs(0.003 * rng.standard_normal(n_days))
        highs = np.maximum(opens, closes) * spread
        lows = np.minimum(opens, closes) / spread
        volumes = rng.integers(100_000, 5_000_000, size=n_days)
        with open(out_dir / f"{symbol}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for d in range(n_days):
                writer.writerow(
                    [
                        symbol,
                        dates[d].isoformat(),
                        repr(float(opens[d])),
                        repr(float(highs[d])),
                        repr(float(lows[d])),
                        repr(float(closes[d])),
                        repr(float(closes[d])),
                        int(volumes[d]),
                    ]
                )
    return symbols
