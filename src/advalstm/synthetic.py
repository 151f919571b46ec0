"""Synthetic data for tests and demos.

Two generators: labeled feature windows drawn from a two-regime
Gaussian process (for desk-scale training experiments), and raw
price CSVs with regime-switching drift (for exercising the full
ingest -> features -> labels pipeline end to end).  The price CSVs'
bytes are a contract: their draw order, one ``np.exp`` per stock and
``csv.writer``'s default dialect (see ``write_regime_price_csv``).
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

from .errors import ContractError
from .market_data import CSV_COLUMNS, FEATURE_DIM


def make_regime_examples(
    n: int,
    lag: int = 5,
    seed: int = 0,
    label_noise: float = 0.1,
    feat_dim: int = FEATURE_DIM,
    signal: float = 0.6,
    noise: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Windows whose rows drift along a fixed direction, up or down.

    Each example belongs to one of two regimes (+1 drifts along the
    signal direction, -1 against it); the drift strengthens toward the
    last step of the window, so recent rows are the informative ones.
    Labels equal the regime, flipped with probability ``label_noise``.
    Returns (windows (n, lag, feat_dim) float64, labels (n,) +-1).
    """
    if n < 1 or lag < 1 or feat_dim < 1:
        raise ContractError("n, lag, and feat_dim must all be >= 1")
    if not 0.0 <= label_noise < 0.5:
        raise ContractError(f"label_noise must be in [0, 0.5), got {label_noise}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(feat_dim)
    direction /= np.linalg.norm(direction)
    regime = rng.choice(np.array([-1.0, 1.0]), size=n)
    ramp = np.linspace(0.2, 1.0, lag)
    mean = regime[:, None, None] * ramp[None, :, None] * (signal * direction)
    x = mean + noise * rng.standard_normal((n, lag, feat_dim))
    flip = rng.random(n) < label_noise
    y = np.where(flip, -regime, regime)
    return x, y


def write_regime_price_csv(
    out_dir: str | Path,
    n_stocks: int = 4,
    n_days: int = 120,
    seed: int = 0,
    drift: float = 0.01,
    vol: float = 0.004,
    switch_prob: float = 0.05,
    start_date: dt.date = dt.date(2020, 1, 1),
) -> list[str]:
    """Write one end-of-day price CSV per synthetic stock; returns the symbols.

    Prices follow a log random walk whose drift flips sign at regime
    switches, so next-day moves usually clear the labeling thresholds.
    High/low always bracket open/close, and adjusted close equals close.

    The bytes are a contract: datasets, checkpoints and benchmark inputs
    are built from them.  One generator serves the stocks in turn,
    drawing for each the regime, the start price, then a switch draw and
    a shock per day as scalars (the normal sampler takes a variable
    number of draws, so a vector draw would consume the stream
    differently), then the first open's noise, the day spreads and the
    volumes.  Log prices are summed in Python floats and exponentiated
    by one ``np.exp`` per stock.  Prices are ``repr`` of Python floats,
    in lines of ``csv.writer``'s default dialect (``,`` and ``\\r\\n``),
    which no generated field needs quoting in.
    """
    if n_stocks < 1 or n_days < 2:
        raise ContractError("need at least 1 stock and 2 days")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    dates = [(start_date + dt.timedelta(days=i)).isoformat() for i in range(n_days)]
    header = ",".join(CSV_COLUMNS) + "\r\n"
    symbols = [f"SYN{i:02d}" for i in range(n_stocks)]
    for symbol in symbols:
        regime = 1.0 if rng.random() < 0.5 else -1.0
        log_price = float(np.log(20.0 + 80.0 * rng.random()))
        log_prices = []
        for _ in range(n_days):
            log_prices.append(log_price)
            if rng.random() < switch_prob:
                regime = -regime
            log_price += regime * drift + vol * rng.standard_normal()
        closes = np.exp(log_prices)
        opens = np.empty(n_days)
        opens[0] = closes[0] * (1.0 + 0.002 * rng.standard_normal())
        opens[1:] = closes[:-1]
        spread = 1.0 + np.abs(0.003 * rng.standard_normal(n_days))
        highs = np.maximum(opens, closes) * spread
        lows = np.minimum(opens, closes) / spread
        volumes = rng.integers(100_000, 5_000_000, size=n_days)
        close_text = list(map(repr, closes.tolist()))
        open_text = [repr(float(opens[0])), *close_text[:-1]]
        rows = zip(dates, open_text, map(repr, highs.tolist()), map(repr, lows.tolist()),
                   close_text, volumes.tolist())
        body = "".join(f"{symbol},{d},{o},{h},{lo},{c},{c},{v}\r\n" for d, o, h, lo, c, v in rows)
        (out_dir / f"{symbol}.csv").write_text(header + body, newline="")
    return symbols
