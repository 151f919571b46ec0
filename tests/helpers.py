"""Independent numerical oracles shared by the tests.

The finite-difference gradient here is deliberately dumb: central
differences on the flattened parameter vector, one coordinate at a
time.  It shares no code with the analytic backward pass it checks.
The feature oracle likewise computes one stock-day at a time from the
definition, sharing no code with the panel computation.
"""

from __future__ import annotations

import numpy as np

from advalstm.model import ParamSet

FD_STEP = 1e-5
REL_TOL = 1e-4


def finite_difference_gradient(fn, params: ParamSet, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of the parameters."""
    vec = params.to_vector()
    out = np.empty_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += step
        down = vec.copy()
        down[i] -= step
        out[i] = (fn(params.from_vector(up)) - fn(params.from_vector(down))) / (2.0 * step)
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


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
