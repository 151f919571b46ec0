"""Indicator baselines over adjusted close prices.

Momentum predicts that the sign of the last ``window``-day move
continues; mean reversion predicts a move back toward the trailing
``window``-day average.  Both emit +1 on ties so every prediction is a
valid label, and both depend only on price ratios, so rescaling a
series leaves the predictions unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, WindowError
from .market_data import gather_windows


@dataclass(frozen=True)
class IndicatorConfig:
    mom_window: int = 10
    mr_window: int = 30

    def __post_init__(self):
        if self.mom_window < 2:
            raise ContractError(f"mom_window must be >= 2, got {self.mom_window}")
        if self.mr_window < 2:
            raise ContractError(f"mr_window must be >= 2, got {self.mr_window}")


def _trailing(adj_close, stock, t, days: int, what: str) -> np.ndarray:
    """Row i: stock ``stock[i]``'s adjusted closes over the ``days`` days
    ending at day ``t[i]``; WindowError where day ``t[i]`` has fewer."""
    adj_close = np.asarray(adj_close, dtype=np.float64)
    t = np.asarray(t)
    short = t[(t < days - 1) | (t >= adj_close.shape[1])]
    if short.size:
        raise WindowError(
            f"{what} at index {short[0]} needs {days - 1} prior days "
            f"in a series of length {adj_close.shape[1]}"
        )
    return gather_windows(adj_close, np.asarray(stock), t, days)


def mom_predict(adj_close: np.ndarray, stock, t, window: int) -> np.ndarray:
    """Per row, +1 if stock ``stock[i]`` rose over the ``window`` days up
    to day ``t[i]``, else -1.  ``adj_close`` is (n_stocks, n_days)."""
    block = _trailing(adj_close, stock, t, window + 1, "momentum")
    return np.where(block[:, -1] >= block[:, 0], 1, -1)


def mr_predict(adj_close: np.ndarray, stock, t, window: int) -> np.ndarray:
    """Per row, -1 if stock ``stock[i]`` sits above its trailing
    ``window``-day mean on day ``t[i]``, else +1."""
    block = _trailing(adj_close, stock, t, window, "mean reversion")
    return np.where(block[:, -1] <= block.mean(axis=1), 1, -1)
