import datetime as dt

import numpy as np
import pytest

from advalstm.market_data import EodRecord
from advalstm.model import ModelDims, init_params
from advalstm.synthetic import make_regime_examples


@pytest.fixture
def small_dims() -> ModelDims:
    return ModelDims(feat_dim=11, map_size=4, hidden_size=4, att_size=4)


@pytest.fixture
def small_params(small_dims):
    return init_params(small_dims, np.random.default_rng(42))


@pytest.fixture
def small_batch():
    x, y = make_regime_examples(16, lag=3, seed=5)
    return x, y


def flat_series(n: int, price: float = 10.0, start: dt.date = dt.date(2020, 1, 1)):
    """n days of a constant-price stock."""
    return [
        EodRecord(
            date=start + dt.timedelta(days=i),
            open=price,
            high=price,
            low=price,
            close=price,
            adj_close=price,
            volume=1000.0,
        )
        for i in range(n)
    ]


def series_from_closes(closes, start: dt.date = dt.date(2020, 1, 1)):
    """A series whose open/high/low/close/adj_close all equal the given values."""
    return [
        EodRecord(
            date=start + dt.timedelta(days=i),
            open=float(c),
            high=float(c),
            low=float(c),
            close=float(c),
            adj_close=float(c),
            volume=1000.0,
        )
        for i, c in enumerate(closes)
    ]


def price_rows(series) -> np.ndarray:
    """(n_days, 5) open/high/low/close/adj_close of a list of records."""
    return np.array([[r.open, r.high, r.low, r.close, r.adj_close] for r in series])
