import datetime as dt
import multiprocessing

import numpy as np
import pytest

from advalstm.market_data import PRICE_COLUMNS, EodSeries
from advalstm.model import ModelDims, init_params
from advalstm.synthetic import make_regime_examples


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """A worker pool that outlives its call would hang a later run."""
    yield
    assert multiprocessing.active_children() == []


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
    return series_from_closes([price] * n, start)


def series_from_closes(closes, start: dt.date = dt.date(2020, 1, 1)):
    """A series whose open/high/low/close/adj_close all equal the given values."""
    closes = np.asarray(closes, dtype=np.float64)
    dates = start.toordinal() + np.arange(len(closes), dtype=np.int64)
    return EodSeries(dates=dates, prices=np.repeat(closes[:, None], len(PRICE_COLUMNS), axis=1))


def price_rows(series) -> np.ndarray:
    """(n_days, 5) open/high/low/close/adj_close of a series."""
    return series.prices
