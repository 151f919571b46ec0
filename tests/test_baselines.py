import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advalstm.baselines import IndicatorConfig, mom_predict, mr_predict
from advalstm.errors import ContractError, WindowError


def one_row(predict, adj, t, window):
    """``predict`` on the single row (stock 0, anchor t) of a one-stock panel."""
    return predict(np.asarray(adj)[None], np.array([0]), np.array([t]), window).tolist()


class TestConfig:
    def test_windows_must_be_at_least_two(self):
        with pytest.raises(ContractError):
            IndicatorConfig(mom_window=1)
        with pytest.raises(ContractError):
            IndicatorConfig(mr_window=0)
        IndicatorConfig(mom_window=2, mr_window=2)

    @pytest.mark.parametrize("predict", [mom_predict, mr_predict])
    def test_window_default_lives_only_on_the_config(self, predict):
        with pytest.raises(TypeError, match="window"):
            predict(np.ones((1, 40)), np.array([0]), np.array([35]))


class TestMomentum:
    def test_rising_series(self):
        adj = np.linspace(10, 20, 15)
        assert one_row(mom_predict, adj, 12, 10) == [1]

    def test_falling_series(self):
        adj = np.linspace(20, 10, 15)
        assert one_row(mom_predict, adj, 12, 10) == [-1]

    def test_flat_tie_goes_positive(self):
        assert one_row(mom_predict, np.full(15, 7.0), 12, 10) == [1]

    def test_only_endpoints_matter(self):
        adj = np.array([10.0, 99.0, 1.0, 99.0, 1.0, 12.0])
        assert one_row(mom_predict, adj, 5, 5) == [1]
        adj[5] = 9.0
        assert one_row(mom_predict, adj, 5, 5) == [-1]

    def test_window_errors(self):
        adj = np.full(15, 7.0)
        with pytest.raises(WindowError):
            one_row(mom_predict, adj, 9, 10)
        with pytest.raises(WindowError):
            one_row(mom_predict, adj, 15, 10)
        one_row(mom_predict, adj, 10, 10)


class TestMeanReversion:
    def test_price_above_mean_predicts_down(self):
        adj = np.array([1.0, 1.0, 4.0])  # mean 2, current 4
        assert one_row(mr_predict, adj, 2, 3) == [-1]

    def test_price_below_mean_predicts_up(self):
        adj = np.array([4.0, 1.0, 1.0])  # mean 2, current 1
        assert one_row(mr_predict, adj, 2, 3) == [1]

    def test_flat_tie_goes_positive(self):
        assert one_row(mr_predict, np.full(40, 3.0), 35, 30) == [1]

    def test_window_errors(self):
        adj = np.full(40, 3.0)
        with pytest.raises(WindowError):
            one_row(mr_predict, adj, 28, 30)
        with pytest.raises(WindowError):
            one_row(mr_predict, adj, 40, 30)
        one_row(mr_predict, adj, 29, 30)


@settings(max_examples=60, deadline=None)
@given(
    prices=st.lists(st.floats(min_value=0.5, max_value=500.0), min_size=31, max_size=60),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_scale_invariance(prices, scale):
    adj = np.asarray(prices)
    t = len(prices) - 1
    # ties can legitimately resolve differently after float rescaling,
    # so only assert when the comparison has real margin
    if abs(adj[t] - adj[t - 10]) > 1e-9 * adj[t]:
        assert one_row(mom_predict, adj, t, 10) == one_row(mom_predict, adj * scale, t, 10)
    if abs(adj[t] - np.mean(adj[t - 29 : t + 1])) > 1e-9 * adj[t]:
        assert one_row(mr_predict, adj, t, 30) == one_row(mr_predict, adj * scale, t, 30)


def test_rows_match_per_row_definition():
    rng = np.random.default_rng(0)
    adj = rng.uniform(5.0, 15.0, (3, 50))
    stock = rng.integers(0, 3, 40)
    t = rng.integers(30, 50, 40)
    rows = list(zip(stock.tolist(), t.tolist()))
    assert mom_predict(adj, stock, t, 10).tolist() == [
        1 if adj[s, d] - adj[s, d - 10] >= 0 else -1 for s, d in rows
    ]
    assert mr_predict(adj, stock, t, 30).tolist() == [
        1 if adj[s, d] - np.mean(adj[s, d - 29 : d + 1]) <= 0 else -1 for s, d in rows
    ]
