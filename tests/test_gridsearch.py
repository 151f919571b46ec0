import numpy as np
import pytest

from advalstm import gridsearch
from advalstm.errors import ContractError
from advalstm.evaluation import accuracy, mcc
from advalstm.gridsearch import GridSpec, grid_search
from advalstm.model import classify, predict
from advalstm.synthetic import make_regime_examples
from advalstm.training import TrainConfig


def easy_data_for_lag(lag):
    x, y = make_regime_examples(80, lag=lag, seed=3, label_noise=0.0,
                                signal=2.5, noise=0.25)
    return x[:48], y[:48], x[48:], y[48:]


BASE = TrainConfig(epochs=6, batch_size=16, seed=0, patience=0,
                   learning_rate=0.05, adv_weight=0.01, adv_scale=0.01)


class TestSpec:
    def test_default_cell_count(self):
        grid = GridSpec()
        # stage one: 4 sizes x 6 lags x 4 weights; stage two: 7 x 5
        assert grid.cell_count() == 96 + 35 == 131

    def test_empty_axis_rejected(self):
        with pytest.raises(ContractError):
            GridSpec(hidden_sizes=())

    @pytest.mark.parametrize("axis, values", [
        ("hidden_sizes", (4, 0)), ("lags", (0,)), ("l2_coefs", (0.01, -1.0)),
        ("adv_weights", (-0.1,)), ("adv_scales", (-0.01,)),
    ])
    def test_out_of_range_axis_rejected(self, axis, values):
        with pytest.raises(ContractError, match=axis):
            GridSpec(**{axis: values})


class TestSearch:
    def test_single_cell_grid(self):
        grid = GridSpec(hidden_sizes=(4,), lags=(3,), l2_coefs=(0.01,),
                        adv_weights=(0.1,), adv_scales=(0.05,))
        result = grid_search(grid, easy_data_for_lag, BASE)
        assert len(result.cells) == 2
        s1, s2 = result.cells
        assert (s1.adv_weight, s1.adv_scale) == (0.0, 0.0)
        assert (s2.adv_weight, s2.adv_scale) == (0.1, 0.05)
        assert result.best_stage1 == s1
        assert result.best is result.best_stage2

    def test_cell_count_matches_spec(self):
        grid = GridSpec(hidden_sizes=(4, 8), lags=(2, 3), l2_coefs=(0.01,),
                        adv_weights=(0.01, 0.1), adv_scales=(0.01,))
        result = grid_search(grid, easy_data_for_lag, BASE)
        assert len(result.cells) == grid.cell_count() == 6

    def test_stage2_fixes_stage1_winner(self):
        grid = GridSpec(hidden_sizes=(4, 8), lags=(2, 4), l2_coefs=(0.01, 0.1),
                        adv_weights=(0.01, 0.1), adv_scales=(0.01,))
        result = grid_search(grid, easy_data_for_lag, BASE)
        s1 = result.best_stage1
        for cell in result.cells[-2:]:
            assert cell.hidden_size == s1.hidden_size
            assert cell.lag == s1.lag
            assert cell.l2_coef == s1.l2_coef

    def test_ties_prefer_smaller_values(self):
        # easily separable data drives every cell to identical validation
        # accuracy, so the tie-break order decides the winner
        grid = GridSpec(hidden_sizes=(4, 8), lags=(2, 3), l2_coefs=(0.001, 0.01),
                        adv_weights=(0.01, 0.1), adv_scales=(0.01, 0.05))
        result = grid_search(grid, easy_data_for_lag, BASE)
        stage1 = result.cells[: grid.cell_count() - 4]
        accs = {c.val_acc for c in stage1}
        if len(accs) == 1:  # the tie actually happened
            assert result.best_stage1.hidden_size == 4
            assert result.best_stage1.lag == 2
            assert result.best_stage1.l2_coef == 0.001
        stage2 = result.cells[-4:]
        if len({c.val_acc for c in stage2}) == 1:
            assert result.best_stage2.adv_weight == 0.01
            assert result.best_stage2.adv_scale == 0.01

    def test_best_is_argmax_per_stage(self):
        grid = GridSpec(hidden_sizes=(4, 8), lags=(2,), l2_coefs=(0.01, 1.0),
                        adv_weights=(0.01,), adv_scales=(0.01, 0.1))
        result = grid_search(grid, lambda lag: noisy_data_for_lag(lag), BASE)
        stage1 = result.cells[:4]
        stage2 = result.cells[4:]
        assert result.best_stage1.val_acc == max(c.val_acc for c in stage1)
        assert result.best_stage2.val_acc == max(c.val_acc for c in stage2)

    def test_cells_score_predict_on_the_returned_params(self, monkeypatch):
        runs = []
        real_train = gridsearch.train

        def recording_train(*args, **kwargs):
            runs.append((args, kwargs, real_train(*args, **kwargs)))
            return runs[-1][2]

        monkeypatch.setattr(gridsearch, "train", recording_train)
        grid = GridSpec(hidden_sizes=(4,), lags=(2,), l2_coefs=(0.01, 1.0),
                        adv_weights=(0.01,), adv_scales=(0.01, 0.1))
        result = grid_search(grid, noisy_data_for_lag, BASE)
        assert len(runs) == len(result.cells) == 4
        for cell, (args, kwargs, trained) in zip(result.cells, runs):
            assert kwargs == {"track_train_loss": False}
            assert all(np.isnan(r.train_loss) for r in trained.history)
            x_val, y_val = args[2], args[3]
            pred = classify(predict(x_val, trained.params))
            assert (cell.val_acc, cell.val_mcc) == (accuracy(y_val, pred), mcc(y_val, pred))

    def test_callback_sees_every_cell(self):
        grid = GridSpec(hidden_sizes=(4,), lags=(2,), l2_coefs=(0.01,),
                        adv_weights=(0.01,), adv_scales=(0.01, 0.1))
        seen = []
        grid_search(grid, easy_data_for_lag, BASE, on_cell=seen.append)
        assert len(seen) == grid.cell_count()


def noisy_data_for_lag(lag):
    x, y = make_regime_examples(100, lag=lag, seed=9, label_noise=0.2,
                                signal=0.8, noise=1.0)
    return x[:60], y[:60], x[60:], y[60:]
