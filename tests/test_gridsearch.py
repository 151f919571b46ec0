from dataclasses import replace

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

    @pytest.mark.parametrize("axis, values, repeated", [
        ("hidden_sizes", (4, 8, 4), "4"), ("lags", (2, 2), "2"),
        ("l2_coefs", (0.1, float("0.10")), "0.1"), ("adv_weights", (0.0, 0.5, 0.5), "0.5"),
        ("adv_scales", (0.01, 0.1, 0.01), "0.01"),
    ])
    def test_repeated_axis_value_rejected(self, axis, values, repeated):
        with pytest.raises(ContractError, match=rf"{axis} repeats the value {repeated}$"):
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
        for cell, (args, _, trained) in zip(result.cells, runs):
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


def scripted_search(monkeypatch, grid, acc_of):
    """Run grid_search with each cell's accuracy given by ``acc_of(cell)``;
    returns the result and the training mode each cell ran in."""
    modes = []

    def fake_evaluate_cell(data_for_lag, base, cell):
        modes.append(base.mode)
        return replace(cell, val_acc=acc_of(cell), val_mcc=0.0)

    monkeypatch.setattr(gridsearch, "_evaluate_cell", fake_evaluate_cell)
    return grid_search(grid, easy_data_for_lag, BASE), modes


class TestSelectionRules:
    GRID = GridSpec(hidden_sizes=(4, 8, 16), lags=(2, 3, 5), l2_coefs=(0.001, 0.1, 1.0),
                    adv_weights=(0.01, 0.1, 1.0), adv_scales=(0.001, 0.01, 0.1))

    @pytest.mark.parametrize("accs, winner", [
        # accuracy first, even for the largest cell
        ({(16, 5, 1.0): 60.0}, (16, 5, 1.0)),
        # equal accuracy: the smaller U wins despite a larger T and lambda
        ({(8, 2, 0.001): 60.0, (4, 5, 1.0): 60.0}, (4, 5, 1.0)),
        # equal accuracy and U: the smaller T wins despite a larger lambda
        ({(8, 5, 0.001): 60.0, (8, 3, 1.0): 60.0}, (8, 3, 1.0)),
        # equal accuracy, U and T: the smaller lambda wins
        ({(16, 3, 1.0): 60.0, (16, 3, 0.1): 60.0}, (16, 3, 0.1)),
    ])
    def test_stage1_orders_by_accuracy_then_u_t_lambda(self, monkeypatch, accs, winner):
        def acc_of(cell):
            return accs.get((cell.hidden_size, cell.lag, cell.l2_coef), 50.0)

        result, modes = scripted_search(monkeypatch, self.GRID, acc_of)
        s1 = result.best_stage1
        assert (s1.hidden_size, s1.lag, s1.l2_coef) == winner
        assert s1.val_acc == 60.0
        stage2 = result.cells[27:]
        assert modes == ["normal"] * 27 + ["adversarial"] * 9
        assert all((c.hidden_size, c.lag, c.l2_coef) == winner for c in stage2)

    @pytest.mark.parametrize("accs, winner", [
        ({(1.0, 0.1): 70.0}, (1.0, 0.1)),
        # equal accuracy: the smaller beta wins despite a larger epsilon
        ({(0.1, 0.001): 70.0, (0.01, 0.1): 70.0}, (0.01, 0.1)),
        # equal accuracy and beta: the smaller epsilon wins
        ({(1.0, 0.1): 70.0, (1.0, 0.01): 70.0}, (1.0, 0.01)),
    ])
    def test_stage2_prefers_smaller_beta_then_epsilon(self, monkeypatch, accs, winner):
        def acc_of(cell):
            return accs.get((cell.adv_weight, cell.adv_scale), 50.0)

        result, _ = scripted_search(monkeypatch, self.GRID, acc_of)
        assert (result.best.adv_weight, result.best.adv_scale) == winner
        assert result.best is result.best_stage2
        assert result.best.val_acc == 70.0
