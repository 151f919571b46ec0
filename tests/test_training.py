import numpy as np
import pytest

from advalstm import training
from advalstm.errors import ContractError, DivergenceError, ShapeError
from advalstm.model import forward, head_forward, init_params, predict
from advalstm.synthetic import make_regime_examples
from advalstm.training import (
    AdamState,
    TrainConfig,
    adam_step,
    adversarial_perturbations,
    attacked_confidences,
    hinge_grad,
    hinge_loss,
    objective_adversarial,
    objective_adversarial_frozen,
    objective_normal,
    objective_random,
    sphere_noise,
    train,
)

from helpers import finite_difference_gradient, margins_clear_of_kink, max_relative_error


class TestHinge:
    def test_fixture_values(self):
        assert hinge_loss(1.0, 1.0) == 0.0
        assert hinge_loss(1.0, 0.5) == 0.5
        assert hinge_loss(-1.0, 0.5) == 1.5
        assert hinge_loss(1.0, 3.0) == 0.0
        assert hinge_loss(-1.0, -3.0) == 0.0

    def test_subgradient(self):
        assert hinge_grad(1.0, 0.5) == -1.0
        assert hinge_grad(-1.0, 0.5) == 1.0
        assert hinge_grad(1.0, 2.0) == 0.0
        # at the kink the subgradient convention is 0
        assert hinge_grad(1.0, 1.0) == 0.0

    def test_labels_validated(self):
        with pytest.raises(ContractError):
            hinge_loss(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ContractError):
            hinge_grad(np.array([2.0]), np.array([1.0]))


class TestConfig:
    def test_mode_validated(self):
        with pytest.raises(ContractError):
            TrainConfig(mode="slightly_adversarial")

    def test_numeric_ranges(self):
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)
        with pytest.raises(ContractError):
            TrainConfig(adv_scale=-0.1)
        with pytest.raises(ContractError):
            TrainConfig(epochs=-1)


class TestNormalObjective:
    def test_zero_params_loss_is_batch_size(self, small_dims, small_batch):
        x, y = small_batch
        p = init_params(small_dims, np.random.default_rng(0)).zeros_like()
        loss, _ = objective_normal(x, y, p, l2_coef=0.0)
        assert loss == float(len(y))  # every hinge is exactly 1 at yhat = 0

    def test_l2_term(self, small_params, small_batch):
        x, y = small_batch
        base, _ = objective_normal(x, y, small_params, l2_coef=0.0)
        reg, _ = objective_normal(x, y, small_params, l2_coef=2.0)
        assert reg == pytest.approx(base + small_params.l2_norm_sq(), rel=1e-12)

    def test_empty_batch_rejected(self, small_params):
        with pytest.raises(ContractError):
            objective_normal(np.zeros((0, 3, 11)), np.zeros(0), small_params, 0.1)

    def test_gradcheck(self, small_params, small_batch):
        x, y = small_batch
        trace = forward(x, small_params)
        assert margins_clear_of_kink(y, trace.yhat)
        _, grads = objective_normal(x, y, small_params, 0.01, scale=2.0)

        numeric = finite_difference_gradient(
            lambda p: objective_normal(x, y, p, 0.01, scale=2.0)[0], small_params
        )
        assert max_relative_error(grads.to_vector(), numeric) < 1e-4


def fast_gradient(e, y, params, eps):
    """adversarial_perturbations on a 1-row batch: (e + r, r, mask)."""
    e = np.asarray(e, dtype=np.float64)
    r, mask = adversarial_perturbations(head_forward(e[None], params), np.array([y]), params, eps)
    return e + r[0], r[0], bool(mask[0])


class TestAdversarialGeneration:
    def test_norm_and_direction(self, small_params):
        e = np.zeros(8)
        y = 1.0
        e_adv, r, active = fast_gradient(e, y, small_params, eps=0.05)
        assert active
        assert np.linalg.norm(r) == pytest.approx(0.05, abs=1e-12)
        w = small_params.w_head
        np.testing.assert_allclose(r, -0.05 * y * w / np.linalg.norm(w), atol=1e-15)
        np.testing.assert_array_equal(e_adv, e + r)

    def test_margin_drops_by_eps_times_head_norm(self, small_params):
        rng = np.random.default_rng(1)
        w_norm = np.linalg.norm(small_params.w_head)
        for y in (-1.0, 1.0):
            e = 0.1 * rng.standard_normal(8)
            e_adv, _, _ = fast_gradient(e, y, small_params, eps=0.3)
            clean = y * head_forward(e, small_params)
            attacked = y * head_forward(e_adv, small_params)
            assert attacked == pytest.approx(clean - 0.3 * w_norm, rel=1e-12)

    def test_inactive_hinge_returns_none(self, small_params):
        # Push the representation far along +w so y=+1 has margin > 1.
        w = small_params.w_head
        e = 2.0 * w / np.dot(w, w) * (1.0 - float(small_params.b_head) + 1.0)
        assert 1.0 * head_forward(e, small_params) >= 1.0
        _, r, active = fast_gradient(e, 1.0, small_params, eps=0.1)
        assert not active
        np.testing.assert_array_equal(r, np.zeros(8))

    def test_degenerate_head_returns_none(self, small_params):
        p = small_params.copy()
        p.w_head[...] = 0.0
        p.b_head[...] = 0.0
        _, r, active = fast_gradient(np.zeros(8), 1.0, p, eps=0.1)
        assert not active
        np.testing.assert_array_equal(r, np.zeros(8))

    def test_contract_errors(self, small_params):
        with pytest.raises(ContractError):
            fast_gradient(np.zeros(8), 1.0, small_params, eps=-1.0)
        with pytest.raises(ContractError):
            fast_gradient(np.zeros(8), 0.0, small_params, eps=0.1)

    def test_batch_mask_and_rows(self, small_params, small_batch):
        x, y = small_batch
        trace = forward(x, small_params)
        r, mask = adversarial_perturbations(trace.yhat, y, small_params, eps=0.07)
        np.testing.assert_array_equal(mask, (y * trace.yhat) < 1.0)
        norms = np.linalg.norm(r, axis=-1)
        np.testing.assert_allclose(norms[mask], 0.07, atol=1e-12)
        np.testing.assert_array_equal(norms[~mask], 0.0)

    def test_linear_head_optimality(self, small_params):
        rng = np.random.default_rng(2)
        eps = 0.2
        for _ in range(20):
            e = 0.3 * rng.standard_normal(8)
            y = float(rng.choice([-1.0, 1.0]))
            e_adv, _, active = fast_gradient(e, y, small_params, eps)
            if not active:
                continue
            worst = hinge_loss(y, head_forward(e_adv, small_params))
            directions = sphere_noise((100, 8), eps, rng)
            others = hinge_loss(y, head_forward(e + directions, small_params))
            assert np.all(worst >= others - 1e-12)


class TestRandomPerturbation:
    def test_norm(self):
        rng = np.random.default_rng(0)
        e = np.zeros(6)
        out = e + sphere_noise(e.shape, 0.4, rng)
        assert np.linalg.norm(out - e) == pytest.approx(0.4, abs=1e-12)

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(0)
        e = np.array([1.0, -2.0, 3.0])
        out = e + sphere_noise(e.shape, 0.0, rng)
        np.testing.assert_array_equal(out, e)

    def test_negative_scale_rejected(self):
        with pytest.raises(ContractError):
            sphere_noise((2, 3), -0.1, np.random.default_rng(0))

    def test_sphere_mean_vanishes(self):
        rng = np.random.default_rng(3)
        eps = 0.5
        samples = sphere_noise((20000, 8), eps, rng)
        np.testing.assert_allclose(np.linalg.norm(samples, axis=1), eps, atol=1e-12)
        # E||mean||^2 = eps^2 / n, so 4/sqrt(n) is a ~4 sigma bound.
        assert np.linalg.norm(samples.mean(axis=0)) < 4.0 * eps / np.sqrt(20000)


class TestAdversarialObjective:
    def test_beta_zero_is_bitwise_normal(self, small_params, small_batch):
        x, y = small_batch
        loss_n, grads_n = objective_normal(x, y, small_params, 0.01, scale=3.0)
        loss_a, grads_a = objective_adversarial(
            x, y, small_params, 0.01, adv_weight=0.0, adv_scale=0.05, scale=3.0
        )
        assert loss_a == loss_n
        np.testing.assert_array_equal(grads_a.to_vector(), grads_n.to_vector())

    def test_frozen_matches_live_generation(self, small_params, small_batch):
        x, y = small_batch
        trace = forward(x, small_params)
        r, mask = adversarial_perturbations(trace.yhat, y, small_params, 0.05)
        live = objective_adversarial(x, y, small_params, 0.01, 0.5, 0.05)
        frozen = objective_adversarial_frozen(x, y, small_params, r, mask, 0.01, 0.5)
        assert live[0] == frozen[0]
        np.testing.assert_array_equal(live[1].to_vector(), frozen[1].to_vector())

    def test_gradcheck_frozen(self, small_params, small_batch):
        x, y = small_batch
        trace = forward(x, small_params)
        r, mask = adversarial_perturbations(trace.yhat, y, small_params, 0.05)
        yhat_adv = head_forward(trace.e + r, small_params)
        assert margins_clear_of_kink(y, trace.yhat)
        assert margins_clear_of_kink(y[mask], yhat_adv[mask])
        _, grads = objective_adversarial_frozen(x, y, small_params, r, mask, 0.01, 0.5)

        numeric = finite_difference_gradient(
            lambda p: objective_adversarial_frozen(x, y, p, r, mask, 0.01, 0.5)[0],
            small_params,
        )
        assert max_relative_error(grads.to_vector(), numeric) < 1e-4

    def test_random_objective_perturbs_every_example(self, small_params, small_batch):
        x, y = small_batch
        loss_r, _ = objective_random(
            x, y, small_params, 0.0, adv_weight=1.0, adv_scale=0.05,
            rng=np.random.default_rng(0),
        )
        loss_n, _ = objective_normal(x, y, small_params, 0.0)
        # every example contributes a perturbed hinge, so the loss moves
        assert loss_r != loss_n


class TestAttack:
    def test_zero_eps_is_bitwise_clean(self, small_params, small_batch):
        x, y = small_batch
        clean, attacked = attacked_confidences(x, y, small_params, eps=0.0)
        np.testing.assert_array_equal(clean, attacked)

    def test_attack_never_helps_active_examples(self, small_params, small_batch):
        x, y = small_batch
        clean, attacked = attacked_confidences(x, y, small_params, eps=0.1)
        assert np.all(y * attacked <= y * clean + 1e-12)

    @staticmethod
    def unblocked(x, y, params, eps):
        """Fast-gradient attack on the whole batch at once, from the definition."""
        trace = forward(x, params)
        norm = np.linalg.norm(params.w_head)
        active = (y * trace.yhat < 1.0)[..., None]
        r = np.where(active, -eps * y[..., None] * params.w_head / norm, 0.0)
        return trace.yhat, (trace.e + r) @ params.w_head + params.b_head

    @pytest.mark.parametrize("n", [1, 1024, 1025, 2086, 5000])
    def test_blocks_match_the_unblocked_attack(self, small_params, n):
        x, y = make_regime_examples(n, lag=4, seed=n)
        clean, attacked = attacked_confidences(x, y, small_params, eps=0.05)
        want_clean, want_attacked = self.unblocked(x, y, small_params, 0.05)
        assert clean.shape == attacked.shape == (n,)
        np.testing.assert_allclose(clean, want_clean, rtol=0, atol=1e-14)
        np.testing.assert_allclose(attacked, want_attacked, rtol=0, atol=1e-14)
        assert np.any(attacked != clean)

    def test_single_window(self, small_params, small_batch):
        x, y = small_batch
        clean, attacked = attacked_confidences(x[0], y[0], small_params, eps=0.05)
        want_clean, want_attacked = self.unblocked(x[0], y[0], small_params, 0.05)
        assert clean.shape == attacked.shape == ()
        assert clean == want_clean
        np.testing.assert_allclose(attacked, want_attacked, rtol=0, atol=1e-14)

    def test_empty_batch(self, small_params):
        clean, attacked = attacked_confidences(np.zeros((0, 3, 11)), np.zeros(0),
                                               small_params, eps=0.05)
        assert clean.shape == attacked.shape == (0,)


class TestAdam:
    def test_zero_grad_keeps_params_bitwise(self, small_params):
        state = AdamState.for_params(small_params)
        grads = small_params.zeros_like()
        before = small_params.to_vector()
        new, _ = adam_step(small_params, grads, state, lr=0.1)
        np.testing.assert_array_equal(new.to_vector(), before)

    def test_in_place_update_matches_out_of_place_formula(self, small_params):
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        params = small_params.copy()
        state = AdamState.for_params(params)
        p = params.to_vector()
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        rng = np.random.default_rng(3)
        for t in range(1, 6):
            grads = params.from_vector(rng.standard_normal(p.size))
            g = grads.to_vector()
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
            new, new_state = adam_step(params, grads, state, lr=lr)
            assert new is params and new_state is state
            assert state.step == t
            np.testing.assert_array_equal(params.to_vector(), p)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)

    def test_single_step_hand_value(self, small_dims):
        p = init_params(small_dims, np.random.default_rng(0)).zeros_like()
        p.b_head[...] = 1.0
        grads = p.zeros_like()
        grads.b_head[...] = 2.0
        state = AdamState.for_params(p)
        new, state = adam_step(p, grads, state, lr=0.1)
        # bias-corrected first step: update = lr * g / (|g| + eps)
        assert float(new.b_head) == pytest.approx(1.0 - 0.1 * 2.0 / (2.0 + 1e-8), rel=1e-15)
        assert state.step == 1

    def test_constant_gradient_update_approaches_lr(self, small_dims):
        p = init_params(small_dims, np.random.default_rng(0)).zeros_like()
        grads = p.zeros_like()
        grads = grads.from_vector(np.full(grads.to_vector().size, 3.0))
        state = AdamState.for_params(p)
        for _ in range(300):
            p, state = adam_step(p, grads, state, lr=0.05)
        # with an unchanging gradient the bias-corrected move settles at ~lr
        before = p.to_vector()
        p, state = adam_step(p, grads, state, lr=0.05)
        np.testing.assert_allclose(np.abs(before - p.to_vector()), 0.05, rtol=1e-6)

    def test_shape_mismatch(self, small_params, small_dims):
        other = init_params(
            type(small_dims)(feat_dim=11, map_size=5, hidden_size=4, att_size=4),
            np.random.default_rng(0),
        )
        state = AdamState.for_params(small_params)
        with pytest.raises(ShapeError):
            adam_step(small_params, other.zeros_like(), state, lr=0.1)


class TestTrainLoop:
    def easy_data(self, n=96, seed=0):
        return make_regime_examples(n, lag=3, seed=seed, label_noise=0.0,
                                    signal=2.0, noise=0.3)

    def test_loss_decreases_on_separable_data(self, small_dims):
        x, y = self.easy_data()
        result = train(x, y, x, y, small_dims,
                       TrainConfig(epochs=12, batch_size=32, seed=1, patience=0))
        assert result.history[-1].train_loss < result.history[0].train_loss
        assert result.history[-1].val_acc > 90.0

    def test_epochs_zero_returns_initialization(self, small_dims):
        x, y = self.easy_data(32)
        result = train(x, y, x, y, small_dims, TrainConfig(epochs=0, seed=9))
        expected = init_params(small_dims, np.random.default_rng(9))
        np.testing.assert_array_equal(result.params.to_vector(), expected.to_vector())
        assert result.best_epoch == 0
        assert result.history == []

    def test_seed_determinism_bitwise(self, small_dims):
        x, y = make_regime_examples(64, lag=3, seed=2)
        config = TrainConfig(mode="adversarial", epochs=4, batch_size=16, seed=7,
                             adv_weight=0.5, adv_scale=0.05)
        a = train(x, y, x, y, small_dims, config)
        b = train(x, y, x, y, small_dims, config)
        np.testing.assert_array_equal(a.params.to_vector(), b.params.to_vector())
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]

    def test_random_mode_differs_from_normal(self, small_dims):
        x, y = make_regime_examples(64, lag=3, seed=2)
        base = dict(epochs=3, batch_size=16, seed=7, adv_weight=0.5, adv_scale=0.5)
        a = train(x, y, x, y, small_dims, TrainConfig(mode="normal", **base))
        b = train(x, y, x, y, small_dims, TrainConfig(mode="random_perturbation", **base))
        assert np.any(a.params.to_vector() != b.params.to_vector())

    def test_best_epoch_prefers_earlier_tie(self, small_dims):
        x, y = self.easy_data()
        result = train(x, y, x, y, small_dims,
                       TrainConfig(epochs=10, batch_size=32, seed=1, patience=0))
        accs = [r.val_acc for r in result.history]
        best = max(accs)
        assert result.best_epoch == accs.index(best) + 1  # first epoch reaching the max

    def test_early_stopping(self, small_dims):
        x, y = self.easy_data()
        result = train(x, y, x, y, small_dims,
                       TrainConfig(epochs=50, batch_size=32, seed=1, patience=2))
        assert len(result.history) < 50
        last = result.history[-1].epoch
        assert last - result.best_epoch >= 2

    def test_empty_validation_uses_final_params(self, small_dims):
        x, y = self.easy_data(48)
        empty_x = np.zeros((0, 3, 11))
        empty_y = np.zeros(0)
        result = train(x, y, empty_x, empty_y, small_dims,
                       TrainConfig(epochs=3, batch_size=16, seed=1))
        np.testing.assert_array_equal(
            result.params.to_vector(), result.final_params.to_vector()
        )
        assert np.isnan(result.history[-1].val_acc)

    @pytest.mark.parametrize("mode", ["normal", "adversarial"])
    def test_untracked_train_loss_changes_nothing_else(self, small_dims, mode):
        x, y = make_regime_examples(96, lag=3, seed=4)
        config = TrainConfig(mode=mode, epochs=5, batch_size=32, seed=2,
                             adv_weight=0.5, adv_scale=0.05)
        a = train(x[:64], y[:64], x[64:], y[64:], small_dims, config)
        b = train(x[:64], y[:64], x[64:], y[64:], small_dims, config, track_train_loss=False)
        assert a.params.to_vector().tobytes() == b.params.to_vector().tobytes()
        assert a.final_params.to_vector().tobytes() == b.final_params.to_vector().tobytes()
        assert a.best_epoch == b.best_epoch
        assert a.val_yhat.tobytes() == b.val_yhat.tobytes()
        assert [(r.epoch, r.val_loss, r.val_acc) for r in a.history] == \
            [(r.epoch, r.val_loss, r.val_acc) for r in b.history]
        assert all(np.isfinite(r.train_loss) for r in a.history)
        assert all(np.isnan(r.train_loss) for r in b.history)

    @pytest.mark.parametrize("epochs, n_val, patience", [(12, 32, 3), (0, 32, 0), (3, 0, 0)],
                             ids=["early-stop", "zero-epochs", "no-validation"])
    def test_val_yhat_scores_the_returned_params(self, small_dims, epochs, n_val, patience):
        x, y = make_regime_examples(64 + n_val, lag=3, seed=6, label_noise=0.3)
        result = train(x[:64], y[:64], x[64:], y[64:], small_dims,
                       TrainConfig(epochs=epochs, batch_size=16, seed=3, patience=patience))
        assert result.val_yhat.shape == (n_val,)
        assert result.val_yhat.tobytes() == predict(x[64:], result.params).tobytes()

    def test_divergence_raises(self, small_dims):
        x, y = self.easy_data(48)
        config = TrainConfig(epochs=3, batch_size=16, seed=1,
                             learning_rate=1e160, l2_coef=1.0)
        with pytest.raises(DivergenceError):
            train(x, y, x, y, small_dims, config)

    @pytest.mark.parametrize("track_train_loss", [True, False])
    def test_non_finite_params_raise_at_epoch_end(self, small_dims, monkeypatch,
                                                  track_train_loss):
        # An infinite mapping bias saturates tanh, so every confidence and
        # loss stays finite: only the parameter check can see it.
        real_step = training.adam_step

        def poisoned_step(params, *args, **kwargs):
            params, state = real_step(params, *args, **kwargs)
            params.b_map[0] = np.inf
            return params, state

        monkeypatch.setattr(training, "adam_step", poisoned_step)
        x, y = self.easy_data(48)
        config = TrainConfig(epochs=1, batch_size=48, seed=1, l2_coef=0.0)
        with pytest.raises(DivergenceError, match="parameters are non-finite"):
            train(x, y, x, y, small_dims, config, track_train_loss=track_train_loss)

    def test_empty_train_rejected(self, small_dims):
        with pytest.raises(ContractError):
            train(np.zeros((0, 3, 11)), np.zeros(0), np.zeros((0, 3, 11)), np.zeros(0),
                  small_dims, TrainConfig(epochs=1))
