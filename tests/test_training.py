import datetime as dt
import multiprocessing
import os

import numpy as np
import pytest

from advalstm import training
from advalstm.errors import ContractError, DivergenceError, NumericError, ShapeError
from advalstm.market_data import SplitSpec, align_trading_days, ingest_eod, label_and_window
from advalstm.model import (
    ModelDims,
    backward,
    classify,
    forward,
    head_forward,
    init_params,
    predict,
)
from advalstm.synthetic import make_regime_examples, write_regime_price_csv
from advalstm.training import (
    STEP_ROWS,
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

from helpers import (
    finite_difference_gradient,
    margins_clear_of_kink,
    max_relative_error,
    wide_inputs,
)


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

    @pytest.mark.parametrize("bad", [0.0, 2.0, np.nan])
    def test_non_sign_label_rejected_on_every_step(self, small_params, small_batch, bad):
        x, y = small_batch
        y = y.copy()
        y[5] = bad
        for call in (lambda: objective_normal(x, y, small_params, 0.1),
                     lambda: objective_adversarial(x, y, small_params, 0.1, 0.5, 0.01),
                     lambda: hinge_loss(y, np.zeros_like(y))):
            with pytest.raises(ContractError, match="labels must be"):
                call()


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
        r = sphere_noise((len(y), small_params.w_head.size), 0.05, np.random.default_rng(0))
        loss_r, _ = objective_random(x, y, small_params, 0.0, adv_weight=1.0, r=r)
        loss_n, _ = objective_normal(x, y, small_params, 0.0)
        # every example contributes a perturbed hinge, so the loss moves
        assert loss_r != loss_n

    @pytest.mark.parametrize("eps", [0.01, 0.3])
    def test_adversarial_term_is_a_margin_shift(self, small_params, small_batch, eps):
        """loss = clean + beta * sum_active (hinge + eps ||w_head||), and the
        w_head gradient gains scale * beta * eps * n_active * w_head / ||w_head||;
        objective_normal on the whole batch and on its active rows is the oracle."""
        x, y = small_batch
        params = small_params.copy()
        params.w_head *= 10.0  # so that some margins clear 1 and some rows are inactive
        l2, beta, scale = 0.01, 0.5, 3.0
        active = y * forward(x, params).yhat < 1.0
        assert 0 < active.sum() < active.size
        norm = np.linalg.norm(params.w_head)

        loss, grads = objective_adversarial(x, y, params, l2, beta, eps, scale)
        loss_clean, grads_clean = objective_normal(x, y, params, l2, scale)
        loss_active, grads_active = objective_normal(x[active], y[active], params, 0.0,
                                                     scale * beta)
        want = params.from_vector(grads_clean.flat + grads_active.flat)
        want.w_head += scale * beta * eps * active.sum() * params.w_head / norm
        assert loss == pytest.approx(
            loss_clean + loss_active + scale * beta * eps * norm * active.sum(), rel=1e-12
        )
        np.testing.assert_allclose(grads.w_head, want.w_head, rtol=1e-12)
        assert max_relative_error(grads.flat, want.flat) < 1e-12


class TestPerturbedGradcheck:
    """Finite differences of the objectives that carry a perturbed term,
    with r held fixed.  They check the one upstream gradient that
    ``_objective`` passes through ``backward`` and the sum of d * r it adds
    to w_head.  Inputs and bounds are those of backward's own check in
    test_model.py: a small model on a batch of 4, then ``wide_inputs``.
    At hidden 32 each objective call costs about 1 ms, so there the check
    covers every head coordinate and a fixed sample of 1,000 others."""

    @staticmethod
    def case(small_params, which):
        rng = np.random.default_rng(12)
        params, x, atol = [(small_params, rng.standard_normal((4, 3, 11)), 0.0),
                           *wide_inputs(rng)][which]
        y = rng.choice(np.array([-1.0, 1.0]), x.shape[:-2])
        head_start = params.flat.size - params.w_head.size - 1  # w_head, b_head come last
        coords = None if atol == 0.0 else np.concatenate([
            np.sort(rng.choice(head_start, 1000, replace=False)),
            np.arange(head_start, params.flat.size),
        ])
        return params, x, y, atol, coords

    @staticmethod
    def check(objective, params, coords, atol):
        _, grads = objective(params)
        numeric = finite_difference_gradient(lambda p: objective(p)[0], params, coords=coords)
        analytic = grads.flat if coords is None else grads.flat[coords]
        assert max_relative_error(analytic, numeric, atol) < 1e-6

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["small", "wide-window", "wide-batch"])
    def test_objective_random(self, small_params, which):
        params, x, y, atol, coords = self.case(small_params, which)
        trace = forward(x, params)
        r = sphere_noise(trace.e.shape, 0.1, np.random.default_rng(3))
        assert margins_clear_of_kink(y, trace.yhat)
        assert margins_clear_of_kink(y, trace.yhat + r @ params.w_head)
        self.check(
            lambda p: objective_random(x, y, p, 0.01, 0.5, r),
            params, coords, atol,
        )

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["small", "wide-window", "wide-batch"])
    def test_objective_adversarial_frozen(self, small_params, which):
        params, x, y, atol, coords = self.case(small_params, which)
        trace = forward(x, params)
        r = 0.1 * np.random.default_rng(4).standard_normal(trace.e.shape)
        mask = np.ones(y.shape, dtype=bool)
        assert margins_clear_of_kink(y, trace.yhat)
        assert margins_clear_of_kink(y, trace.yhat + r @ params.w_head)
        self.check(
            lambda p: objective_adversarial_frozen(x, y, p, r, mask, 0.01, 0.5),
            params, coords, atol,
        )


def _frozen(x, y, p):
    lead = np.shape(x)[:-2]
    return objective_adversarial_frozen(
        x, y, p, np.zeros((*lead, p.w_head.size)), np.ones(lead, dtype=bool), 0.01, 0.5
    )


LABELLED_ENTRY_POINTS = {
    "objective_normal": lambda x, y, p: objective_normal(x, y, p, 0.01),
    "objective_adversarial": lambda x, y, p: objective_adversarial(x, y, p, 0.01, 0.5, 0.05),
    "objective_random": lambda x, y, p: objective_random(
        x, y, p, 0.01, 0.5,
        sphere_noise((*np.shape(x)[:-2], p.w_head.size), 0.05, np.random.default_rng(0)),
    ),
    "objective_adversarial_frozen": _frozen,
    "adversarial_perturbations": lambda x, y, p: adversarial_perturbations(
        forward(x, p).yhat, y, p, 0.05
    ),
    "attacked_confidences": lambda x, y, p: attacked_confidences(x, y, p, 0.05),
}


OBJECTIVES = ["objective_normal", "objective_adversarial", "objective_random",
              "objective_adversarial_frozen"]


class TestNoActiveHinge:
    """A batch whose every clean and perturbed margin is at least 1 has a
    zero hinge gradient, so ``_objective`` skips ``backward``.  Its
    gradient must keep the bytes of backward from a zero upstream, plus the
    L2 term."""

    L2 = 0.01

    @pytest.fixture
    def backward_calls(self, monkeypatch):
        """The argument tuples of every ``training.backward`` call in this process."""
        calls = []
        real_backward = training.backward

        def counting(*args):
            calls.append(args)
            return real_backward(*args)

        monkeypatch.setattr(training, "backward", counting)
        return calls

    @staticmethod
    def separated(small_params, small_batch):
        """(params, x, y, r): every clean margin at least 2, the labels being
        the confidences' signs, and ``r`` a perturbation of e that moves no
        confidence by more than 0.5."""
        x, _ = small_batch
        params = small_params.copy()
        params.b_head[...] = 0.0
        yhat = forward(x, params).yhat
        params.w_head *= 2.0 / np.min(np.abs(yhat))
        eps = 0.5 / np.linalg.norm(params.w_head)
        r = sphere_noise((len(x), params.w_head.size), eps, np.random.default_rng(7))
        return params, x, classify(yhat), r

    @classmethod
    def call(cls, name, x, y, params, r):
        return {
            "objective_normal": lambda: objective_normal(x, y, params, cls.L2),
            "objective_adversarial": lambda: objective_adversarial(x, y, params, cls.L2, 0.5, 0.05),
            "objective_random": lambda: objective_random(x, y, params, cls.L2, 0.5, r),
            "objective_adversarial_frozen": lambda: objective_adversarial_frozen(
                x, y, params, r, np.ones(y.shape, dtype=bool), cls.L2, 0.5),
        }[name]()

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_gradient_is_a_zero_upstream_backward(self, small_params, small_batch,
                                                   backward_calls, name):
        params, x, y, r = self.separated(small_params, small_batch)
        trace = forward(x, params)
        assert np.all(y * trace.yhat >= 2.0)
        assert np.all(y * (trace.yhat + r @ params.w_head) >= 1.0)
        expected = backward(params, trace, np.zeros(len(y)))
        expected.flat += self.L2 * params.flat
        loss, grads = self.call(name, x, y, params, r)
        assert backward_calls == []
        assert grads.flat.tobytes() == expected.flat.tobytes()
        assert loss == 0.5 * self.L2 * params.l2_norm_sq()

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_one_active_row_runs_backward_once(self, small_params, small_batch,
                                               backward_calls, name):
        params, x, y, r = self.separated(small_params, small_batch)
        y[3] = -y[3]
        self.call(name, x, y, params, r)
        assert len(backward_calls) == 1

    @pytest.mark.parametrize("name", ["objective_random", "objective_adversarial_frozen"])
    def test_a_perturbed_margin_alone_runs_backward(self, small_params, small_batch,
                                                     backward_calls, name):
        # Row 3's clean margin stays at least 2; its perturbed margin is 0.
        params, x, y, r = self.separated(small_params, small_batch)
        trace = forward(x, params)
        head = params.w_head
        r[3] = -(y[3] * trace.yhat[3]) * y[3] * head / (head @ head)
        assert np.all(y * trace.yhat >= 2.0)
        assert y[3] * (trace.yhat[3] + r[3] @ head) == pytest.approx(0.0, abs=1e-12)
        _, grads = self.call(name, x, y, params, r)
        assert len(backward_calls) == 1
        assert np.any(grads.flat != self.L2 * params.flat)

    def test_a_negative_weight_that_cancels_the_upstream_still_sums_r(self, small_params,
                                                                      small_batch):
        # At weight -1 row 3's clean and perturbed terms cancel in the upstream
        # gradient, while w_head keeps the perturbed term's sum of d * r.
        params, x, y, r = self.separated(small_params, small_batch)
        y[3] = -y[3]
        _, grads = objective_adversarial_frozen(x, y, params, r, np.ones(y.shape, dtype=bool),
                                                self.L2, -1.0)
        np.testing.assert_allclose(grads.w_head, self.L2 * params.w_head + y[3] * r[3],
                                   rtol=1e-12)


class TestLabelShape:
    """Every entry point that takes labels wants exactly one per window."""

    @pytest.mark.parametrize("entry", LABELLED_ENTRY_POINTS)
    def test_labels_must_match_the_batch(self, small_params, small_batch, entry):
        call = LABELLED_ENTRY_POINTS[entry]
        x, y = small_batch
        call(x, y, small_params)
        call(x[0], y[0], small_params)
        for xb, yb in ((x, y[:1]), (x, np.append(y, 1.0)), (x, y[:, None]), (x[0], y[:1])):
            with pytest.raises(ShapeError):
                call(xb, yb, small_params)

    def test_frozen_perturbation_must_match_the_batch(self, small_params, small_batch):
        x, y = small_batch
        r, mask = np.zeros((len(y), small_params.w_head.size)), np.ones(len(y), dtype=bool)
        for rb, mb in ((r[:1], mask), (r[:, :-1], mask), (r, mask[:1]), (r, mask[:, None])):
            with pytest.raises(ShapeError):
                objective_adversarial_frozen(x, y, small_params, rb, mb, 0.01, 0.5)

    def test_random_perturbation_must_match_the_batch(self, small_params, small_batch):
        x, y = small_batch
        r = np.zeros((len(y), small_params.w_head.size))
        for rb in (r[:1], r[:, :-1], r[0], r[..., None]):
            with pytest.raises(ShapeError):
                objective_random(x, y, small_params, 0.01, 0.5, rb)

    @pytest.mark.parametrize("entry", [name for name in LABELLED_ENTRY_POINTS
                                       if name.startswith("objective_")])
    def test_every_objective_rejects_an_empty_batch(self, small_params, entry):
        with pytest.raises(ContractError):
            LABELLED_ENTRY_POINTS[entry](np.zeros((0, 3, 11)), np.zeros(0), small_params)


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


class TestAttackIsAMarginShift:
    """The closed-form attack against independent oracles."""

    @pytest.mark.parametrize("n", [1, 1024, 1025, 5000])
    def test_closed_form_matches_the_perturbation_oracle(self, small_params, n):
        """The attack equals yhat + r_adv . w_head, with r_adv from
        adversarial_perturbations on a whole-batch forward pass."""
        x, y = make_regime_examples(n, lag=4, seed=n)
        trace = forward(x, small_params)
        r_adv, mask = adversarial_perturbations(trace.yhat, y, small_params, 0.05)
        clean, attacked = attacked_confidences(x, y, small_params, eps=0.05)
        assert mask.any()
        np.testing.assert_allclose(clean, trace.yhat, rtol=0, atol=1e-14)
        np.testing.assert_allclose(attacked, trace.yhat + r_adv @ small_params.w_head,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("head_norm, eps", [(0.0, 0.5), (0.5e-12, 0.5), (None, 0.0)],
                             ids=["zero-head", "head-below-floor", "zero-eps"])
    def test_no_shift_is_bitwise_clean(self, small_params, small_batch, head_norm, eps):
        x, y = small_batch
        params = small_params.copy()
        if head_norm is not None:
            params.w_head *= head_norm / np.linalg.norm(params.w_head)
        clean, attacked = attacked_confidences(x, y, params, eps)
        assert clean.tobytes() == attacked.tobytes()

    def test_accuracy_drop_is_the_at_risk_share(self):
        """Rows flip exactly where 0 <= y * yhat < min(1, eps * ||w_head||);
        past eps * ||w_head|| = 1 the drop saturates."""
        x, y = make_regime_examples(2000, lag=3, seed=8, signal=0.5, noise=1.0)
        dims = ModelDims(feat_dim=11, map_size=4, hidden_size=4, att_size=4)
        for mode in ("normal", "adversarial"):
            config = TrainConfig(mode=mode, adv_weight=1.0, adv_scale=0.5, batch_size=500,
                                 epochs=8, patience=0)
            params = train(x[:1500], y[:1500], x[:0], y[:0], dims, config).params
            x_te, y_te = x[1500:], y[1500:]
            norm = np.linalg.norm(params.w_head)
            drops = []
            for eps in (0.05, 0.2, 0.5, 1.5 / norm, 3.0 / norm):
                clean, attacked = attacked_confidences(x_te, y_te, params, eps)
                drop = np.sum(classify(clean) == y_te) - np.sum(classify(attacked) == y_te)
                margin = y_te * clean
                assert drop == np.sum((margin >= 0.0) & (margin < min(1.0, eps * norm)))
                drops.append(drop)
            assert 0 < drops[0] < drops[-1] == drops[-2]


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

    def test_empty_validation_runs_every_epoch_despite_patience(self, small_dims):
        # Without a validation split every epoch is the latest best, so
        # patience never ends training early.
        x, y = self.easy_data(48)
        result = train(x, y, np.zeros((0, 3, 11)), np.zeros(0), small_dims,
                       TrainConfig(epochs=5, batch_size=16, seed=1, patience=2))
        assert [r.epoch for r in result.history] == [1, 2, 3, 4, 5]
        assert result.best_epoch == 5
        np.testing.assert_array_equal(
            result.params.to_vector(), result.final_params.to_vector()
        )

    @pytest.mark.parametrize("mode", training.MODES)
    def test_train_loss_is_the_steps_clean_hinge(self, small_dims, monkeypatch, mode):
        # Oracle: record each step's batch (as row indices of the train
        # split) and the parameters before its update, then score every
        # batch again with forward and hinge_loss.
        x, y = make_regime_examples(80, lag=3, seed=8, label_noise=0.3)
        row_of = {row.tobytes(): i for i, row in enumerate(x)}
        assert len(row_of) == len(x)
        batches, seen = [], []

        def recording(objective):
            def wrapped(xb, *args, **kwargs):
                batches.append(np.array([row_of[row.tobytes()] for row in xb]))
                return objective(xb, *args, **kwargs)
            return wrapped

        for name in ("objective_normal", "objective_adversarial", "objective_random"):
            monkeypatch.setattr(training, name, recording(getattr(training, name)))
        real_step = training.adam_step

        def snapshot_step(params, *args, **kwargs):
            seen.append(params.copy())
            return real_step(params, *args, **kwargs)

        monkeypatch.setattr(training, "adam_step", snapshot_step)
        config = TrainConfig(mode=mode, epochs=3, batch_size=32, seed=5, patience=0,
                             adv_weight=0.5, adv_scale=0.05)
        result = train(x, y, x[:16], y[:16], small_dims, config)

        steps = 3  # 32 + 32 + 16 rows: the last batch is smaller
        assert len(result.history) == 3 and len(batches) == len(seen) == 3 * steps
        perturbed = 0.0
        for e, record in enumerate(result.history):
            epoch = slice(e * steps, (e + 1) * steps)
            assert sorted(np.concatenate(batches[epoch])) == list(range(len(y)))
            clean = 0.0
            for idx, p in zip(batches[epoch], seen[epoch]):
                trace = forward(x[idx], p)
                clean += np.sum(hinge_loss(y[idx], trace.yhat))
                r, mask = adversarial_perturbations(trace.yhat, y[idx], p, config.adv_scale)
                perturbed += np.sum(hinge_loss(y[idx], head_forward(trace.e + r, p)) * mask)
            assert record.train_loss == clean / len(y)
        if mode == "adversarial":
            # the beta-weighted perturbed term would show if it were counted
            assert config.adv_weight * perturbed / len(y) > 0.1

    def test_each_epoch_scores_only_the_validation_split(self, small_dims, monkeypatch):
        scored = []
        real_predict = training.predict

        def spy(x, params):
            scored.append(x)
            return real_predict(x, params)

        monkeypatch.setattr(training, "predict", spy)
        x, y = make_regime_examples(96, lag=3, seed=4)
        x_train, x_val = x[:64], x[64:]
        rows_at_epoch_end = []
        train(x_train, y[:64], x_val, y[64:], small_dims,
              TrainConfig(mode="adversarial", epochs=3, batch_size=32, seed=2, patience=0),
              on_epoch=lambda r: rows_at_epoch_end.append(sum(map(len, scored))))
        assert rows_at_epoch_end == [32, 64, 96]
        assert sum(map(len, scored)) == 96
        assert not any(np.shares_memory(s, x_train) for s in scored)

    @pytest.mark.parametrize("split", ["train", "validation"])
    def test_split_with_more_windows_than_labels_rejected(self, small_dims, split):
        x, y = make_regime_examples(96, lag=3, seed=4)
        y_train, y_val = (y[:60], y[64:]) if split == "train" else (y[:64], y[64:90])
        with pytest.raises(ShapeError, match=f"{split} split has"):
            train(x[:64], y_train, x[64:], y_val, small_dims, TrainConfig(epochs=1))

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

    @pytest.mark.parametrize("with_validation", [True, False])
    def test_non_finite_params_raise_at_epoch_end(self, small_dims, monkeypatch,
                                                  with_validation):
        # An infinite mapping bias saturates tanh, so every confidence and
        # loss stays finite: only the parameter check can see it, with or
        # without a validation split to score.
        real_step = training.adam_step

        def poisoned_step(params, *args, **kwargs):
            params, state = real_step(params, *args, **kwargs)
            params.b_map[0] = np.inf
            return params, state

        monkeypatch.setattr(training, "adam_step", poisoned_step)
        x, y = self.easy_data(48)
        n_val = len(y) if with_validation else 0
        config = TrainConfig(epochs=1, batch_size=48, seed=1, l2_coef=0.0)
        with pytest.raises(DivergenceError, match="parameters are non-finite"):
            train(x, y, x[:n_val], y[:n_val], small_dims, config)

    def test_empty_train_rejected(self, small_dims):
        with pytest.raises(ContractError):
            train(np.zeros((0, 3, 11)), np.zeros(0), np.zeros((0, 3, 11)), np.zeros(0),
                  small_dims, TrainConfig(epochs=1))



class TestTrainWorkers:
    """Batches of more than STEP_ROWS rows take their gradient from
    STEP_ROWS-row chunks, computed here and in forked helpers."""

    @pytest.fixture(scope="class")
    def data(self):
        # At batch 1024: two two-chunk batches and a 52-row tail.  At
        # batch 1536: a three-chunk batch and a two-chunk tail of 564.
        return make_regime_examples(2100, lag=3, seed=2, label_noise=0.3)

    @pytest.mark.parametrize("batch_size", [1024, 1536])
    @pytest.mark.parametrize("mode", training.MODES)
    def test_bytes_do_not_depend_on_workers(self, small_dims, data, mode, batch_size):
        x, y = data
        config = TrainConfig(mode=mode, epochs=2, batch_size=batch_size, seed=5, patience=0,
                             adv_weight=0.5, adv_scale=0.05)
        chunks = -(-batch_size // STEP_ROWS)
        results = []
        for workers in (1, 2, 3):
            alive = []
            results.append(train(x, y, x[:300], y[:300], small_dims, config,
                                 on_epoch=lambda r: alive.append(multiprocessing.active_children()),
                                 workers=workers))
            # One helper per further worker that a batch has a chunk for,
            # forked once per call, in every mode.
            helpers = min(workers, chunks) - 1
            assert [len(a) for a in alive] == [helpers] * 2 and alive[0] == alive[1]
            assert multiprocessing.active_children() == []
        first = results[0]
        for other in results[1:]:
            assert other.params.flat.tobytes() == first.params.flat.tobytes()
            assert other.history == first.history
            assert other.val_yhat.tobytes() == first.val_yhat.tobytes()

    @pytest.mark.parametrize("mode", training.MODES)
    def test_chunks_without_an_active_hinge_skip_backward(self, small_dims, monkeypatch,
                                                           mode):
        # A separable market: from the first epoch some 512-row chunks have
        # every margin at least 1.  The counts are shared with the helpers.
        x, y = make_regime_examples(2100, lag=3, seed=2, label_noise=0.0, signal=4.0,
                                    noise=0.2)
        counts = multiprocessing.get_context("fork").Array("q", 2)  # chunks, backward calls

        def counting(i, real):
            def wrapped(*args, **kwargs):
                with counts.get_lock():
                    counts[i] += 1
                return real(*args, **kwargs)
            return wrapped

        name = {"normal": "objective_normal", "adversarial": "objective_adversarial",
                "random_perturbation": "objective_random"}[mode]
        monkeypatch.setattr(training, name, counting(0, getattr(training, name)))
        monkeypatch.setattr(training, "backward", counting(1, training.backward))
        config = TrainConfig(mode=mode, epochs=4, batch_size=1024, seed=5, patience=0,
                             learning_rate=0.1, adv_weight=0.5, adv_scale=0.05)
        results, seen = [], []
        for workers in (1, 2, 3):
            counts[:] = [0, 0]
            results.append(train(x, y, x[:300], y[:300], small_dims, config, workers=workers))
            seen.append(tuple(counts))
        chunks, calls = seen[0]
        assert chunks == 4 * 5  # per epoch: 2 + 2 chunks and a 52-row tail
        assert 0 < calls < chunks
        assert seen == [seen[0]] * 3
        first = results[0]
        for other in results[1:]:
            assert other.params.flat.tobytes() == first.params.flat.tobytes()
            assert other.history == first.history
            assert other.val_yhat.tobytes() == first.val_yhat.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", training.MODES)
    def test_a_chunked_step_matches_the_whole_batch(self, small_dims, monkeypatch, mode,
                                                     workers):
        # Oracle: the public objective over the whole 1,000-row batch (512 +
        # 488 rows in chunks), at the parameters each step saw and, in
        # random mode, with the noise the step drew.
        x, y = make_regime_examples(1000, lag=3, seed=8, label_noise=0.3)
        seen, draws = [], []
        real_step, real_noise = training.adam_step, training.sphere_noise

        def snapshot_step(params, grads, *args, **kwargs):
            seen.append((params.copy(), grads.copy()))
            return real_step(params, grads, *args, **kwargs)

        def recording_noise(*args):
            draws.append(real_noise(*args))
            return draws[-1]

        monkeypatch.setattr(training, "adam_step", snapshot_step)
        monkeypatch.setattr(training, "sphere_noise", recording_noise)
        config = TrainConfig(mode=mode, epochs=2, batch_size=1024, seed=5, patience=0,
                             l2_coef=0.01, adv_weight=0.5, adv_scale=0.05)
        result = train(x, y, x[:16], y[:16], small_dims, config, workers=workers)

        objective, extra = {
            "normal": (objective_normal, ()),
            "adversarial": (objective_adversarial, (config.adv_weight, config.adv_scale)),
            "random_perturbation": (objective_random, (config.adv_weight,)),
        }[mode]
        assert len(seen) == len(result.history) == 2
        assert len(draws) == (2 if mode == "random_perturbation" else 0)
        # Replay train's generator: the initialization, then per step the
        # epoch's order and, in random mode, the noise, drawn once per step.
        rng = np.random.default_rng(config.seed)
        init_params(small_dims, rng)
        for step, ((params, grads), record) in enumerate(zip(seen, result.history)):
            order = rng.permutation(len(y))
            noise = draws[step : step + 1]
            for r in noise:
                assert r.shape == (len(y), params.w_head.size)
                np.testing.assert_array_equal(real_noise(r.shape, config.adv_scale, rng), r)
            hinge_sums = []
            _, expected = objective(x[order], y[order], params, config.l2_coef, *extra, *noise,
                                    1.0, _hinge_sums=hinge_sums)
            assert max_relative_error(grads.flat, expected.flat) < 1e-12
            assert record.train_loss == pytest.approx(hinge_sums[0] / len(y), rel=1e-12)

    def test_many_chunks_per_helper_in_one_step(self):
        # At batch 8,192 a step has 16 chunks, so at 2 workers a helper
        # takes 8 per step.  At hidden and map size 32 each request carries
        # a 79 KB parameter vector and each reply a 79 KB gradient.  A
        # caller that sent all 8 at once would block on a full pipe while
        # the helper blocks sending replies that nobody reads.
        x, y = make_regime_examples(8192, lag=3, seed=6, label_noise=0.3)
        dims = ModelDims(feat_dim=x.shape[-1], map_size=32, hidden_size=32)
        config = TrainConfig(epochs=2, batch_size=8192, seed=5, patience=0)
        first, *others = [train(x, y, x[:64], y[:64], dims, config, workers=workers)
                          for workers in (1, 2, 3)]
        for other in others:
            assert other.params.flat.tobytes() == first.params.flat.tobytes()
            assert other.history == first.history

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_raise_in_a_chunk_diverges_and_leaves_no_process(self, small_dims, monkeypatch,
                                                                data, where):
        caller = os.getpid()
        real_objective = training.objective_normal

        def failing(*args, **kwargs):
            if (os.getpid() == caller) == (where == "caller"):
                raise NumericError(f"non-finite chunk in the {where}")
            return real_objective(*args, **kwargs)

        monkeypatch.setattr(training, "objective_normal", failing)
        x, y = data
        config = TrainConfig(epochs=2, batch_size=1024, seed=1)
        with pytest.raises(DivergenceError, match=f"epoch 1: non-finite chunk in the {where}"):
            train(x, y, x[:16], y[:16], small_dims, config, workers=2)
        assert multiprocessing.active_children() == []

    def test_a_helpers_exception_keeps_its_traceback(self, small_dims, monkeypatch, data):
        caller = os.getpid()
        real_objective = training.objective_normal

        def failing_in_the_helper(*args, **kwargs):
            if os.getpid() != caller:
                raise NumericError("non-finite chunk in the helper")
            return real_objective(*args, **kwargs)

        monkeypatch.setattr(training, "objective_normal", failing_in_the_helper)
        x, y = data
        config = TrainConfig(epochs=1, batch_size=1024, seed=1)
        with pytest.raises(DivergenceError) as caught:
            train(x, y, x[:16], y[:16], small_dims, config, workers=2)
        helper_traceback = str(caught.value.__cause__.__cause__)
        assert "in failing_in_the_helper" in helper_traceback
        assert "NumericError: non-finite chunk in the helper" in helper_traceback

    # Each chunk runs without the L2 term, so only the whole step's loss
    # sees it overflow.  At l2 = 1e308 every chunk loss and the gradient
    # stay finite, and Adam would leave the parameters where they are.
    # 1,600 rows make batches of 1,024 and 576: both take chunks.
    @pytest.mark.parametrize("learning_rate, l2_coef", [(1e160, 1.0), (0.01, 1e308)])
    def test_divergence_is_checked_on_the_whole_step(self, small_dims, data, learning_rate,
                                                      l2_coef):
        x, y = data
        config = TrainConfig(epochs=3, batch_size=1024, seed=1, learning_rate=learning_rate,
                             l2_coef=l2_coef)
        with pytest.raises(DivergenceError, match="objective is non-finite"):
            train(x[:1600], y[:1600], x[:16], y[:16], small_dims, config)

class TestTrainOnWindows:
    @pytest.mark.parametrize("mode", training.MODES)
    def test_same_bytes_as_the_gathered_split(self, tmp_path, small_dims, mode):
        write_regime_price_csv(tmp_path, n_stocks=3, n_days=90, seed=4)
        spec = SplitSpec(train_end=dt.date(2020, 2, 20), val_end=dt.date(2020, 3, 5),
                         test_end=dt.date(2020, 3, 20), lag=5)
        dataset = label_and_window(align_trading_days(ingest_eod(tmp_path)), spec)
        config = TrainConfig(mode=mode, epochs=3, batch_size=16, seed=5, patience=0,
                             adv_weight=0.5, adv_scale=0.05)
        val = dataset.arrays("val", 3)
        assert len(dataset.train) > config.batch_size and len(dataset.val)
        lazy = train(*dataset.windows("train", 3), *val, small_dims, config)
        eager = train(*dataset.arrays("train", 3), *val, small_dims, config)
        assert lazy.params.flat.tobytes() == eager.params.flat.tobytes()
        assert lazy.history == eager.history
        assert lazy.val_yhat.tobytes() == eager.val_yhat.tobytes()
