"""Numbered end-to-end guarantees for the whole package.

One test per guarantee, run in order; each prints a single PASS line
with the measured values when it holds.  Tolerances are asserted
exactly as stated in the test bodies; nothing here is loosened to make
a slow machine or an unlucky seed pass.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from advalstm.cli import main as cli_main
from advalstm.evaluation import accuracy, confusion_counts, mcc, mcc_from_counts, rpd
from advalstm.model import ModelDims, classify, forward, init_params
from advalstm.synthetic import make_regime_examples, write_regime_price_csv
from advalstm.training import (
    TrainConfig,
    adversarial_perturbations,
    attacked_confidences,
    objective_adversarial,
    objective_adversarial_frozen,
    objective_normal,
    train,
)

from helpers import finite_difference_gradient, max_relative_error

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SMALL_DIMS = ModelDims(feat_dim=11, map_size=4, hidden_size=4, att_size=4)


def _passed(line: str) -> None:
    print(f"PASS {line}")


def _kink_clear_batch(rng, params, eps, batch=8, lag=3, gap=1e-3, tries=200):
    """A batch whose clean and perturbed margins all sit away from the
    hinge kink, so central differences never straddle it."""
    norm = float(np.linalg.norm(params.w_head))
    for _ in range(tries):
        x = rng.normal(0.0, 1.0, (batch, lag, params.w_map.shape[1]))
        y = rng.choice(np.array([-1.0, 1.0]), batch)
        margins = y * forward(x, params).yhat
        if np.all(np.abs(1.0 - margins) > gap) and np.all(
            np.abs(1.0 - (margins - eps * norm)) > gap
        ):
            return x, y
    raise AssertionError("could not draw a kink-clear batch")


def test_01_analytic_gradients_match_finite_differences():
    l2, beta, eps = 0.01, 0.5, 0.05
    t0 = time.perf_counter()
    worst_normal = worst_adv = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        params = init_params(SMALL_DIMS, rng)
        x, y = _kink_clear_batch(rng, params, eps)

        _, grads = objective_normal(x, y, params, l2)
        fd = finite_difference_gradient(
            lambda p: objective_normal(x, y, p, l2)[0], params
        )
        worst_normal = max(worst_normal, max_relative_error(grads.to_vector(), fd))

        trace = forward(x, params)
        r_adv, mask = adversarial_perturbations(trace.yhat, y, params, eps)
        _, grads_adv = objective_adversarial(x, y, params, l2, beta, eps)
        fd_adv = finite_difference_gradient(
            lambda p: objective_adversarial_frozen(x, y, p, r_adv, mask, l2, beta)[0],
            params,
        )
        worst_adv = max(worst_adv, max_relative_error(grads_adv.to_vector(), fd_adv))
    elapsed = time.perf_counter() - t0
    assert worst_normal < 1e-4
    assert worst_adv < 1e-4
    assert elapsed < 60.0
    _passed(
        "1 gradients: 20 seeds, max rel err "
        f"{worst_normal:.2e} (clean) / {worst_adv:.2e} (adversarial), {elapsed:.1f}s"
    )


def test_02_perturbation_identities_and_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    params = init_params(SMALL_DIMS, rng)
    w, b = params.w_head, params.b_head
    dim = w.size
    need = 10_000

    # draw representations until 10^4 of them have an active hinge
    e = rng.normal(0.0, 2.0, (3 * need, dim))
    yhat = e @ w + b
    y = rng.choice(np.array([-1.0, 1.0]), 3 * need)
    active = y * yhat < 1.0
    e, yhat, y = e[active][:need], yhat[active][:need], y[active][:need]
    assert y.size == need

    eps = 0.05
    r_adv, mask = adversarial_perturbations(yhat, y, params, eps)
    assert mask.all()

    norm_dev = float(np.max(np.abs(np.linalg.norm(r_adv, axis=1) - eps)))
    assert norm_dev <= 1e-9

    # the gradient at the representation is exactly -y * w_head
    norm_w = float(np.linalg.norm(w))
    expected = y[:, None] * (-(eps / norm_w) * w)[None, :]
    assert np.array_equal(r_adv, expected)
    for i in range(100):
        r_row, mask_row = adversarial_perturbations(yhat[i : i + 1], y[i : i + 1], params, eps)
        assert mask_row.all()
        g = -y[i] * w
        assert np.array_equal(r_row[0], (eps / np.linalg.norm(g)) * g)

    # no random direction of the same radius hurts more
    loss_adv = np.maximum(0.0, 1.0 - y * (yhat + r_adv @ w))
    worst_gap = -np.inf
    for lo in range(0, need, 500):
        hi = min(lo + 500, need)
        dirs = rng.normal(0.0, 1.0, (hi - lo, 1000, dim))
        dirs *= eps / np.linalg.norm(dirs, axis=2, keepdims=True)
        loss_rand = np.maximum(
            0.0, 1.0 - y[lo:hi, None] * (yhat[lo:hi, None] + dirs @ w)
        )
        worst_gap = max(worst_gap, float(np.max(loss_rand - loss_adv[lo:hi, None])))
    assert worst_gap <= 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        f"2 perturbations: 10^4 examples, |norm - eps| <= {norm_dev:.1e}, "
        f"gradient exact, beats 10^3 random directions each (max gap {worst_gap:.1e}), "
        f"{elapsed:.1f}s"
    )


def test_03_degenerate_settings_change_nothing():
    rng = np.random.default_rng(21)
    params = init_params(SMALL_DIMS, rng)
    x, y = make_regime_examples(64, lag=3, seed=3)

    for l2 in (0.0, 0.01, 1.0):
        loss_n, grads_n = objective_normal(x, y, params, l2, scale=2.5)
        loss_a, grads_a = objective_adversarial(x, y, params, l2, 0.0, 0.05, scale=2.5)
        assert loss_a == loss_n
        assert np.array_equal(grads_a.to_vector(), grads_n.to_vector())

    clean, attacked = attacked_confidences(x, y, params, 0.0)
    assert np.array_equal(clean, attacked)
    assert accuracy(y, classify(attacked)) == accuracy(y, classify(clean))
    assert mcc(y, classify(attacked)) == mcc(y, classify(clean))
    assert rpd(accuracy(y, classify(clean)), accuracy(y, classify(attacked))) == 0.0
    _passed(
        "3 degenerate settings: zero-weight adversarial objective is bit-identical "
        "to normal; zero-radius attack leaves confidences and metrics bit-identical"
    )


def _paired_runs(seed, *, l2, adv_weight, adv_scale, epochs, signal):
    """Train normal and adversarial models from one init on one dataset."""
    x, y = make_regime_examples(3000, lag=5, seed=seed * 10 + 1, signal=signal, noise=1.0)
    x_tr, y_tr = x[:2000], y[:2000]
    x_te, y_te = x[2000:], y[2000:]
    dims = ModelDims(feat_dim=11, map_size=8, hidden_size=8, att_size=8)
    out = {}
    for mode, beta in (("normal", 0.0), ("adversarial", adv_weight)):
        cfg = TrainConfig(
            mode=mode, l2_coef=l2, adv_weight=beta, adv_scale=adv_scale,
            learning_rate=0.01, batch_size=512, epochs=epochs, seed=seed, patience=0,
        )
        result = train(x_tr, y_tr, x[:0], y[:0], dims, cfg)
        out[mode] = result.params
    return x_te, y_te, out


def test_04_adversarial_training_widens_margins():
    t0 = time.perf_counter()
    wins = 0
    deltas = []
    for seed in range(5):
        x_te, _, params = _paired_runs(
            seed, l2=4.0, adv_weight=2.0, adv_scale=0.005, epochs=150, signal=0.5
        )
        mean_abs = {
            mode: float(np.mean(np.abs(forward(x_te, p).yhat)))
            for mode, p in params.items()
        }
        deltas.append(mean_abs["adversarial"] - mean_abs["normal"])
        wins += mean_abs["adversarial"] > mean_abs["normal"]
    elapsed = time.perf_counter() - t0
    assert wins >= 4
    assert elapsed < 600.0
    _passed(
        f"4 margins: mean |confidence| larger under adversarial training in "
        f"{wins}/5 paired seeds (deltas {' '.join(f'{d:+.3f}' for d in deltas)}), "
        f"{elapsed:.0f}s"
    )


def test_05_adversarial_training_degrades_less_under_attack():
    attack = 0.5
    wins = 0
    details = []
    for seed in range(5):
        x_te, y_te, params = _paired_runs(
            seed, l2=0.01, adv_weight=1.0, adv_scale=0.5, epochs=60, signal=0.5
        )
        drops = {}
        for mode, p in params.items():
            clean, attacked = attacked_confidences(x_te, y_te, p, attack)
            acc_rpd = rpd(accuracy(y_te, classify(clean)), accuracy(y_te, classify(attacked)))
            mcc_rpd = rpd(mcc(y_te, classify(clean)), mcc(y_te, classify(attacked)))
            assert acc_rpd is not None and mcc_rpd is not None
            drops[mode] = (abs(acc_rpd), abs(mcc_rpd))
        win = (
            drops["adversarial"][0] < drops["normal"][0]
            and drops["adversarial"][1] < drops["normal"][1]
        )
        wins += win
        details.append(f"{drops['normal'][0]:.2f}>{drops['adversarial'][0]:.2f}")
    assert wins >= 4
    _passed(
        f"5 robustness: |relative degradation| smaller for the adversarially "
        f"trained model (Acc and MCC) in {wins}/5 paired seeds (acc drops {' '.join(details)})"
    )


def test_06_metric_fixtures_are_exact():
    labels = [1, 1, 1, -1, -1, -1, -1]
    predicted = [1, 1, -1, 1, -1, -1, -1]
    assert confusion_counts(labels, predicted) == (2, 3, 1, 1)
    assert accuracy(labels, predicted) == 500 / 7
    assert mcc(labels, predicted) == 5 / 12
    assert mcc_from_counts(2, 3, 1, 1) == 5 / 12
    assert mcc_from_counts(3, 0, 4, 0) == 0.0  # a zero marginal zeroes the score
    assert mcc([1, -1, 1, -1], [1, 1, 1, 1]) == 0.0
    assert accuracy([1, 1, -1, -1], [1, 1, -1, 1]) == 75.0
    _passed("6 metric fixtures: Acc and MCC match hand-computed values exactly, "
            "including MCC 5/12 and the zero-denominator convention")


def test_07_pipeline_rerun_is_byte_identical(tmp_path):
    prices = tmp_path / "prices"
    write_regime_price_csv(prices, n_stocks=4, n_days=120, seed=11)
    artifacts = ("dataset.bin", "model.ckpt", "loss_curves.csv",
                 "metrics.csv", "predictions.csv", "confidence_histogram.csv")
    contents = []
    for run in ("one", "two"):
        out = tmp_path / run
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(
            f"data.path = {prices}\n"
            f"out.dir = {out}\n"
            "data.lag = 5\n"
            "split.train_end = 2020-03-01\n"
            "split.val_end = 2020-04-01\n"
            "split.test_end = 2020-05-01\n"
            "model.map_size = 8\n"
            "model.hidden_size = 8\n"
            "train.mode = adversarial\n"
            "train.epochs = 5\n"
            "train.batch_size = 64\n"
            "train.seed = 3\n"
        )
        for command in ("build", "train", "eval"):
            assert cli_main([command, "--config", str(cfg)]) == 0
        contents.append({name: (out / name).read_bytes() for name in artifacts})
    assert contents[0] == contents[1]
    _passed("7 determinism: build/train/eval twice produced byte-identical "
            + ", ".join(artifacts))


def test_08_reproduction_recipe_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    recipe = readme[readme.index("## Reproducing the reference benchmark"):]
    for needle in ("57.20", "1.5", "1024", "0.01", "seeds 0-4", "150 epochs", "report"):
        assert needle in recipe, f"recipe is missing {needle!r}"
    _passed("8 reproduction: README documents the full-data recipe (grid, 5 seeds, "
            "batch 1024, lr 0.01, target 57.20 +- 1.5); documentation check only, "
            "needs data the repository does not ship")
