"""Training: the hinge objective, latent-space perturbations, Adam, and
the epoch loop.

Every training mode minimises one objective, computed by ``_objective``:

    loss = scale * sum_s l(y_s, yhat(e_s))
         + weight * scale * sum_s mask_s * l(y_s, yhat(e_s + r_s))
         + 0.5 * l2 * ||params||^2

with l the hinge loss max(0, 1 - y*yhat) and yhat(e) = w_head . e +
b_head the linear head on the latent representation e.  The modes
differ only in the perturbation r:

- "normal": none, so the second term is absent;
- "adversarial": the fast-gradient step r = eps * g / ||g|| with
  g = dl/de = -y * w_head, on the rows whose hinge is active
  (``adversarial_perturbations``);
- "random_perturbation": a uniform draw from the eps-sphere on every
  row (``sphere_noise``).

The perturbation is a constant during differentiation: gradients flow
through e into the network but not through r's dependence on w_head.
Batch sums are scaled by (train-set size / batch size) so the L2 term
keeps the same relative weight at any batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, DivergenceError, NumericError, ShapeError
from .model import (
    ForwardTrace,
    ModelDims,
    ParamSet,
    _join,
    _map_blocks,
    backward,
    classify,
    forward,
    head_forward,
    init_params,
    predict,
)

MODES = ("normal", "adversarial", "random_perturbation")

# Below this gradient norm the fast-gradient direction is undefined and
# no adversarial example is generated.
GRAD_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run."""

    mode: str = "normal"
    l2_coef: float = 0.01          # weight of the squared-norm regularizer
    adv_weight: float = 0.05       # weight of the perturbed-loss term
    adv_scale: float = 0.01        # perturbation radius
    learning_rate: float = 0.01
    batch_size: int = 1024
    epochs: int = 150
    seed: int = 0
    patience: int = 20             # epochs without val-acc improvement; 0 disables

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("l2_coef", "adv_weight", "adv_scale"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience < 0:
            raise ContractError(f"patience must be >= 0, got {self.patience}")


def _check_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ContractError("labels must be +1 or -1")
    return y


def hinge_loss(y, yhat) -> np.ndarray:
    """max(0, 1 - y*yhat), elementwise."""
    y = _check_labels(y)
    return np.maximum(0.0, 1.0 - y * np.asarray(yhat, dtype=np.float64))


def hinge_grad(y, yhat) -> np.ndarray:
    """Subgradient of the hinge w.r.t. yhat: -y where y*yhat < 1, else 0
    (0 at the kink)."""
    y = _check_labels(y)
    active = (y * np.asarray(yhat, dtype=np.float64)) < 1.0
    return np.where(active, -y, 0.0)


def _objective(
    trace: ForwardTrace,
    y: np.ndarray,
    params: ParamSet,
    l2_coef: float,
    scale: float,
    weight: float = 0.0,
    r: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    _hinge_sums: list[float] | None = None,
) -> tuple[float, ParamSet]:
    """The hinge objective and its exact gradients, given a forward trace.

    With ``r`` None this is the clean hinge sum plus the L2 term.  Given
    a perturbation ``r`` of e, it adds ``weight`` times the hinge at
    e + r over the rows where ``mask`` holds (every row when ``mask`` is
    None); r enters as a constant.  The unscaled clean hinge sum is
    appended to ``_hinge_sums`` when that list is given.

    Private on purpose: the benchmark's tracer keys training-step metrics
    on the public ``objective_*`` spans that call this one.
    """
    loss = np.sum(hinge_loss(y, trace.yhat))
    if _hinge_sums is not None:
        _hinge_sums.append(float(loss))
    e_adv = d_yhat_adv = None
    if r is not None:
        on = 1.0 if mask is None else mask
        e_adv = trace.e + r
        yhat_adv = head_forward(e_adv, params)
        loss = loss + weight * np.sum(hinge_loss(y, yhat_adv) * on)
        d_yhat_adv = scale * weight * hinge_grad(y, yhat_adv) * on
    loss = scale * float(loss) + 0.5 * l2_coef * params.l2_norm_sq()
    if not np.isfinite(loss):
        raise NumericError("objective is non-finite")
    d_yhat = scale * hinge_grad(y, trace.yhat)
    grads, _ = backward(params, trace, d_yhat, d_yhat_adv, e_adv)
    if l2_coef:
        grads.flat += l2_coef * params.flat
    return loss, grads


def _batch_labels(y: np.ndarray) -> np.ndarray:
    y = _check_labels(y)
    if y.size == 0:
        raise ContractError("objective needs a non-empty batch")
    return y


def objective_normal(
    x: np.ndarray, y: np.ndarray, params: ParamSet, l2_coef: float, scale: float = 1.0,
    *, _hinge_sums: list[float] | None = None,
) -> tuple[float, ParamSet]:
    """Clean hinge sum plus L2 regularizer; returns (loss, gradients)."""
    y = _batch_labels(y)
    return _objective(forward(x, params), y, params, l2_coef, scale, _hinge_sums=_hinge_sums)


def adversarial_perturbations(
    yhat: np.ndarray, y: np.ndarray, params: ParamSet, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Batched fast-gradient perturbations at e.

    Returns (r_adv, mask): r_adv has a zero row wherever mask is False
    (hinge inactive or degenerate head).
    """
    if eps < 0:
        raise ContractError(f"perturbation scale must be >= 0, got {eps}")
    y = _check_labels(y)
    norm = float(np.linalg.norm(params.w_head))
    mask = (y * np.asarray(yhat) < 1.0) & (norm >= GRAD_NORM_FLOOR)
    if norm < GRAD_NORM_FLOOR:
        return np.zeros(y.shape + params.w_head.shape), mask
    direction = -(eps / norm) * params.w_head
    r_adv = np.where(mask[..., None], y[..., None] * direction, 0.0)
    return r_adv, mask


def sphere_noise(shape: tuple, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the eps-sphere along the last axis."""
    if eps < 0:
        raise ContractError(f"perturbation scale must be >= 0, got {eps}")
    v = rng.standard_normal(shape)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    while np.any(norms < GRAD_NORM_FLOOR):  # essentially never
        bad = norms[..., 0] < GRAD_NORM_FLOOR
        v[bad] = rng.standard_normal(v[bad].shape)
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return (eps / norms) * v


def objective_adversarial_frozen(
    x: np.ndarray,
    y: np.ndarray,
    params: ParamSet,
    r_adv: np.ndarray,
    mask: np.ndarray,
    l2_coef: float,
    adv_weight: float,
    scale: float = 1.0,
) -> tuple[float, ParamSet]:
    """Adversarial objective with externally supplied perturbations.

    This is the function whose exact gradient the training step takes;
    finite-differencing it (holding r_adv and mask fixed) must agree
    with the analytic gradients.
    """
    y = _check_labels(y)
    return _objective(forward(x, params), y, params, l2_coef, scale, adv_weight, r_adv, mask)


def objective_adversarial(
    x: np.ndarray,
    y: np.ndarray,
    params: ParamSet,
    l2_coef: float,
    adv_weight: float,
    adv_scale: float,
    scale: float = 1.0,
    *, _hinge_sums: list[float] | None = None,
) -> tuple[float, ParamSet]:
    """Clean + adversarial hinge objective; returns (loss, gradients).

    With adv_weight = 0 this is exactly objective_normal, bit for bit.
    """
    y = _batch_labels(y)
    trace = forward(x, params)
    if adv_weight == 0.0:
        return _objective(trace, y, params, l2_coef, scale, _hinge_sums=_hinge_sums)
    r_adv, mask = adversarial_perturbations(trace.yhat, y, params, adv_scale)
    return _objective(trace, y, params, l2_coef, scale, adv_weight, r_adv, mask, _hinge_sums)


def objective_random(
    x: np.ndarray,
    y: np.ndarray,
    params: ParamSet,
    l2_coef: float,
    adv_weight: float,
    adv_scale: float,
    rng: np.random.Generator,
    scale: float = 1.0,
    *, _hinge_sums: list[float] | None = None,
) -> tuple[float, ParamSet]:
    """Clean + random-perturbation objective (every example perturbed)."""
    y = _batch_labels(y)
    trace = forward(x, params)
    r = sphere_noise(trace.e.shape, adv_scale, rng)
    return _objective(trace, y, params, l2_coef, scale, adv_weight, r, _hinge_sums=_hinge_sums)


def attacked_confidences(
    x: np.ndarray, y: np.ndarray, params: ParamSet, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Clean and under-attack confidences for every example.

    The attack regenerates fast-gradient perturbations against the given
    parameters; examples without an adversarial example (inactive hinge)
    keep their clean representation.  Runs in the blocks ``predict``
    uses, so memory does not grow with the batch.
    """
    y = _check_labels(y)

    def attack(rows, trace: ForwardTrace) -> tuple[np.ndarray, np.ndarray]:
        r_adv, _ = adversarial_perturbations(trace.yhat, y[rows], params, eps)
        return trace.yhat, head_forward(trace.e + r_adv, params)

    clean, attacked = zip(*_map_blocks(x, params, attack))
    return _join(clean), _join(attacked)


@dataclass
class AdamState:
    """Adam accumulators over the flat parameter vector."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def for_params(cls, params: ParamSet) -> "AdamState":
        n = params.flat.size
        return cls(step=0, m=np.zeros(n), v=np.zeros(n))


def adam_step(
    params: ParamSet,
    grads: ParamSet,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update of ``params.flat``, ``state.m`` and
    ``state.v``, in place; returns the same params and state."""
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if m.shape != p.shape or v.shape != p.shape or g.shape != p.shape:
        raise ShapeError("Adam state/gradient shapes do not match the parameters")
    state.step += 1
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**state.step)
    v_hat = v / (1.0 - beta2**state.step)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float  # mean clean hinge over the epoch's steps, at the params each step saw
    val_loss: float    # mean clean hinge over the validation split, at the epoch's end
    val_acc: float     # percent


@dataclass
class TrainResult:
    params: ParamSet          # best-validation-accuracy checkpoint
    best_epoch: int           # 0 means the initialization was returned
    history: list[EpochRecord] = field(default_factory=list)
    final_params: ParamSet | None = None
    val_yhat: np.ndarray | None = None  # params' validation confidences


def _mean_hinge(
    x: np.ndarray, y: np.ndarray, params: ParamSet
) -> tuple[float, float, np.ndarray | None]:
    """(mean hinge, accuracy percent, confidences) of a split;
    (nan, nan, None) when empty."""
    if y.size == 0:
        return float("nan"), float("nan"), None
    yhat = predict(x, params)
    loss = float(np.mean(hinge_loss(y, yhat)))
    acc = 100.0 * float(np.mean(classify(yhat) == y))
    return loss, acc, yhat


def train(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    dims: ModelDims,
    config: TrainConfig,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> TrainResult:
    """Seeded mini-batch training with best-validation-accuracy selection.

    Shuffling, initialization, and random perturbations all draw from
    one generator seeded by ``config.seed``, so identical inputs and
    seeds reproduce identical checkpoints.  Epochs end early after
    ``patience`` epochs without a validation-accuracy improvement.
    ``EpochRecord.train_loss`` is the mean clean hinge that the epoch's
    steps computed, each at the parameters before its update; the
    validation split is scored once at each epoch's end.  Raises
    DivergenceError when the loss or the parameters stop being finite.
    """
    for split, x, y in (("train", x_train, y_train), ("validation", x_val, y_val)):
        if len(x) != len(y):
            raise ShapeError(f"{split} split has {len(x)} windows but {len(y)} labels")
    y_train = _check_labels(y_train)
    if y_train.size == 0:
        raise ContractError("training needs a non-empty train split")
    if y_val.size:
        y_val = _check_labels(y_val)

    rng = np.random.default_rng(config.seed)
    params = init_params(dims, rng)
    state = AdamState.for_params(params)
    n = y_train.size
    scale_total = float(n)
    # Resolved at each call of train(), so wrappers installed on the
    # module's objective_* names (the benchmark's tracer) see every step.
    objective, extra = {
        "normal": (objective_normal, ()),
        "adversarial": (objective_adversarial, (config.adv_weight, config.adv_scale)),
        "random_perturbation": (objective_random, (config.adv_weight, config.adv_scale, rng)),
    }[config.mode]

    best_params = params.copy()
    best_epoch = 0
    best_acc = -np.inf
    best_val_yhat = None
    history: list[EpochRecord] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        hinge_sums: list[float] = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            scale = scale_total / idx.size
            try:
                _, grads = objective(xb, yb, params, config.l2_coef, *extra, scale,
                                     _hinge_sums=hinge_sums)
            except NumericError as exc:
                raise DivergenceError(f"epoch {epoch}: {exc}") from exc
            params, state = adam_step(params, grads, state, config.learning_rate)

        try:
            val_loss, val_acc, val_yhat = _mean_hinge(x_val, y_val, params)
        except NumericError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}") from exc
        if not np.isfinite(params.flat).all():
            raise DivergenceError(f"epoch {epoch}: parameters are non-finite")
        record = EpochRecord(epoch=epoch, train_loss=sum(hinge_sums) / n,
                             val_loss=val_loss, val_acc=val_acc)
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)

        if np.isfinite(val_acc) and val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = params.copy()
            best_val_yhat = val_yhat
        if config.patience and np.isfinite(best_acc) and epoch - best_epoch >= config.patience:
            break

    if not np.isfinite(best_acc) and history:
        # No usable validation split: fall back to the final epoch.
        best_params = params
        best_epoch = history[-1].epoch
    if best_val_yhat is None:
        # Zero epochs or no usable validation split: nothing scored best_params yet.
        best_val_yhat = predict(x_val, best_params)
    return TrainResult(
        params=best_params,
        best_epoch=best_epoch,
        history=history,
        final_params=params,
        val_yhat=best_val_yhat,
    )
