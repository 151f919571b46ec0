"""Training: the hinge objective, latent-space perturbations, Adam, and
the epoch loop.

Every training mode minimises one objective, computed by ``_objective``:

    loss = scale * sum_s l(y_s, yhat_s)
         + weight * scale * sum_s mask_s * l(y_s, yhat_s + r_s . w_head)
         + 0.5 * l2 * ||params||^2

with l the hinge loss max(0, 1 - y*yhat) and yhat_s = w_head . e_s +
b_head the linear head on the latent representation e_s; the head is
linear, so at e_s + r_s it gives yhat_s + r_s . w_head.  The modes
differ only in the perturbation r:

- "normal": none, so the second term is absent;
- "adversarial": the fast-gradient step r = eps * g / ||g|| with
  g = dl/de = -y * w_head, on the rows whose hinge is active
  (``adversarial_perturbations``).  There r . w_head = -y * eps *
  ||w_head||: the perturbed term is the active rows' hinge with every
  margin y * yhat shifted down by eps * ||w_head||;
- "random_perturbation": a uniform draw from the eps-sphere on every
  row (``sphere_noise``), which ``train`` makes for a whole minibatch.

The perturbation is a constant during differentiation: gradients flow
through e into the network but not through r's dependence on w_head.
So the perturbed term's upstream gradient joins the clean one in one
``backward`` call, and w_head alone gains a term, the rows' sum of that
gradient times r.  Batch sums are scaled by (train-set size / batch
size) so the L2 term keeps the same relative weight at any batch size.
In every mode, a minibatch takes its gradient as the sum of fixed chunks
of at most ``STEP_ROWS`` rows (see ``train``).

The hinge has zero gradient at every margin of at least 1, so a chunk in
which no row's clean or perturbed hinge is active has an all-zero
upstream gradient.  Such a chunk skips ``backward`` and takes a zero
gradient.  No byte moves: ``backward`` adds every term with += onto
zeros, and from an all-zero upstream and finite windows it adds +0.0
(non-finite parameters make the loss non-finite, which raises first).
How many chunks skip depends on the market.  Once a model separates its
training rows with margin 1, whole chunks do: 33-46% of the chunks of
the benchmark's ``grid_sweep`` over seeds 1-5.  A noisy market keeps
nearly every row active, and none skip on ``train_adv_ref``.

The attack (``attacked_confidences``) is the same margin shift at test
time: the clean confidences, moved by -y * eps * ||w_head|| on the rows
whose hinge is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, DivergenceError, NumericError, ShapeError
from .forking import forked
from .model import (
    ForwardTrace,
    ModelDims,
    ParamSet,
    _sum_batch,
    backward,
    classify,
    forward,
    init_params,
    predict,
)

MODES = ("normal", "adversarial", "random_perturbation")

# Below this gradient norm the fast-gradient direction is undefined and
# no adversarial example is generated.
GRAD_NORM_FLOOR = 1e-12

# Rows per chunk of a training step: a larger minibatch's gradient is the
# sum of its chunks' gradients, in chunk order, wherever they are computed.
STEP_ROWS = 512

# Adam's moment decay rates and denominator floor, as Kingma & Ba (2015) set them.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def _check_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ContractError("labels must be +1 or -1")
    return y


def _hinge(y: np.ndarray, yhat) -> tuple[np.ndarray, np.ndarray]:
    """The hinge and its subgradient from one margin y*yhat, for checked labels."""
    m = y * np.asarray(yhat, dtype=np.float64)
    return np.maximum(0.0, 1.0 - m), np.where(m < 1.0, -y, 0.0)


def hinge_loss(y, yhat) -> np.ndarray:
    """max(0, 1 - y*yhat), elementwise."""
    return _hinge(_check_labels(y), yhat)[0]


def hinge_grad(y, yhat) -> np.ndarray:
    """Subgradient of the hinge w.r.t. yhat: -y where y*yhat < 1, else 0
    (0 at the kink)."""
    return _hinge(_check_labels(y), yhat)[1]


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
    e + r, that is at yhat + r . w_head, over the rows where ``mask``
    holds (every row when ``mask`` is None); r enters as a constant.
    The unscaled clean hinge sum is appended to ``_hinge_sums`` when
    that list is given.  ``y`` holds labels already checked.

    When the upstream gradient of both terms is all zero (no clean or
    perturbed hinge is active), ``backward`` and the w_head sum are
    skipped: from zeros they would add +0.0 to a zeroed ``ParamSet``, so
    ``params.zeros_like()`` has the same bytes.  The L2 term is added
    either way.  Both terms are tested, since a row with clean margin
    at least 1 can still have an active perturbed hinge, and at a
    negative ``weight`` the two can cancel in the combined upstream.

    Private on purpose: the benchmark's tracer keys training-step metrics
    on the public ``objective_*`` spans that call this one.
    """
    if y.size == 0:
        raise ContractError("objective needs a non-empty batch")
    rows, d_rows = _hinge(y, trace.yhat)
    loss = np.sum(rows)
    if _hinge_sums is not None:
        _hinge_sums.append(float(loss))
    d_yhat = scale * d_rows
    if r is not None:
        on = 1.0 if mask is None else mask
        rows, d_rows = _hinge(y, trace.yhat + r @ params.w_head)
        loss = loss + weight * np.sum(rows * on)
        d_yhat_adv = scale * weight * d_rows * on
        d_yhat = d_yhat + d_yhat_adv
    loss = scale * float(loss) + 0.5 * l2_coef * params.l2_norm_sq()
    if not np.isfinite(loss):
        raise NumericError("objective is non-finite")
    if d_yhat.any() or (r is not None and d_yhat_adv.any()):
        grads = backward(params, trace, d_yhat)
        if r is not None:
            grads.w_head += _sum_batch(r, d_yhat_adv)
    else:  # no active hinge: backward would add +0.0 to every zero
        grads = params.zeros_like()
    if l2_coef:
        grads.flat += l2_coef * params.flat
    return loss, grads


def _batch_labels(y: np.ndarray, batch_shape: tuple[int, ...]) -> np.ndarray:
    """``y`` checked to hold one +1/-1 label per window of the batch."""
    y = _check_labels(y)
    if y.shape != batch_shape:
        raise ShapeError(f"labels have shape {y.shape}, but the batch has shape {batch_shape}")
    return y


def objective_normal(
    x: np.ndarray, y: np.ndarray, params: ParamSet, l2_coef: float, scale: float = 1.0,
    *, _hinge_sums: list[float] | None = None,
) -> tuple[float, ParamSet]:
    """Clean hinge sum plus L2 regularizer; returns (loss, gradients)."""
    y = _batch_labels(y, np.shape(x)[:-2])
    return _objective(forward(x, params), y, params, l2_coef, scale, _hinge_sums=_hinge_sums)


def _perturbed_rows(yhat: np.ndarray, y: np.ndarray, head_norm: float) -> np.ndarray:
    """The rows a fast-gradient step perturbs: those whose hinge is
    active, and none when ``head_norm`` = ||w_head|| is below
    ``GRAD_NORM_FLOOR``."""
    return (y * np.asarray(yhat) < 1.0) & (head_norm >= GRAD_NORM_FLOOR)


def adversarial_perturbations(
    yhat: np.ndarray, y: np.ndarray, params: ParamSet, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Batched fast-gradient perturbations at e.

    Returns (r_adv, mask): r_adv has a zero row wherever mask is False
    (see ``_perturbed_rows``).
    """
    if eps < 0:
        raise ContractError(f"perturbation scale must be >= 0, got {eps}")
    y = _batch_labels(y, np.shape(yhat))
    norm = float(np.linalg.norm(params.w_head))
    mask = _perturbed_rows(yhat, y, norm)
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
    y = _batch_labels(y, np.shape(x)[:-2])
    trace = forward(x, params)
    if np.shape(r_adv) != trace.e.shape or np.shape(mask) != y.shape:
        raise ShapeError(f"r_adv {np.shape(r_adv)} and mask {np.shape(mask)} must have "
                         f"shapes {trace.e.shape} and {y.shape}")
    return _objective(trace, y, params, l2_coef, scale, adv_weight, r_adv, mask)


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
    y = _batch_labels(y, np.shape(x)[:-2])
    trace = forward(x, params)
    r_adv, mask = adversarial_perturbations(trace.yhat, y, params, adv_scale)
    return _objective(trace, y, params, l2_coef, scale, adv_weight, r_adv, mask, _hinge_sums)


def objective_random(
    x: np.ndarray,
    y: np.ndarray,
    params: ParamSet,
    l2_coef: float,
    adv_weight: float,
    r: np.ndarray,
    scale: float = 1.0,
    *, _hinge_sums: list[float] | None = None,
) -> tuple[float, ParamSet]:
    """Clean + random-perturbation objective: every example's e is
    perturbed by its row of ``r``, shaped like e (a ``sphere_noise``
    draw in training)."""
    y = _batch_labels(y, np.shape(x)[:-2])
    trace = forward(x, params)
    if np.shape(r) != trace.e.shape:
        raise ShapeError(f"r has shape {np.shape(r)}, but e has shape {trace.e.shape}")
    return _objective(trace, y, params, l2_coef, scale, adv_weight, r, _hinge_sums=_hinge_sums)


def attacked_confidences(
    x: np.ndarray, y: np.ndarray, params: ParamSet, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Clean and under-attack confidences for every example.

    The attack is the fast-gradient step of ``adversarial_perturbations``
    against the given parameters, taken in closed form: the head is
    linear, so it moves each perturbed row's confidence by
    r . w_head = -y * eps * ||w_head||, and leaves the other rows (see
    ``_perturbed_rows``) as they are.  So it costs ``predict``, which
    scores in blocks, plus one vector operation.
    """
    if eps < 0:
        raise ContractError(f"perturbation scale must be >= 0, got {eps}")
    y = _batch_labels(y, np.shape(x)[:-2])
    yhat = predict(x, params)
    norm = float(np.linalg.norm(params.w_head))
    return yhat, np.where(_perturbed_rows(yhat, y, norm), yhat - (eps * norm) * y, yhat)


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
) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update of ``params.flat``, ``state.m`` and
    ``state.v``, in place; returns the same params and state."""
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if m.shape != p.shape or v.shape != p.shape or g.shape != p.shape:
        raise ShapeError("Adam state/gradient shapes do not match the parameters")
    state.step += 1
    m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**state.step)
    v_hat = v / (1.0 - ADAM_BETA2**state.step)
    p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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
    loss = float(np.mean(_hinge(y, yhat)[0]))
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
    *,
    workers: int = 1,
) -> TrainResult:
    """Seeded mini-batch training with best-validation-accuracy selection.

    ``x_train`` is read only through ``len(x_train)`` and ``x_train[idx]``
    with an index array, once per step or per chunk, so it is an ndarray of
    windows or a ``market_data.Windows``, which gathers each minibatch from
    the panel.

    Shuffling, initialization, and random perturbations all draw from
    one generator seeded by ``config.seed``, so identical inputs and
    seeds reproduce identical checkpoints.  Epochs end early after
    ``patience`` epochs without a validation-accuracy improvement.
    ``EpochRecord.train_loss`` is the mean clean hinge that the epoch's
    steps computed, each at the parameters before its update; the
    validation split is scored once at each epoch's end.  Without a
    validation split every epoch is the latest best, so the final
    parameters are returned and patience never fires.  Raises
    DivergenceError when the loss or the parameters stop being finite.

    Every minibatch, in every mode, is cut into chunks of ``STEP_ROWS``
    rows, so one of at most ``STEP_ROWS`` rows is one chunk.  Each chunk
    calls the mode's ``objective_*`` without the L2 term; the step's
    gradient is the chunks' sum in chunk order plus the L2 term, and the
    step raises NumericError when the whole batch's loss is non-finite.
    In "random_perturbation" mode this process draws the whole batch's
    ``sphere_noise`` once per step, before the chunks, and each chunk
    takes its rows of it.  ``workers`` counts the processes that compute
    chunks, this one included; the others are forked once per call, only
    when a batch has chunks for them, and each step's chunks are shared
    out by ``forking.forked``.  Each process gathers its chunks' rows
    itself.  No result depends on ``workers``.
    """
    for split, x, y in (("train", x_train, y_train), ("validation", x_val, y_val)):
        if len(x) != len(y):
            raise ShapeError(f"{split} split has {len(x)} windows but {len(y)} labels")
    y_train = _check_labels(y_train)
    if y_train.size == 0:
        raise ContractError("training needs a non-empty train split")
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
        "random_perturbation": (objective_random, (config.adv_weight,)),
    }[config.mode]

    def chunk(idx, flat, scale, *noise):
        """(gradient vector, loss, clean hinge sum) of the rows ``idx`` at
        the parameter vector ``flat``, without the L2 term; ``noise`` holds
        those rows' perturbation in random mode."""
        if flat is not params.flat:  # in a helper, whose params are its own copy
            params.flat[...] = flat
        hinge_sums: list[float] = []
        loss, grads = objective(x_train[idx], y_train[idx], params, 0.0, *extra, *noise, scale,
                                _hinge_sums=hinge_sums)
        return grads.flat, loss, hinge_sums[0]

    best_params = params.copy()
    best_epoch = 0
    best_acc = -np.inf
    best_val_yhat = None
    history: list[EpochRecord] = []

    chunks = -(-min(config.batch_size, n) // STEP_ROWS)
    grads = params.zeros_like()  # each step's gradient, summed here in chunk order
    with forked(chunk, min(workers, chunks) - 1) as share:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            hinge_sums: list[float] = []
            try:
                for start in range(0, n, config.batch_size):
                    idx = order[start : start + config.batch_size]
                    scale = scale_total / idx.size
                    noise = ([sphere_noise((idx.size, *params.w_head.shape), config.adv_scale, rng)]
                             if config.mode == "random_perturbation" else [])
                    requests = [(idx[s : s + STEP_ROWS], params.flat, scale,
                                 *(r[s : s + STEP_ROWS] for r in noise))
                                for s in range(0, idx.size, STEP_ROWS)]
                    flats, losses, sums = zip(*share(requests))
                    grads.flat[...] = flats[0]
                    for flat in flats[1:]:
                        grads.flat += flat
                    if config.l2_coef:
                        grads.flat += config.l2_coef * params.flat
                    hinge_sums += sums
                    if not np.isfinite(sum(losses) + 0.5 * config.l2_coef * params.l2_norm_sq()):
                        raise NumericError("objective is non-finite")
                    params, state = adam_step(params, grads, state, config.learning_rate)
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

            if not y_val.size or val_acc > best_acc:
                best_acc = val_acc
                best_epoch = epoch
                best_params = params.copy()
                best_val_yhat = val_yhat
            if config.patience and epoch - best_epoch >= config.patience:
                break

    if best_val_yhat is None:
        # Zero epochs or no validation split: nothing scored best_params yet.
        best_val_yhat = predict(x_val, best_params)
    return TrainResult(
        params=best_params,
        best_epoch=best_epoch,
        history=history,
        final_params=params,
        val_yhat=best_val_yhat,
    )
