"""Attentive-LSTM model: forward passes with cached activations and
hand-derived backward passes.

Architecture, for one example with a lag window ``x`` of shape (T, D):

    m_t = tanh(W_map x_t + b_map)                    feature mapping
    h_t = LSTM(m_t, h_{t-1})                         recurrence (no peepholes)
    score_t = u_att . tanh(W_att h_t + b_att)        attention logit
    alpha = softmax(score), a = sum_t alpha_t h_t    temporal pooling
    e = [a; h_T]                                     latent representation
    yhat = w_head . e + b_head                       confidence, class = sign

Every function broadcasts over leading batch axes, so the same code
path serves a single (T, D) window and a batch (B, T, D).  All math is
float64; backward passes are exact adjoints of the forward code and are
validated against central finite differences in the test suite.  The LSTM
trace is time-major, (T, ..., width), allocated once and filled in place
step by step; only h is batch-major, (..., T, hidden), as attention reads it.
The gates are one gate-major array (T, 4, ..., hidden), ordered i, f, o, g:
a step is one stacked matrix product into it, one sigmoid over gates i, f, o
and one tanh over g, each on a contiguous slice.

Scoring and training use one BLAS call or one numpy ufunc per op: every
dense projection is one 2-D matrix product over the flattened batch, with
its weight copied to a contiguous, untransposed operand once per call, the
sigmoid is numpy's ``exp`` in place, and each batch sum of a gradient is
one matrix-vector product.  Scoring (``predict``) runs ``forward`` on
blocks of ``EVAL_ROWS`` windows along the leading axis, so its memory
stays one block's trace however large the split.

Parameters live in one flat float64 vector (``ParamSet.flat``); the named
tensors are views of it, laid out in ``PARAM_FIELDS`` order with the
shapes ``param_shapes`` gives, so optimizers and regularizers update the
whole vector in place.  The gate weights are adjacent, as are the gate
biases, so the stacked ``w_gates`` (4, hidden, map + hidden) and ``b_gates``
(4, hidden) share memory with ``w_i``..``w_g`` and ``b_i``..``b_g``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericError, ShapeError

PARAM_FIELDS = (
    "w_map", "b_map",
    "w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g",
    "w_att", "b_att", "u_att",
    "w_head", "b_head",
)

# Windows per scoring block: the default training batch size, so BLAS calls
# stay as efficient as in a step, while one block's trace (7.7 MB at hidden
# 16, lag 5) replaces a whole split's (about 150 MB for 19,830 windows).
EVAL_ROWS = 1024


@dataclass(frozen=True)
class ModelDims:
    """Layer sizes.  ``att_size`` defaults to ``hidden_size``."""

    feat_dim: int
    map_size: int = 16
    hidden_size: int = 16
    att_size: int = 0

    def __post_init__(self):
        if self.att_size == 0:
            object.__setattr__(self, "att_size", self.hidden_size)
        for name in ("feat_dim", "map_size", "hidden_size", "att_size"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's shape, in ``PARAM_FIELDS`` order.

    LSTM gate weights act on the concatenation [m_t; h_{t-1}], in the
    order input (i), forget (f), output (o), candidate (g).
    """
    d, e, u, a = dims.feat_dim, dims.map_size, dims.hidden_size, dims.att_size
    shapes = ((e, d), (e,), *[(u, e + u)] * 4, *[(u,)] * 4, (a, u), (a,), (a,), (2 * u,), ())
    return dict(zip(PARAM_FIELDS, shapes))


class ParamSet:
    """All trainable parameters in one float64 vector ``flat``.

    Each name in ``PARAM_FIELDS`` is a view of ``flat`` shaped as
    ``param_shapes(dims)`` says; the views tile ``flat`` in that order, so
    writing a view writes ``flat`` and whole-vector updates act in place.
    ``w_gates`` and ``b_gates`` are the four gates' spans, stacked.
    """

    def __init__(self, dims: ModelDims, flat: np.ndarray | None = None):
        shapes = param_shapes(dims)
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes.values()))
        flat = np.zeros(ends[-1]) if flat is None else np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (ends[-1],):
            raise ShapeError(f"parameter vector must have shape ({ends[-1]},), got {flat.shape}")
        self.dims = dims
        self.flat = flat
        starts = dict(zip(shapes, [0, *ends]))
        for (name, shape), end in zip(shapes.items(), ends):
            setattr(self, name, flat[starts[name]:end].reshape(shape))
        self.w_gates = flat[starts["w_i"]:starts["b_i"]].reshape(4, *shapes["w_i"])
        self.b_gates = flat[starts["b_i"]:starts["w_att"]].reshape(4, *shapes["b_i"])

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return ((name, getattr(self, name)) for name in PARAM_FIELDS)

    def to_vector(self) -> np.ndarray:
        return self.flat.copy()

    def from_vector(self, vec: np.ndarray) -> "ParamSet":
        """New ParamSet with this one's shapes and a copy of ``vec``'s values."""
        return ParamSet(self.dims, np.array(vec, dtype=np.float64))

    def zeros_like(self) -> "ParamSet":
        return ParamSet(self.dims)

    def copy(self) -> "ParamSet":
        return ParamSet(self.dims, self.flat.copy())

    def l2_norm_sq(self) -> float:
        """Squared norm of ``flat``; overflows to inf, which callers treat as divergence."""
        with np.errstate(over="ignore"):
            return float(np.sum(self.flat * self.flat))


def init_params(dims: ModelDims, rng: np.random.Generator) -> ParamSet:
    """Seeded initialization: uniform(-r, r) with r = sqrt(6/(fan_in+fan_out))
    for weights, drawn in ``PARAM_FIELDS`` order, and zero biases except the
    forget-gate bias at 1.0.  A vector weight feeds one output."""
    params = ParamSet(dims)
    for name, w in params.items():
        if not name.startswith("b_"):
            fan_out, fan_in = w.shape if w.ndim == 2 else (1, w.size)
            r = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-r, r, size=w.shape)
    params.b_f[...] = 1.0
    return params


@dataclass
class LstmTrace:
    """Cached LSTM activations, time-major (T, ..., width) except h."""

    z: np.ndarray       # (T, ..., map + hidden) gate inputs [m_t; h_{t-1}]
    gates: np.ndarray   # (T, 4, ..., hidden) activated gates i, f, o, g
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray       # (..., T, hidden), batch-major for attention and e


@dataclass
class AttentionTrace:
    proj: np.ndarray     # (..., T, att) tanh(W_att h + b_att)
    weights: np.ndarray  # (..., T) softmax over time
    pooled: np.ndarray   # (..., hidden)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs."""

    x: np.ndarray        # (..., T, feat)
    m: np.ndarray        # (..., T, map)
    lstm: LstmTrace
    att: AttentionTrace
    e: np.ndarray        # (..., 2 * hidden) = [pooled; h_T]
    yhat: np.ndarray     # (...,)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) into ``out``; exp overflows to inf, giving 0."""
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _project(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w.T`` over the last axis as one 2-D BLAS call, with ``w.T``
    copied to a contiguous operand."""
    w_t = np.ascontiguousarray(w.T)
    return (a.reshape(-1, a.shape[-1]) @ w_t).reshape(*a.shape[:-1], w.shape[0])


def map_forward(x: np.ndarray, params: ParamSet) -> np.ndarray:
    """Feature mapping: tanh dense layer, (..., feat) -> (..., map)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.w_map.shape[1]:
        raise ShapeError(
            f"input feature dim {x.shape[-1]} != mapping dim {params.w_map.shape[1]}"
        )
    return np.tanh(_project(x, params.w_map) + params.b_map)


def lstm_forward(m: np.ndarray, params: ParamSet) -> LstmTrace:
    """Run the LSTM over (..., T, map) starting from h_0 = c_0 = 0."""
    m = np.asarray(m, dtype=np.float64)
    u = params.w_i.shape[0]
    *lead, steps, e_map = m.shape
    if e_map + u != params.w_i.shape[1]:
        raise ShapeError(f"LSTM expects input width {params.w_i.shape[1] - u}, got {e_map}")
    rows = math.prod(lead)
    z = np.empty((steps, *lead, e_map + u))
    z[..., :e_map] = np.moveaxis(m, -2, 0)
    gates = np.empty((steps, 4, *lead, u))
    c, tanh_c = np.empty((steps, *lead, u)), np.empty((steps, *lead, u))
    h = np.empty((*lead, steps, u))
    w_t = np.ascontiguousarray(params.w_gates.transpose(0, 2, 1))
    b = params.b_gates.reshape(4, *[1] * len(lead), u)
    for t in range(steps):
        z[t, ..., e_map:] = h[..., t - 1, :] if t else 0.0
        act = gates[t]
        np.matmul(z[t].reshape(rows, e_map + u), w_t, out=act.reshape(4, rows, u))
        act += b
        _sigmoid(act[:3], out=act[:3])
        np.tanh(act[3], out=act[3])
        i, f, o, g = act
        np.multiply(f, c[t - 1] if t else 0.0, out=c[t])
        c[t] += i * g
        np.tanh(c[t], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=h[..., t, :])
    return LstmTrace(z=z, gates=gates, c=c, tanh_c=tanh_c, h=h)


def attention_forward(h_seq: np.ndarray, params: ParamSet) -> AttentionTrace:
    """Temporal attention over hidden states (..., T, hidden)."""
    h_seq = np.asarray(h_seq, dtype=np.float64)
    if h_seq.shape[-1] != params.w_att.shape[1]:
        raise ShapeError(
            f"attention expects hidden dim {params.w_att.shape[1]}, got {h_seq.shape[-1]}"
        )
    proj = np.tanh(_project(h_seq, params.w_att) + params.b_att)
    weights = softmax(proj @ params.u_att, axis=-1)
    pooled = np.einsum("...t,...tu->...u", weights, h_seq)
    return AttentionTrace(proj=proj, weights=weights, pooled=pooled)


def head_forward(e: np.ndarray, params: ParamSet) -> np.ndarray:
    """Linear head on the representation: w_head . e + b_head.

    The final class is sign(yhat), with 0 -> +1.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.shape[-1] != params.w_head.shape[0]:
        raise ShapeError(
            f"head expects representation dim {params.w_head.shape[0]}, got {e.shape[-1]}"
        )
    return e @ params.w_head + params.b_head


def forward(x: np.ndarray, params: ParamSet) -> ForwardTrace:
    """Full forward pass over (..., T, feat), caching all activations."""
    x = np.asarray(x, dtype=np.float64)
    m = map_forward(x, params)
    lstm = lstm_forward(m, params)
    att = attention_forward(lstm.h, params)
    e = np.concatenate([att.pooled, lstm.h[..., -1, :]], axis=-1)
    yhat = head_forward(e, params)
    if not np.all(np.isfinite(yhat)):
        raise NumericError("forward pass produced non-finite confidence")
    return ForwardTrace(x=x, m=m, lstm=lstm, att=att, e=e, yhat=yhat)


def predict(x: np.ndarray, params: ParamSet) -> np.ndarray:
    """Confidence values only; class is sign(yhat) with 0 -> +1.

    Scores blocks of ``EVAL_ROWS`` windows along the leading axis, so
    memory does not grow with the batch; a single window or a batch of
    at most ``EVAL_ROWS`` windows is exactly ``forward(x, params).yhat``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim <= 2 or len(x) <= EVAL_ROWS:
        return forward(x, params).yhat
    return np.concatenate([
        forward(x[start : start + EVAL_ROWS], params).yhat for start in range(0, len(x), EVAL_ROWS)
    ])


def classify(yhat: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(yhat) >= 0.0, 1.0, -1.0)


def _sum_batch(a: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Sum over every axis but the last, rows scaled by ``weights`` when
    given, as one BLAS matrix-vector product."""
    rows = a.reshape(-1, a.shape[-1])
    return (np.ones(len(rows)) if weights is None else weights.reshape(-1)) @ rows


def _contract_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over leading axes of outer(a[..., :], b[..., :]) -> (A, B)."""
    rows = a.shape[-1]
    cols = b.shape[-1]
    return a.reshape(-1, rows).T @ b.reshape(-1, cols)


def backward(params: ParamSet, trace: ForwardTrace, d_yhat: np.ndarray) -> ParamSet:
    """Exact parameter gradients of a scalar loss given upstream
    dLoss/dyhat, which has the trace's batch shape."""
    d_yhat = np.asarray(d_yhat, dtype=np.float64)
    if d_yhat.shape != trace.yhat.shape:
        raise ShapeError(f"upstream shape {d_yhat.shape} != confidence shape {trace.yhat.shape}")
    grads = params.zeros_like()
    grads.w_head += _sum_batch(trace.e, d_yhat)
    grads.b_head += np.sum(d_yhat)
    d_e = d_yhat[..., None] * params.w_head

    u = params.w_i.shape[0]
    e_map = params.w_map.shape[0]
    h_seq = trace.lstm.h
    alpha = trace.att.weights

    d_pooled = d_e[..., :u]
    d_h_last = d_e[..., u:]

    # Attention: pooled = sum_t alpha_t h_t, alpha = softmax(logits),
    # logits_t = u_att . tanh(W_att h_t + b_att).
    d_alpha = np.einsum("...u,...tu->...t", d_pooled, h_seq)
    d_logits = alpha * (d_alpha - np.sum(alpha * d_alpha, axis=-1, keepdims=True))
    proj = trace.att.proj
    grads.u_att += _sum_batch(proj, d_logits)
    d_pre_att = (d_logits[..., None] * params.u_att) * (1.0 - proj * proj)
    grads.w_att += _contract_outer(d_pre_att, h_seq)
    grads.b_att += _sum_batch(d_pre_att)
    d_h_seq = d_pre_att @ params.w_att + alpha[..., None] * d_pooled[..., None, :]

    # LSTM backward through time; d_pre holds the four gates' pre-activation gradients.
    lt = trace.lstm
    steps, *lead, width = lt.z.shape
    rows = math.prod(lead)
    d_h_next = d_h_last.copy()
    d_c_next = np.zeros_like(d_h_last)
    d_m = np.zeros_like(trace.m)
    d_pre = np.empty_like(lt.gates[0])
    d_pre_rows = d_pre.reshape(4, rows, u)
    ones = np.ones(rows)
    for t in reversed(range(steps)):
        i, f, o, g = lt.gates[t]
        tc = lt.tanh_c[t]
        c_prev = lt.c[t - 1] if t > 0 else np.zeros_like(tc)

        d_h = d_h_seq[..., t, :] + d_h_next
        d_c = d_c_next + d_h * o * (1.0 - tc * tc)
        np.multiply(d_c, g, out=d_pre[0])
        np.multiply(d_c, c_prev, out=d_pre[1])
        np.multiply(d_h, tc, out=d_pre[2])
        np.multiply(d_c, i, out=d_pre[3])
        d_pre[:3] *= lt.gates[t, :3]
        d_pre[:3] *= 1.0 - lt.gates[t, :3]
        d_pre[3] *= 1.0 - g * g

        grads.w_gates += d_pre_rows.transpose(0, 2, 1) @ lt.z[t].reshape(rows, width)
        grads.b_gates += ones @ d_pre_rows
        # One 2-D product per gate, summed in gate order: the bits of a
        # stacked product summed over gates, without its (4, rows, width)
        # temporary.
        d_z = d_pre_rows[0] @ params.w_gates[0]
        for k in range(1, 4):
            d_z += d_pre_rows[k] @ params.w_gates[k]
        d_z = d_z.reshape(*lead, width)
        d_m[..., t, :] = d_z[..., :e_map]
        d_h_next = d_z[..., e_map:]
        d_c_next = d_c * f

    # Feature mapping.
    d_pre_m = d_m * (1.0 - trace.m * trace.m)
    grads.w_map += _contract_outer(d_pre_m, trace.x)
    grads.b_map += _sum_batch(d_pre_m)
    return grads
