"""A naive per-window forward pass, written independently of
``advalstm.model``, used to check the package's confidences.

One window at a time, one gate at a time, one time step at a time, with
matrix-vector products and the logistic function written out.
"""

from __future__ import annotations

import math

import numpy as np


def _logistic(v: np.ndarray) -> np.ndarray:
    return np.array([1.0 / (1.0 + math.exp(-a)) for a in v])


def confidence(window: np.ndarray, p) -> float:
    """w_head . [attention-pooled h; h_T] + b_head for one (T, D) window."""
    hidden = p.w_i.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    states = []
    for x_t in window:
        m = np.tanh(p.w_map @ x_t + p.b_map)
        z = np.concatenate([m, h])
        i = _logistic(p.w_i @ z + p.b_i)
        f = _logistic(p.w_f @ z + p.b_f)
        o = _logistic(p.w_o @ z + p.b_o)
        g = np.tanh(p.w_g @ z + p.b_g)
        c = f * c + i * g
        h = o * np.tanh(c)
        states.append(h)
    scores = [float(p.u_att @ np.tanh(p.w_att @ s + p.b_att)) for s in states]
    top = max(scores)
    weights = [math.exp(s - top) for s in scores]
    total = sum(weights)
    pooled = sum((w / total) * s for w, s in zip(weights, states))
    e = np.concatenate([pooled, states[-1]])
    # A stored checkpoint holds the scalar bias as a 1-element array.
    bias = float(np.reshape(p.b_head, -1)[0])
    return float(p.w_head @ e) + bias


def max_abs_error(windows: np.ndarray, params, predicted: np.ndarray) -> float:
    """Largest |reference - predicted| over the given windows."""
    ref = np.array([confidence(w, params) for w in windows])
    return float(np.max(np.abs(ref - np.asarray(predicted))))
