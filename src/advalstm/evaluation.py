"""Metrics, robustness diagnostics, and multi-run aggregation.

Accuracy is reported in percent.  Matthews correlation is computed from
the confusion counts and defined as 0.0 whenever any marginal is empty,
so degenerate predictors score zero instead of dividing by zero.
Robustness is summarized by the relative performance drop
(attacked - clean) / clean, undefined when the clean score is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError


def confusion_counts(
    labels: Sequence[int] | np.ndarray, predictions: Sequence[int] | np.ndarray
) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) over +1/-1 labels and predictions."""
    y = np.asarray(labels)
    p = np.asarray(predictions)
    if y.shape != p.shape:
        raise ContractError("labels and predictions must have the same length")
    if y.size == 0:
        raise ContractError("metrics need at least one example")
    if not all(np.all((a == 1) | (a == -1)) for a in (y, p)):
        raise ContractError("labels and predictions must be +1 or -1")
    tp = int(np.sum((y == 1) & (p == 1)))
    tn = int(np.sum((y == -1) & (p == -1)))
    fp = int(np.sum((y == -1) & (p == 1)))
    fn = int(np.sum((y == 1) & (p == -1)))
    return tp, tn, fp, fn


def accuracy(labels, predictions) -> float:
    """Percent of predictions matching the labels."""
    tp, tn, fp, fn = confusion_counts(labels, predictions)
    return 100.0 * (tp + tn) / (tp + tn + fp + fn)


def mcc(labels, predictions) -> float:
    """Matthews correlation; 0.0 when any confusion marginal is empty."""
    tp, tn, fp, fn = confusion_counts(labels, predictions)
    return mcc_from_counts(tp, tn, fp, fn)


def mcc_from_counts(tp: int, tn: int, fp: int, fn: int) -> float:
    for v in (tp, tn, fp, fn):
        if v < 0:
            raise ContractError("confusion counts must be non-negative")
    if tp + tn + fp + fn == 0:
        raise ContractError("metrics need at least one example")
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom_sq)


def rpd(clean: float, attacked: float) -> float | None:
    """Relative performance drop; None when the clean score is zero."""
    if clean == 0.0:
        return None
    return (attacked - clean) / clean


@dataclass(frozen=True)
class HistogramReport:
    """Equal-width histogram of model confidences."""

    edges: np.ndarray    # bins+1 boundaries
    counts: np.ndarray   # bins integers

    def rows(self) -> list[tuple[float, float, int]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), int(self.counts[i]))
            for i in range(self.counts.size)
        ]


def confidence_histogram(confidences, bins: int = 20) -> HistogramReport:
    c = np.asarray(confidences, dtype=np.float64).ravel()
    if bins < 2:
        raise ContractError(f"histogram needs at least 2 bins, got {bins}")
    if c.size == 0:
        raise ContractError("histogram needs at least one confidence")
    if not np.all(np.isfinite(c)):
        raise ContractError("confidences must be finite")
    lo, hi = float(c.min()), float(c.max())
    if lo == hi:
        # Degenerate range: widen symmetrically so every value lands in a bin.
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(c, bins=bins, range=(lo, hi))
    return HistogramReport(edges=edges, counts=counts)


@dataclass(frozen=True)
class MetricSummary:
    """Mean and sample standard deviation over repeated runs."""

    mean: float
    std: float
    n_runs: int

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.std:.2f}"


def summarize_runs(values: Iterable[float]) -> MetricSummary:
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise ContractError("summary needs at least one run")
    std = 0.0 if vals.size == 1 else float(np.std(vals, ddof=1))
    return MetricSummary(mean=float(np.mean(vals)), std=std, n_runs=int(vals.size))
