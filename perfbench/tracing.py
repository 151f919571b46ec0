"""Span tracing of the advalstm layers, applied from outside the package.

Each public function of a layer module is replaced by a wrapper that
records one span (name, start, end, parent, counts, phase) per call.
The modules import each other's functions by name, so a function is
wrapped in every namespace that holds it: ``advalstm.training.forward``
as well as ``advalstm.model.forward``.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "market_data",
    "artifacts",
    "model",
    "training",
    "gridsearch",
    "evaluation",
    "baselines",
    "cli",
)

# compute_features runs once per stock-day; a wrapper per call would
# inflate label_and_window, whose total is the span that matters.
SKIP = {"market_data.compute_features"}

# The unit of work of a layer that is not a public module function:
# a grid cell, and the stacking of a stored split into arrays.
PRIVATE = {"gridsearch._evaluate_cell": "gridsearch.evaluate_cell"}
METHODS = (("artifacts", "DatasetArtifact", "arrays"),)


def _batch(ndim):
    """Count of windows in the first argument: its leading axis when it
    has ``ndim`` axes, else 1 (a single window)."""

    def count(args, kwargs, result):
        a = np.asarray(args[0])
        return (a.shape[0] if a.ndim == ndim else 1), 0

    return count


def _perturbed(args, kwargs, result):
    mask = result[1]
    return int(mask.size), int(np.count_nonzero(mask))


def _rows(args, kwargs, result):
    return sum(len(v) for v in result.values()), 0


def _windows(args, kwargs, result):
    return sum(result.counts().values()), 0


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0]), 0


def _labels(args, kwargs, result):
    return int(np.asarray(args[1]).shape[0]), 0


# span name -> count function returning (n, k)
COUNTS = {
    "model.forward": _batch(3),
    "model.predict": _batch(3),
    "model.map_forward": _batch(3),
    "model.lstm_forward": _batch(3),
    "model.attention_forward": _batch(3),
    "model.head_forward": _batch(2),
    "training.adversarial_perturbations": _perturbed,
    "training.attacked_confidences": _batch(3),
    "training.objective_normal": _labels,
    "training.objective_adversarial": _labels,
    "training.objective_random": _labels,
    "market_data.ingest_eod": _rows,
    "market_data.label_and_window": _windows,
    "artifacts.save_dataset": _file_bytes,
}


class Tracer:
    """Installs span-recording wrappers and holds the recorded spans.

    A span is a tuple (name, start, end, parent, n, k, phase); parent is
    the index of the enclosing span or -1.  ``phase`` is set by the
    caller: 0 during set-up, r >= 1 during timed repetition r.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.phase = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._discover()

    def _discover(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) for every place a traced
        function is looked up."""
        modules = {name: getattr(self.package, name) for name in LAYERS}
        names: dict[int, str] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in PRIVATE:
                    names[id(value)] = PRIVATE[name]
                elif not attr.startswith("_") and name not in SKIP:
                    names[id(value)] = name
        targets = []
        for ns in (self.package, *vars(self.package).values()):
            if ns is self.package or inspect.ismodule(ns) and ns.__name__.startswith("advalstm."):
                targets += [
                    (ns, attr, names[id(value)])
                    for attr, value in vars(ns).items()
                    if id(value) in names
                ]
        targets += [
            (getattr(modules[layer], cls), attr, f"{layer}.{attr}")
            for layer, cls, attr in METHODS
        ]
        return targets

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        count = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n, k = count(args, kwargs, result) if count and done else (0, 0)
                spans[idx] = (name, start, end, parent, n, k, tracer.phase)

        return traced

    def install(self) -> None:
        if self._patches:
            return
        wrappers: dict[int, object] = {}
        for owner, attr, name in self._targets:
            original = vars(owner)[attr]
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, name)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as gzipped tab-separated text, one per line."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\tn\tk\tphase\n")
            for i, (name, start, end, parent, n, k, phase) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{n}\t{k}\t{phase}\n")


# ------------------------------------------------------------- analysis


class SpanTree:
    """Recorded spans with children, durations and self times."""

    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)
        self.dur = [s[2] - s[1] for s in spans]
        self.self_time = [
            self.dur[i] - sum(self.dur[c] for c in self.children[i])
            for i in range(len(spans))
        ]

    def name(self, i) -> str:
        return self.spans[i][0]

    def parent_name(self, i) -> str:
        p = self.spans[i][3]
        return self.spans[p][0] if p >= 0 else ""

    def select(self, pred) -> list[int]:
        """Matching spans of the timed repetitions, or of set-up when the
        timed commands never reach them."""
        timed = [i for i, s in enumerate(self.spans) if s[6] >= 1 and pred(i)]
        if timed:
            return timed
        return [i for i, s in enumerate(self.spans) if s[6] == 0 and pred(i)]

    def named(self, *names) -> list[int]:
        return self.select(lambda i: self.spans[i][0] in names)

    def subtree_self(self, root) -> float:
        total, todo = 0.0, [root]
        while todo:
            i = todo.pop()
            total += self.self_time[i]
            todo.extend(self.children[i])
        return total


OBJECTIVES = (
    "training.objective_normal",
    "training.objective_adversarial",
    "training.objective_random",
)
EVAL_PARENTS = ("training.train", "model.predict", "training.attacked_confidences")
STEP_NAMES = OBJECTIVES + ("training.adam_step",)


def median(values):
    """Median of the values, or None when there are none."""
    values = list(values)
    return statistics.median(values) if values else None


def _quantile(values, q):
    if not values:
        return None
    return float(np.quantile(np.asarray(values), q))


def _ratio(num, den):
    return num / den if den else None


def _train_calls(tree: SpanTree):
    """Per train() call: (duration, step seconds, epoch seconds, eval seconds).

    A step runs from an objective's start to the end of the Adam update
    that follows it.  An epoch starts at the first objective after the
    previous epoch's evaluation; everything else train() calls directly
    (forward passes, hinge, classify) is per-epoch evaluation.
    """
    out = []
    for t in tree.named("training.train"):
        kids = sorted(tree.children[t], key=lambda c: tree.spans[c][1])
        steps, starts, eval_s = [], [], 0.0
        in_steps = False
        for pos, c in enumerate(kids):
            name = tree.name(c)
            if name in OBJECTIVES:
                if not in_steps:
                    starts.append(tree.spans[c][1])
                nxt = kids[pos + 1] if pos + 1 < len(kids) else None
                if nxt is not None and tree.name(nxt) == "training.adam_step":
                    steps.append(tree.spans[nxt][2] - tree.spans[c][1])
                in_steps = True
            elif name != "training.adam_step":
                in_steps = False
                if name != "model.init_params":
                    eval_s += tree.dur[c]
        ends = starts[1:] + ([tree.spans[kids[-1]][2]] if starts else [])
        epochs = [e - s for s, e in zip(starts, ends)]
        out.append((tree.dur[t], steps, epochs, eval_s))
    return out


def layer_metrics(tree: SpanTree, timed_reps: int) -> dict[str, float | None]:
    """Per-layer numbers from the spans; None where no span exists."""
    m: dict[str, float | None] = {}

    def dur_median(*names):
        return median([tree.dur[i] for i in tree.named(*names)])

    ingest = tree.named("market_data.ingest_eod")
    m["market_data.ingest_eod_s"] = median([tree.dur[i] for i in ingest])
    m["market_data.rows_per_s"] = median([tree.spans[i][4] / tree.dur[i] for i in ingest])
    m["market_data.align_trading_days_s"] = dur_median("market_data.align_trading_days")
    lw = tree.named("market_data.label_and_window")
    m["market_data.label_and_window_s"] = median([tree.dur[i] for i in lw])
    m["market_data.windows"] = median([tree.spans[i][4] for i in lw])

    saves = tree.named("artifacts.save_dataset")
    m["artifacts.save_dataset_s"] = median([tree.dur[i] for i in saves])
    m["artifacts.dataset_bytes"] = median([tree.spans[i][4] for i in saves])
    m["artifacts.load_dataset_s"] = dur_median("artifacts.load_dataset")
    m["artifacts.arrays_s"] = dur_median("artifacts.arrays")
    m["artifacts.file_sha256_s"] = dur_median("artifacts.file_sha256")

    fwd_train = tree.select(
        lambda i: tree.name(i) == "model.forward" and tree.parent_name(i) in OBJECTIVES
    )
    m["model.forward.train_step_s_per_batch"] = median([tree.dur[i] for i in fwd_train])
    m["model.backward_s_per_batch"] = dur_median("model.backward")
    fwd_eval = tree.select(
        lambda i: tree.name(i) == "model.forward" and tree.parent_name(i) in EVAL_PARENTS
    )
    m["model.forward.eval_s_per_window"] = _ratio(
        sum(tree.dur[i] for i in fwd_eval), sum(tree.spans[i][4] for i in fwd_eval)
    )
    for part in ("map_forward", "lstm_forward", "attention_forward", "head_forward", "forward"):
        spans = tree.named(f"model.{part}")
        m[f"model.{part}_self_s"] = _ratio(
            sum(tree.self_time[i] for i in spans), sum(tree.spans[i][4] for i in spans)
        )

    calls = _train_calls(tree)
    steps = [s for c in calls for s in c[1]]
    epochs = [e for c in calls for e in c[2]]
    m["training.step_s_p50"] = _quantile(steps, 0.5)
    m["training.step_s_p90"] = _quantile(steps, 0.9)
    m["training.objective_self_s_per_batch"] = median(
        [tree.self_time[i] for i in tree.named(*OBJECTIVES)]
    )
    m["training.adam_step_s"] = dur_median("training.adam_step")
    perturb = tree.select(
        lambda i: tree.name(i) == "training.adversarial_perturbations"
        and tree.parent_name(i) in OBJECTIVES
    )
    m["training.adversarial_perturbations_s"] = median([tree.dur[i] for i in perturb])
    m["training.perturbed_frac"] = _ratio(
        sum(tree.spans[i][5] for i in perturb), sum(tree.spans[i][4] for i in perturb)
    )
    m["training.epoch_s_p50"] = _quantile(epochs, 0.5)
    m["training.epoch_s_p90"] = _quantile(epochs, 0.9)
    m["training.eval_share"] = median([c[3] / c[0] for c in calls if c[0] > 0])
    m["training.epochs"] = median([len(c[2]) for c in calls])
    m["training.batches"] = median([len(c[1]) for c in calls])
    m["training.attacked_confidences_s"] = dur_median("training.attacked_confidences")

    cells = tree.named("gridsearch.evaluate_cell")
    m["gridsearch.cell_s_p50"] = _quantile([tree.dur[i] for i in cells], 0.5)
    m["gridsearch.cell_s_p90"] = _quantile([tree.dur[i] for i in cells], 0.9)
    m["gridsearch.cells"] = median(
        [
            sum(1 for c in tree.children[g] if tree.name(c) == "gridsearch.evaluate_cell")
            for g in tree.named("gridsearch.grid_search")
        ]
    )
    m["gridsearch.predict_s"] = median(
        [
            tree.dur[i]
            for i in tree.select(
                lambda i: tree.name(i) == "model.predict"
                and tree.parent_name(i) == "gridsearch.evaluate_cell"
            )
        ]
    )

    per_rep = max(timed_reps, 1)
    base = [
        i for i, s in enumerate(tree.spans)
        if s[6] >= 1 and s[0] in ("baselines.mom_predict", "baselines.mr_predict")
    ]
    m["baselines.calls"] = len(base) / per_rep if base else None
    m["baselines.s"] = sum(tree.dur[i] for i in base) / per_rep if base else None
    evaluation = [
        i for i, s in enumerate(tree.spans)
        if s[6] >= 1 and s[0].startswith("evaluation.")
        and not tree.parent_name(i).startswith("evaluation.")
    ]
    m["evaluation.s"] = sum(tree.dur[i] for i in evaluation) / per_rep if evaluation else None
    return m


def cli_self(tree: SpanTree) -> dict[str, list[float]]:
    """Timed command -> self time of its cli.main and cli.cmd_* spans."""
    out: dict[str, list[float]] = defaultdict(list)
    for i, s in enumerate(tree.spans):
        if s[0] != "cli.main" or s[6] < 1:
            continue
        cmds = [c for c in tree.children[i] if tree.name(c).startswith("cli.cmd_")]
        command = tree.name(cmds[0])[len("cli.cmd_"):] if cmds else "unknown"
        out[command].append(tree.self_time[i] + sum(tree.self_time[c] for c in cmds))
    return out
