"""Two-stage hyperparameter grid search.

Stage one trains in normal mode over (hidden size, lag, L2 weight) and
keeps the cell with the best validation accuracy.  Stage two fixes that
cell and trains adversarially over (perturbation-loss weight,
perturbation scale).  Ties prefer the smaller value, in the listed
parameter order, so the search is deterministic.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, replace
from functools import partial
from itertools import product, starmap
from typing import Callable

import numpy as np

from .errors import ContractError
from .evaluation import accuracy, mcc
from .model import ModelDims, classify
from .training import TrainConfig, train

# (x_train, y_train, x_val, y_val) for a given lag; x_train may be anything
# train() takes, such as a market_data.Windows
DataForLag = Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class GridSpec:
    """Axis values for both stages."""

    hidden_sizes: tuple[int, ...] = (4, 8, 16, 32)
    lags: tuple[int, ...] = (2, 3, 4, 5, 10, 15)
    l2_coefs: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0)
    adv_weights: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)
    adv_scales: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1)

    def __post_init__(self):
        lows = {"hidden_sizes": 1, "lags": 1, "l2_coefs": 0, "adv_weights": 0, "adv_scales": 0}
        for name, low in lows.items():
            values = getattr(self, name)
            if not values:
                raise ContractError(f"grid axis {name} must be non-empty")
            if min(values) < low:
                raise ContractError(f"grid axis {name} values must be >= {low}, got {min(values)}")
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ContractError(f"grid axis {name} repeats the value {repeats[0]}")

    def cell_count(self) -> int:
        stage1 = len(self.hidden_sizes) * len(self.lags) * len(self.l2_coefs)
        stage2 = len(self.adv_weights) * len(self.adv_scales)
        return stage1 + stage2


@dataclass(frozen=True)
class GridCell:
    """One configuration and, once evaluated, its validation scores."""

    hidden_size: int
    lag: int
    l2_coef: float
    adv_weight: float = 0.0   # 0 in stage one
    adv_scale: float = 0.0    # 0 in stage one
    val_acc: float = float("nan")
    val_mcc: float = float("nan")


@dataclass(frozen=True)
class GridResult:
    cells: list[GridCell]   # stage one, then stage two, in evaluation order
    best_stage1: GridCell
    best_stage2: GridCell


def _evaluate_cell(data_for_lag: DataForLag, base: TrainConfig, cell: GridCell) -> GridCell:
    """Train ``cell`` in ``base.mode`` and score it on the validation split."""
    x_train, y_train, x_val, y_val = data_for_lag(cell.lag)
    u = cell.hidden_size
    dims = ModelDims(feat_dim=x_val.shape[-1], map_size=u, hidden_size=u, att_size=u)
    config = replace(base, l2_coef=cell.l2_coef, adv_weight=cell.adv_weight,
                     adv_scale=cell.adv_scale)
    result = train(x_train, y_train, x_val, y_val, dims, config)
    pred = classify(result.val_yhat)
    return replace(cell, val_acc=accuracy(y_val, pred), val_mcc=mcc(y_val, pred))


# A forked child's data_for_lag, and the two ends of the stage's queue of
# cells that it shares with the calling process, set once by its initializer.
_worker_data: DataForLag | None = None
_worker_ends = None


def _init_worker(data_for_lag: DataForLag, ends) -> None:
    global _worker_data, _worker_ends
    _worker_data, _worker_ends = data_for_lag, ends


def _claim(ends, cheap: bool) -> int | None:
    """Take the queue position at one end of ``[ends[0], ends[1])``; None
    once the ends have met."""
    with ends.get_lock():
        lo, hi = ends
        if lo >= hi:
            return None
        if cheap:
            ends[0] = lo + 1
            return lo
        ends[1] = hi - 1
        return hi - 1


def _drain(queue: list[GridCell], evaluate: Callable[[GridCell], GridCell], ends,
           cheap: bool, first: int | None = None) -> dict[int, GridCell]:
    """Score cells taken from one end of ``queue``, starting at ``first``
    if given, until the ends meet; returns them by queue position.  A
    raise closes the queue, so every other process stops after its
    current cell."""
    scored = {}
    k = _claim(ends, cheap) if first is None else first
    try:
        while k is not None:
            scored[k] = evaluate(queue[k])
            k = _claim(ends, cheap)
    except BaseException:
        with ends.get_lock():
            ends[0] = ends[1]
        raise
    return scored


def _drain_in_worker(base: TrainConfig, queue: list[GridCell]) -> dict[int, GridCell]:
    return _drain(queue, partial(_evaluate_cell, _worker_data, base), _worker_ends, cheap=False)


def _evaluate_stage(
    cells: list[GridCell],
    data_for_lag: DataForLag,
    base: TrainConfig,
    pool: Executor | None,
    children: int,
    ends,
    on_cell: Callable[[GridCell], None] | None,
) -> list[GridCell]:
    """Every cell of one stage, scored, in the order given.

    The cells queue up cheapest (hidden x lag) first.  Without a pool
    this process scores them in that order.  With one, ``ends`` holds
    the queue's two ends, shared with the pool's ``children`` forked
    processes: this process claims the cheapest cell before any child
    starts, then takes cells from the cheap end while each child takes
    them from the expensive end, each as soon as it is free, until the
    ends meet.  So no CPU idles while a cell is unclaimed, this process
    scores at least one cell per stage, and the largest cells run in
    the children.  ``on_cell`` runs here, once per cell.
    """
    order = sorted(range(len(cells)), key=lambda i: cells[i].hidden_size * cells[i].lag)
    queue = [cells[i] for i in order]

    def evaluate(cell: GridCell) -> GridCell:
        cell = _evaluate_cell(data_for_lag, base, cell)
        if on_cell is not None:
            on_cell(cell)
        return cell

    if pool is None:
        scored = dict(enumerate(map(evaluate, queue)))
    else:
        ends[:] = [1, len(queue)]  # this process holds queue[0]
        futures = [pool.submit(_drain_in_worker, base, queue)
                   for _ in range(min(children, len(queue) - 1))]
        scored = _drain(queue, evaluate, ends, cheap=True, first=0)
        for future in futures:
            child_scored = future.result()
            scored.update(child_scored)
            if on_cell is not None:
                for cell in child_scored.values():
                    on_cell(cell)
    done: list[GridCell | None] = [None] * len(cells)
    for k, i in enumerate(order):
        done[i] = scored[k]
    return done


def grid_search(
    grid: GridSpec,
    data_for_lag: DataForLag,
    base_train: TrainConfig,
    on_cell: Callable[[GridCell], None] | None = None,
    *,
    workers: int = 1,
) -> GridResult:
    """Run both stages; returns every cell plus the stage winners.

    ``data_for_lag`` supplies the train and validation arrays at each
    window length; stage one uses normal mode regardless of
    ``base_train.mode``, stage two uses adversarial mode.  ``workers``
    counts the processes that train cells, this one included.  The
    others are forked once per call, so they inherit ``data_for_lag``
    instead of receiving it pickled, and each stage shares its cells out
    through one two-ended queue (see ``_evaluate_stage``).  The result
    does not depend on ``workers``.
    """
    stage1_cells = list(starmap(GridCell, product(grid.hidden_sizes, grid.lags, grid.l2_coefs)))
    stage_sizes = (len(stage1_cells), len(grid.adv_weights) * len(grid.adv_scales))
    # Forked processes; this one scores cells too, and no stage has cells
    # for more processes than it has cells.
    children = min(workers, max(stage_sizes)) - 1
    pool = ends = None
    if children > 0:
        # Imported here, so that no other command holds the pool's modules.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Fork, whatever the platform default: a child inherits the data,
        # the queue's shared ends, the one-thread BLAS pin and the heap
        # settings without importing or unpickling anything.
        fork = multiprocessing.get_context("fork")
        ends = fork.Array("q", 2)
        pool = ProcessPoolExecutor(children, mp_context=fork, initializer=_init_worker,
                                   initargs=(data_for_lag, ends))
    try:
        stage1 = _evaluate_stage(stage1_cells, data_for_lag, replace(base_train, mode="normal"),
                                 pool, children, ends, on_cell)
        s1 = max(stage1, key=lambda c: (c.val_acc, -c.hidden_size, -c.lag, -c.l2_coef))
        cells = [replace(s1, adv_weight=b, adv_scale=e)
                 for b, e in product(grid.adv_weights, grid.adv_scales)]
        stage2 = _evaluate_stage(cells, data_for_lag, replace(base_train, mode="adversarial"),
                                 pool, children, ends, on_cell)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    s2 = max(stage2, key=lambda c: (c.val_acc, -c.adv_weight, -c.adv_scale))
    return GridResult(stage1 + stage2, s1, s2)
