"""Two-stage hyperparameter grid search.

Stage one trains in normal mode over (hidden size, lag, L2 weight) and
keeps the cell with the best validation accuracy.  Stage two fixes that
cell and trains adversarially over (perturbation-loss weight,
perturbation scale).  Ties prefer the smaller value, in the listed
parameter order, so the search is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import product, starmap
from typing import Callable

import numpy as np

from .errors import ContractError
from .evaluation import accuracy, mcc
from .forking import forked
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


def _evaluate_stage(share, cells: list[GridCell], base: TrainConfig,
                    on_cell: Callable[[GridCell], None] | None) -> list[GridCell]:
    """Every cell of one stage, scored through ``share`` in ``base.mode``,
    in the order given.  The cells queue up cheapest (hidden x lag) first,
    so this process scores the cheapest cell and the largest cells run in
    the helpers; ``on_cell`` runs here as each cell arrives."""
    order = sorted(range(len(cells)), key=lambda i: cells[i].hidden_size * cells[i].lag)
    done: list[GridCell | None] = [None] * len(cells)
    for i, cell in zip(order, share([(base, cells[i]) for i in order], on_cell)):
        done[i] = cell
    return done


def grid_search(grid: GridSpec, data_for_lag: DataForLag, base_train: TrainConfig,
                on_cell: Callable[[GridCell], None] | None = None, *, workers: int = 1,
                ) -> GridResult:
    """Run both stages; returns every cell plus the stage winners.

    ``data_for_lag`` supplies the train and validation arrays at each
    window length; stage one uses normal mode regardless of
    ``base_train.mode``, stage two uses adversarial mode.  ``workers``
    counts the processes that train cells, this one included.  The
    others are forked once per call, so they inherit ``data_for_lag``
    instead of receiving it pickled, and each stage's cells are shared
    out by ``forking.forked``, cheapest first.  The result, and the error
    of the first failing cell in that order, do not depend on ``workers``.
    """
    stage1_cells = list(starmap(GridCell, product(grid.hidden_sizes, grid.lags, grid.l2_coefs)))
    stage_sizes = (len(stage1_cells), len(grid.adv_weights) * len(grid.adv_scales))
    # This process scores cells too, and no stage has cells for more processes.
    children = min(workers, max(stage_sizes)) - 1
    with forked(partial(_evaluate_cell, data_for_lag), children) as share:
        stage1 = _evaluate_stage(share, stage1_cells, replace(base_train, mode="normal"), on_cell)
        s1 = max(stage1, key=lambda c: (c.val_acc, -c.hidden_size, -c.lag, -c.l2_coef))
        cells = [replace(s1, adv_weight=b, adv_scale=e)
                 for b, e in product(grid.adv_weights, grid.adv_scales)]
        stage2 = _evaluate_stage(share, cells, replace(base_train, mode="adversarial"), on_cell)
    s2 = max(stage2, key=lambda c: (c.val_acc, -c.adv_weight, -c.adv_scale))
    return GridResult(stage1 + stage2, s1, s2)
