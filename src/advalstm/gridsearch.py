"""Two-stage hyperparameter grid search.

Stage one trains in normal mode over (hidden size, lag, L2 weight) and
keeps the cell with the best validation accuracy.  Stage two fixes that
cell and trains adversarially over (perturbation-loss weight,
perturbation scale).  Ties prefer the smaller value, in the listed
parameter order, so the search is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ContractError
from .evaluation import accuracy, mcc
from .model import ModelDims, classify
from .training import TrainConfig, train

# (x_train, y_train, x_val, y_val) for a given lag
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

    def cell_count(self) -> int:
        stage1 = len(self.hidden_sizes) * len(self.lags) * len(self.l2_coefs)
        stage2 = len(self.adv_weights) * len(self.adv_scales)
        return stage1 + stage2


@dataclass(frozen=True)
class GridCell:
    """One evaluated configuration and its validation scores."""

    hidden_size: int
    lag: int
    l2_coef: float
    adv_weight: float   # 0 in stage one
    adv_scale: float    # 0 in stage one
    val_acc: float
    val_mcc: float


@dataclass
class GridResult:
    cells: list[GridCell] = field(default_factory=list)
    best_stage1: GridCell | None = None
    best_stage2: GridCell | None = None

    @property
    def best(self) -> GridCell:
        return self.best_stage2 if self.best_stage2 is not None else self.best_stage1


def _evaluate_cell(
    data_for_lag: DataForLag,
    feat_dim: int,
    hidden_size: int,
    lag: int,
    config: TrainConfig,
) -> tuple[float, float]:
    x_train, y_train, x_val, y_val = data_for_lag(lag)
    dims = ModelDims(
        feat_dim=feat_dim,
        map_size=hidden_size,
        hidden_size=hidden_size,
        att_size=hidden_size,
    )
    result = train(x_train, y_train, x_val, y_val, dims, config, track_train_loss=False)
    pred = classify(result.val_yhat)
    return accuracy(y_val, pred), mcc(y_val, pred)


def grid_search(
    grid: GridSpec,
    data_for_lag: DataForLag,
    base_train: TrainConfig,
    feat_dim: int = 11,
    on_cell: Callable[[GridCell], None] | None = None,
) -> GridResult:
    """Run both stages; returns every cell plus the stage winners.

    ``data_for_lag`` supplies the train and validation arrays at each
    window length; stage one uses normal mode regardless of
    ``base_train.mode``, stage two uses adversarial mode.
    """
    result = GridResult()

    best = None  # (acc, -U, -T, -lam) ordering via explicit compare
    for hidden_size in grid.hidden_sizes:
        for lag in grid.lags:
            for l2_coef in grid.l2_coefs:
                config = replace(base_train, mode="normal", l2_coef=l2_coef)
                acc, cell_mcc = _evaluate_cell(
                    data_for_lag, feat_dim, hidden_size, lag, config
                )
                cell = GridCell(hidden_size, lag, l2_coef, 0.0, 0.0, acc, cell_mcc)
                result.cells.append(cell)
                if on_cell is not None:
                    on_cell(cell)
                key = (acc, -hidden_size, -lag, -l2_coef)
                if best is None or key > best[0]:
                    best = (key, cell)
    result.best_stage1 = best[1]

    s1 = result.best_stage1
    best = None
    for adv_weight in grid.adv_weights:
        for adv_scale in grid.adv_scales:
            config = replace(
                base_train,
                mode="adversarial",
                l2_coef=s1.l2_coef,
                adv_weight=adv_weight,
                adv_scale=adv_scale,
            )
            acc, cell_mcc = _evaluate_cell(
                data_for_lag, feat_dim, s1.hidden_size, s1.lag, config
            )
            cell = GridCell(
                s1.hidden_size, s1.lag, s1.l2_coef, adv_weight, adv_scale, acc, cell_mcc
            )
            result.cells.append(cell)
            if on_cell is not None:
                on_cell(cell)
            key = (acc, -adv_weight, -adv_scale)
            if best is None or key > best[0]:
                best = (key, cell)
    result.best_stage2 = best[1]
    return result
