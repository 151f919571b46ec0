"""Flat key=value run configuration.

One text file drives every command.  Lines are ``key = value``; blank
lines and lines starting with ``#`` are ignored; keys are dotted names
from the table below.  Unknown keys are rejected so typos fail fast,
and the whole config is validated against downstream invariants before
any work starts.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import market_data
from .baselines import IndicatorConfig
from .errors import AdvAlstmError, ConfigError, ContractError
from .gridsearch import GridSpec
from .market_data import (
    DEFAULT_MIN_COVERAGE,
    DEFAULT_NEG_THRESHOLD,
    DEFAULT_POS_THRESHOLD,
    FEATURE_DIM,
    SplitSpec,
)
from .model import ModelDims
from .training import MODES, TrainConfig


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


# Each default lives on the dataclass that consumes it.
_TRAIN = _defaults(TrainConfig)
_DIMS = _defaults(ModelDims)
_GRID = _defaults(GridSpec)
_INDICATORS = _defaults(IndicatorConfig)


@dataclass
class RunConfig:
    """Parsed and validated configuration for one experiment."""

    data_path: str = ""
    out_dir: str = "runs"
    lag: int = 5
    min_coverage: float = DEFAULT_MIN_COVERAGE
    train_end: dt.date | None = None
    val_end: dt.date | None = None
    test_end: dt.date | None = None
    pos_threshold: float = DEFAULT_POS_THRESHOLD
    neg_threshold: float = DEFAULT_NEG_THRESHOLD
    map_size: int = _DIMS["map_size"]
    hidden_size: int = _DIMS["hidden_size"]
    att_size: int = _DIMS["att_size"]   # 0 means: same as hidden_size
    mode: str = _TRAIN["mode"]
    l2_coef: float = _TRAIN["l2_coef"]
    adv_weight: float = _TRAIN["adv_weight"]
    adv_scale: float = _TRAIN["adv_scale"]
    learning_rate: float = _TRAIN["learning_rate"]
    batch_size: int = _TRAIN["batch_size"]
    epochs: int = _TRAIN["epochs"]
    patience: int = _TRAIN["patience"]
    seed: int = _TRAIN["seed"]
    mom_window: int = _INDICATORS["mom_window"]
    mr_window: int = _INDICATORS["mr_window"]
    attack_scale: float | None = None   # None: fall back to the training scale
    grid_hidden_sizes: tuple[int, ...] = _GRID["hidden_sizes"]
    grid_lags: tuple[int, ...] = _GRID["lags"]
    grid_l2_coefs: tuple[float, ...] = _GRID["l2_coefs"]
    grid_adv_weights: tuple[float, ...] = _GRID["adv_weights"]
    grid_adv_scales: tuple[float, ...] = _GRID["adv_scales"]
    grid_epochs: int = 10

    def _build(self, cls, prefix: str = "", **given):
        """``cls`` from this config's fields named like its own, after ``prefix``."""
        names = [f.name for f in fields(cls) if f.name not in given]
        return cls(**{name: getattr(self, prefix + name) for name in names}, **given)

    def model_dims(self) -> ModelDims:
        return self._build(ModelDims, feat_dim=FEATURE_DIM)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def split_spec(self) -> SplitSpec:
        if self.train_end is None or self.val_end is None or self.test_end is None:
            raise ConfigError(
                "split.train_end, split.val_end, and split.test_end are required"
            )
        return self._build(SplitSpec)

    def indicator_config(self) -> IndicatorConfig:
        return self._build(IndicatorConfig)

    def grid_spec(self) -> GridSpec:
        return self._build(GridSpec, prefix="grid_")

    def validate(self) -> None:
        """Trip every downstream invariant before any compute starts."""
        try:
            self.model_dims()
            self.train_config()
            self.indicator_config()
            self.grid_spec()
            if self.train_end is not None:
                self.split_spec()
            if not 0.0 < self.min_coverage <= 1.0:
                raise ContractError(
                    f"data.min_coverage must be in (0, 1], got {self.min_coverage}"
                )
            if self.attack_scale is not None and self.attack_scale < 0:
                raise ContractError(
                    f"eval.attack_scale must be >= 0, got {self.attack_scale}"
                )
            if self.grid_epochs < 0:
                raise ContractError(f"grid.epochs must be >= 0, got {self.grid_epochs}")
        except ConfigError:
            raise
        except AdvAlstmError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_date(value: str) -> dt.date:
    try:
        return market_data._parse_date(value)  # the rule CSV dates follow
    except ValueError as exc:
        raise ConfigError(f"expected YYYY-MM-DD date, got {value!r}") from exc


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"expected integer, got {value!r}") from exc


def _parse_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"expected number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return number


def _parse_mode(value: str) -> str:
    if value not in MODES:
        raise ConfigError(f"train.mode must be one of {MODES}, got {value!r}")
    return value


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(_parse_int(v.strip()) for v in value.split(",") if v.strip())


def _parse_float_list(value: str) -> tuple[float, ...]:
    return tuple(_parse_float(v.strip()) for v in value.split(",") if v.strip())


# config key -> (RunConfig attribute, value parser)
CONFIG_KEYS = {
    "data.path": ("data_path", str),
    "out.dir": ("out_dir", str),
    "data.lag": ("lag", _parse_int),
    "data.min_coverage": ("min_coverage", _parse_float),
    "split.train_end": ("train_end", _parse_date),
    "split.val_end": ("val_end", _parse_date),
    "split.test_end": ("test_end", _parse_date),
    "label.pos_threshold": ("pos_threshold", _parse_float),
    "label.neg_threshold": ("neg_threshold", _parse_float),
    "model.map_size": ("map_size", _parse_int),
    "model.hidden_size": ("hidden_size", _parse_int),
    "model.att_size": ("att_size", _parse_int),
    "train.mode": ("mode", _parse_mode),
    "train.l2": ("l2_coef", _parse_float),
    "train.adv_weight": ("adv_weight", _parse_float),
    "train.adv_scale": ("adv_scale", _parse_float),
    "train.learning_rate": ("learning_rate", _parse_float),
    "train.batch_size": ("batch_size", _parse_int),
    "train.epochs": ("epochs", _parse_int),
    "train.patience": ("patience", _parse_int),
    "train.seed": ("seed", _parse_int),
    "baseline.mom_window": ("mom_window", _parse_int),
    "baseline.mr_window": ("mr_window", _parse_int),
    "eval.attack_scale": ("attack_scale", _parse_float),
    "grid.hidden_sizes": ("grid_hidden_sizes", _parse_int_list),
    "grid.lags": ("grid_lags", _parse_int_list),
    "grid.l2_coefs": ("grid_l2_coefs", _parse_float_list),
    "grid.adv_weights": ("grid_adv_weights", _parse_float_list),
    "grid.adv_scales": ("grid_adv_scales", _parse_float_list),
    "grid.epochs": ("grid_epochs", _parse_int),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in CONFIG_KEYS.items()}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    config = RunConfig()
    seen: dict[str, int] = {}  # key -> line that set it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        first = seen.setdefault(key, line_no)
        if first != line_no:
            raise ConfigError(f"{source}:{line_no}: key {key!r} already set on line {first}")
        attr, parser = CONFIG_KEYS[key]
        try:
            setattr(config, attr, parser(value))
        except ConfigError as exc:
            raise ConfigError(f"{source}:{line_no}: {key}: {exc}") from exc
    config.validate()
    return config


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_config_text(text, source=str(path))


def dump_config(config: RunConfig) -> str:
    """Render a RunConfig back to the key=value format (stable order)."""
    def text(value) -> str:
        return repr(value) if isinstance(value, float) else str(value)

    return "".join(
        f"{key} = {','.join(map(text, value)) if isinstance(value, list) else text(value)}\n"
        for key, value in config_as_dict(config).items() if value is not None
    )


def config_as_dict(config: RunConfig) -> dict:
    """JSON-friendly view used in run manifests."""
    out = {}
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, dt.date):
            value = value.isoformat()
        elif isinstance(value, tuple):
            value = list(value)
        out[_ATTR_TO_KEY[f.name]] = value
    return out
