"""Adversarial training for an attentive LSTM stock movement predictor.

End-to-end pieces: raw end-of-day price CSVs -> aligned feature windows
with +-1 movement labels -> an attentive LSTM trained normally,
adversarially (fast-gradient perturbations of the latent
representation), or with random perturbations -> metrics, robustness
diagnostics, and reproducible on-disk artifacts.
"""

from .baselines import IndicatorConfig, mom_predict, mr_predict
from .errors import (
    AdvAlstmError,
    AlignmentError,
    ArtifactMismatchError,
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    NumericError,
    ParseError,
    ShapeError,
    WindowError,
)
from .evaluation import (
    HistogramReport,
    MetricSummary,
    accuracy,
    confidence_histogram,
    confusion_counts,
    mcc,
    mcc_from_counts,
    rpd,
    summarize_runs,
)
from .gridsearch import GridCell, GridResult, GridSpec, grid_search
from .market_data import (
    DEFAULT_NEG_THRESHOLD,
    DEFAULT_POS_THRESHOLD,
    FEATURE_DIM,
    FEATURE_NAMES,
    MIN_HISTORY,
    PRICE_COLUMNS,
    AlignedData,
    DatasetArtifact,
    EodSeries,
    SplitArrays,
    SplitSpec,
    align_trading_days,
    compute_features,
    ingest_eod,
    label_and_window,
)
from .model import (
    ForwardTrace,
    ModelDims,
    ParamSet,
    backward,
    classify,
    forward,
    init_params,
    predict,
)
from .training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainResult,
    adam_step,
    adversarial_perturbations,
    attacked_confidences,
    hinge_grad,
    hinge_loss,
    objective_adversarial,
    objective_adversarial_frozen,
    objective_normal,
    objective_random,
    train,
)

__version__ = "0.1.0"
