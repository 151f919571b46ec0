"""Command-line entry point.

Subcommands: ``build`` (raw price CSVs -> dataset container), ``train``
(dataset -> checkpoint + loss curves + run manifest), ``grid``
(two-stage hyperparameter search), ``eval`` (model vs indicator
baselines on the test split), ``attack`` (clean vs attacked metrics and
relative performance drop), ``report`` (mean +- std across repeated
runs).  Exit codes: 0 success, 2 input or config error, 3 divergence,
4 artifact mismatch.  Same config and seed always reproduce the same
bytes on disk: every command runs numpy's BLAS on one thread, because a
multi-threaded BLAS splits sums differently at different thread counts.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import artifacts, baselines
from .config import RunConfig, config_as_dict, dump_config, load_config
from .errors import (
    AdvAlstmError,
    ArtifactMismatchError,
    ConfigError,
    ContractError,
    NumericError,
    ShapeError,
)
from .evaluation import accuracy, confidence_histogram, mcc, rpd, summarize_runs
from .gridsearch import grid_search
from .market_data import (
    FEATURE_DIM,
    align_trading_days,
    ingest_eod,
    label_and_window,
)
from .model import classify, predict
from .training import attacked_confidences, train

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGENCE = 3
EXIT_MISMATCH = 4

M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
M_MMAP_THRESHOLD = -3

DATASET_FILE = "dataset.bin"
CHECKPOINT_FILE = "model.ckpt"


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    config.validate()
    return config


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: Path, what: str) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def cmd_build(args) -> int:
    config = _load_run_config(args)
    if not config.data_path:
        raise ConfigError("data.path is required for build")
    spec = config.split_spec()
    out = _out_dir(config)

    series = ingest_eod(config.data_path)
    aligned = align_trading_days(series, min_coverage=config.min_coverage)
    dataset = label_and_window(aligned, spec)

    dataset_path = out / DATASET_FILE
    artifacts.save_dataset(dataset_path, dataset, spec, dropped=aligned.dropped)
    sha = artifacts.file_sha256(dataset_path)
    counts = dataset.counts()
    balance = dataset.positive_fraction()
    artifacts.write_json(
        out / "build_manifest.json",
        {
            "config": config_as_dict(config),
            "dataset_sha256": sha,
            "split_sizes": counts,
            "positive_fraction": balance,
            "stocks": dataset.stocks,
            "dropped": aligned.dropped,
        },
    )
    print(f"dataset: {dataset_path}")
    for split in ("train", "val", "test"):
        frac = balance[split]
        frac_text = "n/a" if frac is None else f"{frac:.3f}"
        print(f"{split}: {counts[split]} examples, positive fraction {frac_text}")
    print(f"sha256: {sha}")
    return EXIT_OK


def _usable_cpus() -> int:
    """Processes a command runs side by side: one per CPU this process may
    use (taskset bounds it), or 1 where Python cannot tell or cannot fork
    (macOS, Windows).  No output byte depends on it."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def cmd_train(args) -> int:
    config = _load_run_config(args)
    out = _out_dir(config)
    dataset_path = _require(out / DATASET_FILE, "dataset")
    dataset = artifacts.load_dataset(dataset_path)
    dataset_sha = artifacts.file_sha256(dataset_path)
    x_train, y_train = dataset.windows("train", config.lag)
    x_val, y_val = dataset.arrays("val", config.lag)
    dims = config.model_dims()
    train_config = config.train_config()
    result = train(x_train, y_train, x_val, y_val, dims, train_config, workers=_usable_cpus())

    artifacts.save_checkpoint(
        out / CHECKPOINT_FILE,
        result.params,
        lag=config.lag,
        seed=train_config.seed,
        mode=train_config.mode,
        best_epoch=result.best_epoch,
        adv_scale=train_config.adv_scale,
        dataset_sha256=dataset_sha,
    )
    artifacts.write_loss_curves(out / "loss_curves.csv", result.history)
    artifacts.write_json(
        out / "run_manifest.json",
        {
            "config": config_as_dict(config),
            "seed": train_config.seed,
            "dataset_sha256": dataset_sha,
            "best_epoch": result.best_epoch,
            "epochs_run": len(result.history),
        },
    )
    if result.history:
        best = result.history[result.best_epoch - 1]
        print(
            f"trained {len(result.history)} epochs (mode={train_config.mode}), "
            f"best epoch {result.best_epoch}, val acc {best.val_acc:.2f}"
        )
    else:
        print("trained 0 epochs; checkpoint holds the seeded initialization")
    return EXIT_OK


def cmd_grid(args) -> int:
    config = _load_run_config(args)
    out = _out_dir(config)
    dataset_path = _require(out / DATASET_FILE, "dataset")
    dataset = artifacts.load_dataset(dataset_path)
    grid = config.grid_spec()

    # Each cell gathers its validation windows when it starts and its train
    # windows a minibatch at a time, in the process that runs it.  The deepest
    # lag and the validation split every cell is scored on are checked here,
    # before any training.
    dataset.windows("val", max(grid.lags))
    if not len(dataset.val):
        raise ContractError("validation split is empty; grid scores every cell on it")

    def data_for_lag(lag: int):
        return (*dataset.windows("train", lag), *dataset.arrays("val", lag))

    base = dataclasses.replace(config.train_config(), epochs=config.grid_epochs)
    result = grid_search(grid, data_for_lag, base, workers=_usable_cpus())

    artifacts.write_grid_csv(out / "grid_results.csv", result.cells)
    best = result.best_stage2
    u = best.hidden_size
    best_config = dataclasses.replace(
        config, mode="adversarial", map_size=u, hidden_size=u, att_size=u, lag=best.lag,
        l2_coef=best.l2_coef, adv_weight=best.adv_weight, adv_scale=best.adv_scale,
    )
    (out / "best_config.cfg").write_text(dump_config(best_config))
    print(
        f"grid: {len(result.cells)} cells; best hidden={best.hidden_size} "
        f"lag={best.lag} l2={best.l2_coef} adv_weight={best.adv_weight} "
        f"adv_scale={best.adv_scale} val_acc={best.val_acc:.2f}"
    )
    return EXIT_OK


def _load_scoring_inputs(args):
    """The preamble of eval and attack: config, out dir, dataset, a
    checkpoint that matches it, and the test windows at its lag."""
    config = _load_run_config(args)
    out = _out_dir(config)
    dataset_path = _require(out / DATASET_FILE, "dataset")
    path = _require(
        Path(args.checkpoint) if args.checkpoint else out / CHECKPOINT_FILE, "checkpoint"
    )
    dataset = artifacts.load_dataset(dataset_path)
    dataset_sha = artifacts.file_sha256(dataset_path)
    params, dims, meta = artifacts.load_checkpoint(path)
    if dims.feat_dim != FEATURE_DIM:
        raise ArtifactMismatchError(
            f"checkpoint expects {dims.feat_dim} features, dataset has {FEATURE_DIM}"
        )
    recorded = meta.get("dataset_sha256")
    if recorded is not None and recorded != dataset_sha:
        raise ArtifactMismatchError(
            "checkpoint was trained on a different dataset "
            f"(recorded {recorded[:12]}.., found {dataset_sha[:12]}..)"
        )
    x_test, y_test = dataset.arrays("test", meta["lag"])
    if y_test.size == 0:
        raise ContractError("test split is empty; nothing to evaluate")
    return config, out, dataset, params, meta, x_test, y_test


def _ri_percent(model_score: float, baseline_score: float) -> float | None:
    """Relative improvement of the model over a baseline, in percent."""
    if baseline_score <= 0:
        return None
    return 100.0 * (model_score - baseline_score) / baseline_score


def cmd_eval(args) -> int:
    config, out, dataset, params, _, x_test, y_test = _load_scoring_inputs(args)
    yhat = predict(x_test, params)
    pred = classify(yhat)
    test = dataset.test
    indicators = config.indicator_config()
    test_rows = (dataset.adj_close, test.stock_idx, test.anchor_idx)
    mom_pred = baselines.mom_predict(*test_rows, indicators.mom_window)
    mr_pred = baselines.mr_predict(*test_rows, indicators.mr_window)

    scores = {
        "mom": (accuracy(y_test, mom_pred), mcc(y_test, mom_pred)),
        "mr": (accuracy(y_test, mr_pred), mcc(y_test, mr_pred)),
        "model": (accuracy(y_test, pred), mcc(y_test, pred)),
    }
    best_acc = max(scores["mom"][0], scores["mr"][0])
    best_mcc = max(scores["mom"][1], scores["mr"][1])
    ri_acc = _ri_percent(scores["model"][0], best_acc)
    ri_mcc = _ri_percent(scores["model"][1], best_mcc)

    rows = [(name, acc_val, mcc_val) for name, (acc_val, mcc_val) in scores.items()]
    rows.append(("ri_pct", ri_acc, ri_mcc))
    artifacts.write_metrics_csv(out / "metrics.csv", rows)
    dates = [d.isoformat() for d in dataset.calendar]
    artifacts.write_predictions_csv(
        out / "predictions.csv",
        zip(
            [dataset.stocks[i] for i in test.stock_idx],
            [dates[i] for i in test.anchor_idx],
            test.labels.tolist(),
            yhat.tolist(),
            pred.astype(np.int64).tolist(),
        ),
    )
    artifacts.write_histogram_csv(out / "confidence_histogram.csv", confidence_histogram(yhat))

    print(f"{'name':<8} {'acc':>8} {'mcc':>8}")
    for name, (acc_val, mcc_val) in scores.items():
        print(f"{name:<8} {acc_val:>8.2f} {mcc_val:>8.4f}")
    ri_acc_text = "n/a" if ri_acc is None else f"{ri_acc:.2f}%"
    ri_mcc_text = "n/a" if ri_mcc is None else f"{ri_mcc:.2f}%"
    print(f"{'ri':<8} {ri_acc_text:>8} {ri_mcc_text:>8}")
    return EXIT_OK


def cmd_attack(args) -> int:
    config, out, _, params, meta, x_test, y_test = _load_scoring_inputs(args)
    if args.scale is not None:
        eps = args.scale
    elif config.attack_scale is not None:
        eps = config.attack_scale
    else:
        eps = float(meta["adv_scale"])
    if not 0 <= eps < np.inf:
        raise ConfigError(f"attack scale must be finite and >= 0, got {eps}")

    clean_yhat, attacked_yhat = attacked_confidences(x_test, y_test, params, eps)
    clean_pred = classify(clean_yhat)
    attacked_pred = classify(attacked_yhat)

    rows = []
    print(f"attack scale: {eps}")
    for name, fn in (("acc", accuracy), ("mcc", mcc)):
        clean_score = fn(y_test, clean_pred)
        attacked_score = fn(y_test, attacked_pred)
        drop = rpd(clean_score, attacked_score)
        rows.append((name, clean_score, attacked_score, drop))
        drop_text = "n/a" if drop is None else f"{drop:+.4f}"
        print(f"{name}: clean {clean_score:.4f} attacked {attacked_score:.4f} rpd {drop_text}")
    artifacts.write_attack_csv(out / "attack_report.csv", rows)
    return EXIT_OK


def cmd_report(args) -> int:
    config = _load_run_config(args)
    out = _out_dir(config)
    if not args.inputs:
        raise ConfigError("report needs at least one metrics.csv path")
    values: dict[tuple[str, str], list[float]] = {}
    for path in args.inputs:
        for row in artifacts.read_metrics_csv(_require(Path(path), "metrics file")):
            for metric in ("acc", "mcc"):
                if row[metric] != "":
                    values.setdefault((row["name"], metric), []).append(float(row[metric]))
    rows = []
    for (name, metric), vals in values.items():
        s = summarize_runs(vals)
        rows.append((name, metric, s.mean, s.std, s.n_runs))
        print(f"{name} {metric}: {s} over {s.n_runs} run(s)")
    artifacts.write_summary_csv(out / "summary.csv", rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advalstm",
        description="Adversarially trained attentive LSTM for stock movement prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key=value run config")
        p.add_argument("--seed", type=int, default=None, help="override train.seed")
        p.add_argument("--out", help="override out.dir")
        p.set_defaults(handler=handler)
        return p

    add("build", cmd_build, "ingest price CSVs and write the dataset container")
    add("train", cmd_train, "train a model on the built dataset")
    add("grid", cmd_grid, "two-stage hyperparameter search")
    p_eval = add("eval", cmd_eval, "evaluate a checkpoint against the baselines")
    p_eval.add_argument("checkpoint", nargs="?", help="checkpoint path (default: <out>/model.ckpt)")
    p_attack = add("attack", cmd_attack, "clean vs attacked metrics for a checkpoint")
    p_attack.add_argument("checkpoint", nargs="?", help="checkpoint path (default: <out>/model.ckpt)")
    p_attack.add_argument("--scale", type=float, default=None, help="perturbation radius")
    p_report = add("report", cmd_report, "aggregate metrics files into mean +- std")
    p_report.add_argument("inputs", nargs="*", help="metrics.csv files from repeated runs")
    return parser


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread.

    Fails loudly (exit 2) where numpy does not bundle the scipy-openblas
    build this calls into, since thread-independent bytes could not be
    promised there.  There is no fallback to the ``*_NUM_THREADS``
    variables: numpy reads them only when it is first imported.
    """
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*scipy_openblas64_*"),
                       *root.glob(".dylibs/*scipy_openblas64_*")]):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return
    raise AdvAlstmError(
        "cannot pin BLAS to one thread: numpy's bundled OpenBLAS "
        "(scipy_openblas_set_num_threads64_) was not found"
    )


def _retain_freed_memory() -> None:
    """Keep freed heap memory in the process instead of handing it back.

    By default glibc returns the free top of its heap to the kernel once
    it passes twice the adaptive mmap threshold.  A training step at
    hidden 32 frees about 64 MB of trace and backward buffers, so the
    next step would page-fault all of it back in, and the kernel zeroes
    each page.  Here blocks under 32 MiB come from the heap, and up to
    1 GiB of free heap stays mapped.  No output byte depends on this,
    so where the libc has no ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _pin_blas_threads()
        _retain_freed_memory()
        return args.handler(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ArtifactMismatchError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (AdvAlstmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
