"""Benchmark of the advalstm command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up generates the workload's market from ``--seed`` and
runs the untimed prerequisite commands, three times over.  The timed
command sequence repeats, interleaved with the later set-ups, until
``--seconds`` of repetitions have passed and at least three were run;
every timing is the median over the repetitions.  With ``--trace 1`` the
repetitions alternate between untraced and traced, and the traced ones
yield the per-layer numbers.  Outputs are checked on every run.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) names listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

# The BLAS and OpenMP pools get one fixed thread, so that timings do not
# depend on what else the machine runs.  This has to happen before numpy
# is first imported.
PINNED_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import workloads as W  # noqa: E402
from tracing import SpanTree, Tracer, cli_self, layer_metrics, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench-work"
SETUPS = 3
MIN_REPS = 3
SAMPLE_WINDOWS = 64
REFERENCE_TOL = 1e-12
ATTRIBUTION_TOL = 0.01

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "build_s": "s",
    "train_s": "s",
    "grid_s": "s",
    "eval_s": "s",
    "attack_s": "s",
    "train_window_epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "test_acc": "%",
    "attacked_test_acc": "%",
    "grid_best_val_acc": "%",
    "quality_acc_pct": "%",
    "market_data.ingest_eod_s": "s",
    "market_data.rows_per_s": "1/s",
    "market_data.align_trading_days_s": "s",
    "market_data.label_and_window_s": "s",
    "market_data.windows": "count",
    "artifacts.save_dataset_s": "s",
    "artifacts.dataset_bytes": "bytes",
    "artifacts.load_dataset_s": "s",
    "artifacts.arrays_s": "s",
    "artifacts.file_sha256_s": "s",
    "model.forward.train_step_s_per_batch": "s",
    "model.backward_s_per_batch": "s",
    "model.forward.eval_s_per_window": "s",
    "model.map_forward_self_s": "s/window",
    "model.lstm_forward_self_s": "s/window",
    "model.attention_forward_self_s": "s/window",
    "model.head_forward_self_s": "s/window",
    "model.forward_self_s": "s/window",
    "training.step_s_p50": "s",
    "training.step_s_p90": "s",
    "training.objective_self_s_per_batch": "s",
    "training.adam_step_s": "s",
    "training.adversarial_perturbations_s": "s",
    "training.perturbed_frac": "ratio",
    "training.epoch_s_p50": "s",
    "training.epoch_s_p90": "s",
    "training.eval_share": "ratio",
    "training.epochs": "count",
    "training.batches": "count",
    "training.attacked_confidences_s": "s",
    "gridsearch.cell_s_p50": "s",
    "gridsearch.cell_s_p90": "s",
    "gridsearch.cells": "count",
    "gridsearch.predict_s": "s",
    "baselines.calls": "count",
    "baselines.s": "s",
    "evaluation.s": "s",
    "cli.self_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac_max": "ratio",
}


class Ledger:
    """Attempted operations (commands and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def import_package(root: Path):
    """Import advalstm from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "advalstm" / "__init__.py").is_file():
        raise ImportError(f"no advalstm sources under {src}")
    sys.path.insert(0, str(src))
    import advalstm
    import advalstm.cli
    import advalstm.synthetic

    if Path(advalstm.__file__).resolve().parent != src / "advalstm":
        raise ImportError(f"advalstm was imported from {advalstm.__file__}, not {src}")
    return advalstm


def environment(root: Path, seed: int) -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from the files of .git; None outside a repository."""
    git = root / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Run:
    """One workload run: set-up, timed repetitions, checks and metrics."""

    def __init__(self, pkg, workload, seed: int, seconds: float, trace: bool,
                 tiny: bool, import_s: float, root: Path):
        self.pkg = pkg
        self.w = workload
        self.size = workload.size(tiny)
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.import_s = import_s
        self.ledger = Ledger()
        self.tracer = Tracer(pkg) if trace else None
        self.work = root / WORK_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.log = None
        self.repetitions: list[tuple[bool, dict[str, float]]] = []

    # -- commands

    def cli(self, command: str, config: Path) -> float:
        """Run one advalstm subcommand in-process; returns its wall time."""
        argv = [command, "--config", str(config)]
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            start = perf_counter()
            try:
                code = self.pkg.cli.main(argv)
            except Exception:
                traceback.print_exc(file=self.log)
                code = None
            elapsed = perf_counter() - start
        self.ledger.check(f"{command} exits 0 (got {code})", code == 0)
        return elapsed

    def setup(self, i: int) -> dict:
        d = self.work / f"setup{i}"
        d.mkdir(parents=True)
        if self.tracer:
            self.tracer.install()
            self.tracer.phase = 0
        start = perf_counter()
        data, thinned = W.write_inputs(self.pkg.synthetic, self.w, d, self.seed, self.tiny)
        config = d / "run.cfg"
        config.write_text(W.config_text(self.w, data, d / "out", self.seed, self.tiny))
        for command in self.w.prerequisites:
            self.cli(command, config)
        body_s = perf_counter() - start
        out = d / "out"
        record = {
            "body_s": body_s,
            "config": config,
            "out": out,
            "thinned": thinned,
            "inputs": W.tree_sha256(data),
            "dataset": W.sha256(out / "dataset.bin") if (out / "dataset.bin").is_file() else None,
            "checkpoint": W.sha256(out / "model.ckpt") if (out / "model.ckpt").is_file() else None,
        }
        if "train" in self.w.prerequisites:
            self.ledger.check(f"setup {i}: loss_curves.csv finite",
                              W.loss_curves_ok(out / "loss_curves.csv", self.size.epochs))
        if self.tracer:
            self.tracer.uninstall()
        if i > 0:  # only the first set-up's outputs are used again
            shutil.rmtree(d)
        return record

    # -- checks

    def check_setups(self, setups: list[dict]) -> None:
        first = setups[0]
        for i, s in enumerate(setups[1:], start=1):
            self.ledger.check(f"setup {i}: inputs byte-identical to set-up 0",
                              s["inputs"] == first["inputs"])
            self.ledger.check(f"setup {i}: dataset.bin SHA-256 identical",
                              s["dataset"] is not None and s["dataset"] == first["dataset"])
            if "train" in self.w.prerequisites:
                self.ledger.check(f"setup {i}: model.ckpt SHA-256 identical",
                                  s["checkpoint"] is not None
                                  and s["checkpoint"] == first["checkpoint"])

    def check_rep(self, r: int, out: Path, setup: dict, first: dict) -> dict:
        """Checks after timed repetition r; returns the output digests."""
        check = self.ledger.check
        digests = {}
        try:
            if "build" in self.w.commands:
                check(f"rep {r}: rebuilt dataset.bin SHA-256 identical to set-up",
                      W.sha256(out / "dataset.bin") == setup["dataset"])
            if "train" in self.w.commands:
                check(f"rep {r}: loss_curves.csv finite",
                      W.loss_curves_ok(out / "loss_curves.csv", self.size.epochs))
                digests["model.ckpt"] = W.sha256(out / "model.ckpt")
            if "eval" in self.w.commands:
                clean, _ = W.attack_accs(out)
                check(f"rep {r}: attack clean acc equals eval model acc",
                      clean == W.test_acc(out))
                digests["metrics.csv"] = W.sha256(out / "metrics.csv")
                digests["attack_report.csv"] = W.sha256(out / "attack_report.csv")
            if "grid" in self.w.commands:
                rows = W.read_rows(out / "grid_results.csv")
                check(f"rep {r}: grid_results.csv has {W.GRID_CELLS} finite cells",
                      len(rows) == W.GRID_CELLS
                      and all(0.0 <= float(row["val_acc"]) <= 100.0 for row in rows))
                digests["grid_results.csv"] = W.sha256(out / "grid_results.csv")
                digests["best_config.cfg"] = W.sha256(out / "best_config.cfg")
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            check(f"rep {r}: outputs readable ({exc!r})", False)
        for name, digest in digests.items():
            if name in first:
                check(f"rep {r}: {name} SHA-256 identical across repetitions",
                      digest == first[name])
        return digests

    def check_reference(self, out: Path) -> None:
        """The naive reference forward agrees with advalstm.model.predict."""
        pkg = self.pkg
        try:
            dataset = pkg.artifacts.load_dataset(out / "dataset.bin")
            if "grid" in self.w.commands:
                best = pkg.config.load_config(out / "best_config.cfg")
                x, _ = dataset.arrays("val")
                x = x[:, -best.lag:, :]
                params = pkg.model.init_params(best.model_dims(), np.random.default_rng(self.seed))
            else:
                x, _ = dataset.arrays("test")
                params, _, _ = pkg.artifacts.load_checkpoint(out / "model.ckpt")
            rng = np.random.default_rng([self.seed, 11])
            idx = np.sort(rng.choice(len(x), size=min(SAMPLE_WINDOWS, len(x)), replace=False))
            err = reference.max_abs_error(x[idx], params, pkg.model.predict(x[idx], params))
        except Exception as exc:  # any failure here is a failed check, not a crash
            self.ledger.check(f"reference forward ran ({exc!r})", False)
            return
        self.ledger.check(f"reference forward within {REFERENCE_TOL} (max error {err:.3g})",
                          err <= REFERENCE_TOL)

    # -- the run

    def repetition(self, r: int, setup: dict, first: dict) -> tuple[bool, dict[str, float]]:
        """Timed repetition r of the command sequence, then its checks.

        With tracing, odd repetitions run untraced and even ones traced.
        """
        tracer = self.tracer
        traced = tracer is not None and r % 2 == 0
        if tracer:
            tracer.install() if traced else tracer.uninstall()
            tracer.phase = r
        gc.collect()  # every repetition starts from a collected heap
        times = {c: self.cli(c, setup["config"]) for c in self.w.commands}
        if tracer:
            tracer.uninstall()
        digests = self.check_rep(r, setup["out"], setup, first)
        if not first:
            first.update(digests)
        return traced, times

    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        setups: list[dict] = []
        reps = self.repetitions
        first: dict = {}
        timed_s = 0.0
        try:
            with open(self.work / "commands.log", "w") as self.log:
                # Set-ups alternate with the first repetitions, so that the
                # repetitions sample the machine's speed over the whole run.
                while len(setups) < SETUPS or timed_s < self.seconds or len(reps) < MIN_REPS:
                    if len(setups) < SETUPS and len(setups) <= len(reps):
                        setups.append(self.setup(len(setups)))
                        continue
                    start = perf_counter()
                    reps.append(self.repetition(len(reps) + 1, setups[0], first))
                    timed_s += perf_counter() - start
                self.check_setups(setups)
                setup = setups[0]
                setup_s = self.import_s + median(s["body_s"] for s in setups)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.check_reference(setup["out"])
                if setup["thinned"]:
                    manifest = json.loads((setup["out"] / "build_manifest.json").read_text())
                    self.ledger.check("thinned stocks are the ones alignment dropped",
                                      manifest["dropped"] == setup["thinned"])
                metrics = self.end_to_end(reps, setup, setup_s, peak_rss_mb)
                if self.tracer:
                    metrics.update(self.per_layer(reps))
        finally:
            if self.tracer:
                self.tracer.uninstall()
        shutil.rmtree(self.work, ignore_errors=True)
        return metrics

    def end_to_end(self, reps, setup: dict, setup_s: float, peak_rss_mb: float) -> dict:
        plain = [times for traced, times in reps if not traced]
        m: dict[str, float | None] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        m["wall_s"] = median(sum(t.values()) for t in plain)
        for command in self.w.commands:
            m[f"{command}_s"] = median(t[command] for t in plain)
        out = setup["out"]
        manifest = json.loads((out / "build_manifest.json").read_text())
        n_train = manifest["split_sizes"]["train"]
        if "train" in self.w.commands:
            m["train_window_epochs_per_s"] = n_train * self.size.epochs / m["train_s"]
        if "grid" in self.w.commands:
            m["train_window_epochs_per_s"] = (
                W.GRID_CELLS * n_train * self.size.epochs / m["grid_s"]
            )
            rows = W.read_rows(out / "grid_results.csv")
            m["grid_best_val_acc"] = max(float(row["val_acc"]) for row in rows[W.STAGE1_CELLS:])
            m["quality_acc_pct"] = m["grid_best_val_acc"]
        if "eval" in self.w.commands:
            m["test_acc"] = W.test_acc(out)
            m["attacked_test_acc"] = W.attack_accs(out)[1]
            m["quality_acc_pct"] = m["test_acc"]
        return m

    def per_layer(self, reps) -> dict:
        tree = SpanTree(self.tracer.spans)
        traced_reps = [r for r, (traced, _) in enumerate(reps, start=1) if traced]
        m = layer_metrics(tree, len(traced_reps))

        plain = median(sum(t.values()) for traced, t in reps if not traced)
        traced = median(sum(t.values()) for is_traced, t in reps if is_traced)
        m["trace.overhead_s"] = traced - plain
        m["trace.overhead_frac"] = (traced - plain) / plain

        # Per command: the self times of every span under cli.main must
        # add up to the wall time measured around the call.
        roots = {}
        for i, s in enumerate(tree.spans):
            if s[0] == "cli.main" and s[6] >= 1:
                roots.setdefault(s[6], []).append(i)
        worst = 0.0
        for r in traced_reps:
            times = reps[r - 1][1]
            for command, root in zip(self.w.commands, roots.get(r, [])):
                gap = abs(times[command] - tree.subtree_self(root)) / times[command]
                worst = max(worst, gap)
        negative = min(tree.self_time) if tree.self_time else 0.0
        self.ledger.check(
            f"per-command span self times account for the command wall time "
            f"(worst gap {worst:.2%}, least self time {negative:.3g} s)",
            worst <= ATTRIBUTION_TOL and negative >= -1e-9
            and all(len(roots.get(r, [])) == len(self.w.commands) for r in traced_reps),
        )
        m["trace.unattributed_frac_max"] = worst

        per_command = cli_self(tree)
        main_s = sum(tree.dur[i] for ids in roots.values() for i in ids)
        m["cli.self_frac"] = sum(sum(v) for v in per_command.values()) / main_s
        for command, values in per_command.items():
            m[f"cli.{command}.self_s"] = median(values)
        return m


def benchmark_metrics(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(pkg, name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 import_s: float, root: Path = ROOT) -> tuple[dict, list[str]]:
    """Run one workload; returns (result line object, human-readable lines)."""
    run = Run(pkg, W.WORKLOADS[name], seed, seconds, trace, tiny, import_s, root)
    metrics: dict = {}
    try:
        metrics = run.execute()
    except Exception:  # reported as a failed run, with its traceback on stderr
        traceback.print_exc()
        run.ledger.check("run completed: " + traceback.format_exc().strip().splitlines()[-1], False)
    ledger = run.ledger
    result_metrics = {}
    for entry in benchmark_metrics(root, trace):
        value = metrics.get(entry["name"])
        if ledger.check(f"metric {entry['name']} measured", value is not None):
            result_metrics[entry["name"]] = {"value": value, "unit": UNITS[entry["name"]]}
    metrics["failed_frac"] = len(ledger.failures) / ledger.attempted
    env = environment(root, seed)
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]
    lines += [f"env {key}: {value}" for key, value in env.items()]
    lines += [
        f"metric {key} = {value:.6g} {UNITS.get(key, 's')}"
        for key, value in metrics.items() if value is not None
    ]
    lines += [f"FAILED {what}" for what in ledger.failures]
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": result_metrics,
    }
    record_dir = root / WORK_DIR / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    (record_dir / f"{stem}.json").write_text(json.dumps(
        {"result": result, "environment": env, "all_metrics": metrics,
         "repetitions": [{"traced": t, "seconds": times} for t, times in run.repetitions],
         "failures": ledger.failures}, indent=2, sort_keys=True) + "\n")
    if run.tracer:
        run.tracer.write(record_dir / f"{stem}-spans.tsv.gz")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg = import_package(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START
    result, lines = run_workload(pkg, args.workload, args.seed, args.seconds,
                                 bool(args.trace), tiny=False, import_s=import_s)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
