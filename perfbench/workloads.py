"""The three benchmark workloads: their inputs, configs and output checks.

Inputs come from ``advalstm.synthetic.write_regime_price_csv`` seeded by
the workload seed; ``ingest_score`` post-processes them into a messier
raw market.  Early stopping is off everywhere (``train.patience = 0``),
so the amount of work does not depend on the numbers the model computes.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Longest moving average in the feature set; anchors start after it.
MIN_HISTORY = 30
SYNTHETIC_START = dt.date(2020, 1, 1)


@dataclass(frozen=True)
class Size:
    stocks: int
    days: int
    lag: int
    train_days: int          # anchor days in each split
    val_days: int
    test_days: int
    epochs: int
    vol: float | None = None  # None: the generator's learnable regime market
    drift: float | None = None
    switch_prob: float | None = None
    hidden: int = 16
    batch: int = 1024
    thin: int = 0            # stocks thinned below data.min_coverage
    files: int = 1           # multi-stock files the rows are shuffled into


@dataclass(frozen=True)
class Workload:
    name: str
    prerequisites: tuple[str, ...]   # untimed commands of the set-up
    commands: tuple[str, ...]        # the timed sequence
    full: Size
    tiny: Size
    settings: dict = field(default_factory=dict)  # further config keys

    def size(self, tiny: bool) -> Size:
        return self.tiny if tiny else self.full


GRID_SETTINGS = {
    # On the market without regime switches every stage-one cell reaches
    # 100% validation accuracy at this rate, so the tie-break picks the
    # smallest cell and stage two does the same work for every seed.
    # With switches the winner moves between lags 5 and 15 from seed to
    # seed, and the grid's work with it.
    "train.learning_rate": 0.05,
    "grid.hidden_sizes": "4,8,32",
    "grid.lags": "2,5,15",
    "grid.l2_coefs": "0.01,0.1",
    "grid.adv_weights": "0.05,0.5",
    "grid.adv_scales": "0.01,0.05",
}
STAGE1_CELLS = 3 * 3 * 2
GRID_CELLS = STAGE1_CELLS + 2 * 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_adv_ref",
            prerequisites=("build",),
            commands=("train", "eval", "attack"),
            # ~20k / 2.5k / 3.7k train / val / test windows, as in the paper.
            full=Size(stocks=88, days=750, lag=5, train_days=311, val_days=39,
                      test_days=58, epochs=3, vol=0.015, drift=0.0005),
            tiny=Size(stocks=4, days=120, lag=5, train_days=40, val_days=15,
                      test_days=15, epochs=1, vol=0.015, drift=0.0005),
        ),
        Workload(
            name="grid_sweep",
            prerequisites=("build",),
            commands=("grid",),
            # Batches of 256 give each cell enough steps to learn the market.
            full=Size(stocks=88, days=750, lag=15, train_days=15, val_days=8,
                      test_days=10, epochs=3, batch=256, switch_prob=0.0),
            tiny=Size(stocks=4, days=120, lag=15, train_days=40, val_days=15,
                      test_days=15, epochs=1, batch=256, switch_prob=0.0),
            settings=GRID_SETTINGS,
        ),
        Workload(
            name="ingest_score",
            prerequisites=("build", "train"),
            commands=("build", "eval", "attack"),
            full=Size(stocks=200, days=400, lag=5, train_days=25, val_days=10,
                      test_days=120, epochs=1, vol=0.015, drift=0.0005, thin=4, files=8),
            tiny=Size(stocks=6, days=120, lag=5, train_days=40, val_days=15,
                      test_days=15, epochs=1, vol=0.015, drift=0.0005, thin=1, files=3),
        ),
    )
}


def business_days(start: dt.date, n: int) -> list[dt.date]:
    out, day = [], start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def calendar(w: Workload, tiny: bool) -> list[dt.date]:
    """Trading days of the generated market, after post-processing."""
    n = w.size(tiny).days
    if w.size(tiny).files > 1:  # the post-processed market trades on weekdays
        return business_days(dt.date(2016, 1, 4), n)
    return [SYNTHETIC_START + dt.timedelta(days=i) for i in range(n)]


def write_inputs(synthetic, w: Workload, root: Path, seed: int, tiny: bool) -> tuple[Path, list[str]]:
    """Generate the raw market under ``root``; returns (data path, thinned stocks)."""
    s = w.size(tiny)
    knobs = {"vol": s.vol, "drift": s.drift, "switch_prob": s.switch_prob}
    kwargs = {k: v for k, v in knobs.items() if v is not None}
    messy = s.files > 1
    generated = root / ("raw" if messy else "csv")
    synthetic.write_regime_price_csv(generated, n_stocks=s.stocks, n_days=s.days, seed=seed, **kwargs)
    if not messy:
        return generated, []
    path = root / "csv"
    thinned = _messy_market(generated, path, seed, s, calendar(w, tiny))
    shutil.rmtree(generated)
    return path, thinned


def _messy_market(raw: Path, out: Path, seed: int, s: Size, days: list[dt.date]) -> list[str]:
    """Rewrite per-stock CSVs as a shuffled multi-stock market on business days.

    ``s.thin`` stocks lose about 10% of their rows, which puts them below
    the default 0.98 coverage, so alignment drops them.
    """
    rng = np.random.default_rng([seed, 7])
    header, rows = None, []
    for f in sorted(raw.glob("*.csv")):
        with open(f, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows.extend(reader)
    remap = {
        (SYNTHETIC_START + dt.timedelta(days=i)).isoformat(): d.isoformat()
        for i, d in enumerate(days)
    }
    stocks = sorted({r[0] for r in rows})
    thinned = sorted(str(x) for x in rng.choice(stocks, size=s.thin, replace=False))
    drop = rng.random(len(rows)) < 0.1
    kept = [
        [r[0], remap[r[1]], *r[2:]]
        for r, d in zip(rows, drop)
        if not (d and r[0] in thinned)
    ]
    order = rng.permutation(len(kept))
    out.mkdir(parents=True)
    for part in range(s.files):
        with open(out / f"part-{part:02d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(kept[i] for i in order[part :: s.files])
    return thinned


def config_text(w: Workload, data: Path, out: Path, seed: int, tiny: bool) -> str:
    s = w.size(tiny)
    days = calendar(w, tiny)
    first = MIN_HISTORY - 1 + s.lag - 1
    train_end = days[first + s.train_days]
    val_end = days[first + s.train_days + s.val_days]
    test_end = days[first + s.train_days + s.val_days + s.test_days]
    lines = {
        "data.path": data,
        "out.dir": out,
        "data.lag": s.lag,
        "split.train_end": train_end,
        "split.val_end": val_end,
        "split.test_end": test_end,
        "model.hidden_size": s.hidden,
        "model.map_size": s.hidden,
        "train.mode": "adversarial",
        "train.epochs": s.epochs,
        "train.batch_size": s.batch,
        "train.patience": 0,
        "train.seed": seed,
        "grid.epochs": s.epochs,
        **w.settings,
    }
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


# ---------------------------------------------------------------- checks


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(root.rglob("*.csv")):
        digest.update(f.relative_to(root).as_posix().encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def loss_curves_ok(path: Path, epochs: int) -> bool:
    rows = read_rows(path)
    values = [float(r[k]) for r in rows for k in ("train_loss", "val_loss", "val_acc")]
    return len(rows) == epochs and all(math.isfinite(v) for v in values)


def test_acc(out: Path) -> float:
    return next(float(r["acc"]) for r in read_rows(out / "metrics.csv") if r["name"] == "model")


def attack_accs(out: Path) -> tuple[float, float]:
    row = next(r for r in read_rows(out / "attack_report.csv") if r["metric"] == "acc")
    return float(row["clean"]), float(row["attacked"])
