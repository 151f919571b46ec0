"""From raw price CSVs to labeled training windows, step by step."""
import datetime as dt
import tempfile
from pathlib import Path

import numpy as np

from advalstm.market_data import (
    PRICE_COLUMNS, SplitSpec, align_trading_days, compute_features, gather_windows, ingest_eod,
    label_and_window,
)
from advalstm.synthetic import write_regime_price_csv

# fabricate a small universe of price files so the demo is self-contained
work = Path(tempfile.mkdtemp(prefix="advalstm_demo_"))
symbols = write_regime_price_csv(work, n_stocks=4, n_days=150, seed=7)
print("wrote", len(symbols), "price files to", work)
print((work / f"{symbols[0]}.csv").read_text().splitlines()[0])  # the header

# ingest: parse and check whole CSV columns at once, then sort; one
# EodSeries per stock: date ordinals plus an (n, 5) price array
series = ingest_eod(work)
first = series[symbols[0]]
print("first row:", dt.date.fromordinal(int(first.dates[0])),
      dict(zip(PRICE_COLUMNS, first.prices[0].tolist())))

# align: drop stocks with poor coverage, intersect the others' trading
# calendars, and stack what is left into one (stocks, days, price columns) panel
aligned = align_trading_days(series, min_coverage=0.98)
print("aligned", len(aligned.stocks), "stocks over", len(aligned.calendar), "days,",
      "dropped", aligned.dropped, "- price panel", aligned.prices.shape)

# features: 11 numbers per stock-day, computed for the whole panel at once;
# ratios, so price scale cancels out
s = aligned.stocks.index(symbols[0])
feats = compute_features(aligned.prices)[s, 40]
print("feature vector on day 40:")
print(np.array2string(feats, precision=4))

# label: anchor day t is labeled by day t+1's adjusted-close movement; moves
# inside (-0.5%, +0.55%) are dropped as neutral.  Each split is columnar: a
# label, a stock index and an anchor-day index per row.  The features of every
# stock-day are kept once, in a panel that ends on the last anchor day.
spec = SplitSpec(
    train_end=dt.date(2020, 3, 1),
    val_end=dt.date(2020, 4, 15),
    test_end=dt.date(2020, 6, 1),
    lag=5,
)
dataset = label_and_window(aligned, spec)
fractions = dataset.positive_fraction()
for name in ("train", "val", "test"):
    split = getattr(dataset, name)
    pos = fractions[name]
    pos_text = f"{pos:.1%} positive" if pos is not None else "empty"
    print(f"{name}: {len(split)} examples, {pos_text}")
print("feature panel", dataset.features.shape, "(stocks, days up to the last anchor, features)")

# each row remembers where it came from: an index into the sorted stocks
# and one into the trading calendar.  Its lag window is a gather from the
# panel: the lag days that end on the anchor day.
train = dataset.train
s, t = train.stock_idx[0], train.anchor_idx[0]
adj = dataset.adj_close
print("first train example:", dataset.stocks[s], "anchored at", dataset.calendar[t],
      "label", train.labels[0], f"movement {adj[s, t + 1] / adj[s, t] - 1.0:+.4%}")
window = gather_windows(dataset.features, train.stock_idx[:1], train.anchor_idx[:1], spec.lag)[0]
print(f"its window, {spec.lag} days x 11 features, oldest day first:")
print(np.array2string(window, precision=4))
