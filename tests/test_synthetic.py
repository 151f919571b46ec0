import csv
import datetime as dt

import pytest

from advalstm.errors import ContractError
from advalstm.market_data import CSV_COLUMNS
from advalstm.synthetic import write_regime_price_csv

from helpers import regime_price_csv_oracle

# The benchmark's market shapes, at 12 x 200, and the corners of the
# generator's parameters.
CASES = {
    "train_adv_ref": dict(n_stocks=12, n_days=200, seed=3, vol=0.015, drift=0.0005),
    "grid_sweep": dict(n_stocks=12, n_days=200, seed=3, switch_prob=0.0),
    "defaults": dict(n_stocks=12, n_days=200, seed=3),
    "always_switch": dict(n_stocks=3, n_days=60, seed=5, switch_prob=1.0),
    "one_stock_two_days": dict(n_stocks=1, n_days=2, seed=9),
    "start_date": dict(n_stocks=3, n_days=40, seed=2, start_date=dt.date(2015, 12, 20)),
    "acl18_shape": dict(n_stocks=88, n_days=750, seed=0, switch_prob=0.0),
}


@pytest.mark.parametrize("kwargs", CASES.values(), ids=CASES.keys())
def test_bytes_match_the_per_row_oracle(tmp_path, kwargs):
    got = write_regime_price_csv(tmp_path / "got", **kwargs)
    want = regime_price_csv_oracle(tmp_path / "want", **kwargs)
    assert got == want == [f"SYN{i:02d}" for i in range(kwargs["n_stocks"])]
    files = sorted(p.name for p in (tmp_path / "got").iterdir())
    assert files == sorted(f"{s}.csv" for s in got)
    for name in files:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name


def test_rows_bracket_open_and_close(tmp_path):
    symbols = write_regime_price_csv(tmp_path, n_stocks=3, n_days=80, seed=4, switch_prob=0.2)
    for symbol in symbols:
        with open(tmp_path / f"{symbol}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 80
        for row in rows:
            assert tuple(row) == CSV_COLUMNS and row["stock"] == symbol
            o, h, lo, c = (float(row[k]) for k in ("open", "high", "low", "close"))
            assert h >= max(o, c) and lo <= min(o, c)
            assert row["adj_close"] == row["close"]
        for prev, cur in zip(rows, rows[1:]):
            assert cur["open"] == prev["close"]


@pytest.mark.parametrize("n_stocks, n_days", [(0, 10), (2, 1)])
def test_rejects_too_small_markets(tmp_path, n_stocks, n_days):
    with pytest.raises(ContractError):
        write_regime_price_csv(tmp_path, n_stocks=n_stocks, n_days=n_days)
