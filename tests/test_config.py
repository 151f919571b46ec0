import datetime as dt
import re
from dataclasses import fields
from pathlib import Path

import pytest

from advalstm.config import (
    CONFIG_KEYS,
    RunConfig,
    config_as_dict,
    dump_config,
    load_config,
    parse_config_text,
)
from advalstm.errors import ConfigError


GOOD = """
# comment line
data.path = prices
out.dir = out

data.lag = 7
split.train_end = 2020-02-01
split.val_end = 2020-03-01
split.test_end = 2020-04-01
label.pos_threshold = 0.01
label.neg_threshold = -0.01
model.hidden_size = 8
model.map_size = 8
train.mode = adversarial
train.l2 = 0.001
train.adv_weight = 0.5
train.adv_scale = 0.05
train.seed = 11
grid.lags = 2, 3, 7
grid.l2_coefs = 0.1,1.0
"""


# Every key whose value is a float or a list of floats.
_TYPES = {f.name: f.type for f in fields(RunConfig)}
FLOAT_KEYS = [key for key, (attr, _) in CONFIG_KEYS.items() if "float" in _TYPES[attr]]


class TestParse:
    def test_values_and_comments(self):
        config = parse_config_text(GOOD)
        assert config.data_path == "prices"
        assert config.lag == 7
        assert config.train_end == dt.date(2020, 2, 1)
        assert config.mode == "adversarial"
        assert config.seed == 11
        assert config.grid_lags == (2, 3, 7)
        assert config.grid_l2_coefs == (0.1, 1.0)

    def test_defaults(self):
        config = parse_config_text("")
        assert config.lag == 5
        assert config.batch_size == 1024
        assert config.epochs == 150
        assert config.patience == 20
        assert config.attack_scale is None

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("train.learningrate = 0.1")

    def test_line_number_in_error(self):
        with pytest.raises(ConfigError, match=":3"):
            parse_config_text("\n\ndata.lag = not_a_number")

    def test_repeated_key_names_both_lines(self):
        text = "train.epochs = 3\n# later\ntrain.epochs = 7\n"
        with pytest.raises(ConfigError, match="<config>:3: key 'train.epochs' already set on line 1"):
            parse_config_text(text)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("data.lag 5")

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="train.mode"):
            parse_config_text("train.mode = chaotic")

    def test_bad_date(self):
        with pytest.raises(ConfigError, match="YYYY-MM-DD"):
            parse_config_text("split.train_end = 02/01/2020")

    @pytest.mark.parametrize("value", ["20200315", "2020-W11-1"])
    def test_date_other_than_yyyy_mm_dd_rejected(self, value):
        # Python 3.11's date.fromisoformat reads both; CSV dates reject them too.
        with pytest.raises(ConfigError, match=f"expected YYYY-MM-DD date, got '{value}'"):
            parse_config_text(f"split.train_end = {value}")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")


class TestValidation:
    def test_downstream_invariants_rejected_upfront(self):
        with pytest.raises(ConfigError):
            parse_config_text("train.learning_rate = 0")
        with pytest.raises(ConfigError):
            parse_config_text("train.batch_size = 0")
        with pytest.raises(ConfigError):
            parse_config_text("model.hidden_size = 0")
        with pytest.raises(ConfigError):
            parse_config_text("data.min_coverage = 1.5")
        with pytest.raises(ConfigError):
            parse_config_text("label.pos_threshold = -0.1\n" + SPLITS)
        with pytest.raises(ConfigError):
            parse_config_text("baseline.mom_window = 1")
        with pytest.raises(ConfigError):
            parse_config_text("grid.lags = ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_rejected(self, key, value):
        text = f"{key} = 0.5, {value}" if key.startswith("grid.") else f"{key} = {value}"
        with pytest.raises(ConfigError, match=f"{re.escape(key)}: expected a finite number"):
            parse_config_text(text)

    def test_split_order_checked_when_present(self):
        text = (
            "split.train_end = 2020-03-01\n"
            "split.val_end = 2020-02-01\n"
            "split.test_end = 2020-04-01\n"
        )
        with pytest.raises(ConfigError, match="increasing"):
            parse_config_text(text)

    def test_split_required_for_split_spec(self):
        config = parse_config_text("data.lag = 3")
        with pytest.raises(ConfigError, match="required"):
            config.split_spec()


SPLITS = (
    "split.train_end = 2020-02-01\n"
    "split.val_end = 2020-03-01\n"
    "split.test_end = 2020-04-01\n"
)


class TestRoundTrip:
    def test_dump_then_parse_is_identity(self):
        config = parse_config_text(GOOD)
        again = parse_config_text(dump_config(config))
        assert again == config

    def test_dict_view_uses_config_keys(self):
        d = config_as_dict(RunConfig())
        assert d["data.lag"] == 5
        assert d["train.mode"] == "normal"
        assert "grid.lags" in d


def readme_defaults() -> dict[str, str]:
    """Key -> default cell text from the README's configuration reference."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme[readme.index("## Configuration reference"):]
    out = {}
    for line in table.splitlines()[4:]:
        if not line.startswith("|"):
            break
        key_cell, default_cell = line.split("|")[1:3]
        keys = re.findall(r"`([a-z0-9_.]+)`", key_cell)
        values = re.findall(r"`([^`]*)`", default_cell) or [default_cell.strip()] * len(keys)
        assert len(values) == len(keys), line
        out.update(zip(keys, values))
    return out


class TestReadme:
    def test_reference_table_matches_defaults(self):
        documented = readme_defaults()
        defaults = config_as_dict(RunConfig())
        assert set(documented) == set(CONFIG_KEYS)
        for key, text in documented.items():
            value = defaults[key]
            if text in ("(required)", "unset"):
                assert value in ("", None), key
            elif isinstance(value, list):
                assert text == ",".join(str(v) for v in value), key
            else:
                assert text == str(value), key
