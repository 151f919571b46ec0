"""One mutated input at a time: the CLI exits cleanly and never lies.

Each example mutates one JSON header field or one header byte of a
fixture's ``dataset.bin`` or ``model.ckpt``, or one byte of its
``metrics.csv`` or ``run.cfg``, then runs a command that reads the file
in-process.  The command must return 0, 2 or 4; an uncaught exception
fails the test.  Where it returns 0 and the mutated file still holds the
same inputs, its outputs must equal those of the unmutated run.  A
changed config value, metrics cell or checkpoint ``lag`` is a different
input by contract, so there only the exit code is checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from advalstm.artifacts import MAGIC, file_sha256, load_checkpoint, read_metrics_csv
from advalstm.cli import main
from advalstm.config import config_as_dict, load_config
from advalstm.errors import AdvAlstmError
from advalstm.synthetic import write_regime_price_csv

CONFIG = """\
data.lag = 3
split.train_end = 2020-02-25
split.val_end = 2020-03-10
split.test_end = 2020-03-25
model.map_size = 4
model.hidden_size = 4
train.mode = adversarial
train.adv_scale = 0.05
train.batch_size = 32
train.epochs = 2
train.seed = 1
"""

# file mutated -> commands that read it
READERS = {
    "dataset.bin": ("train", "eval", "attack"),
    "model.ckpt": ("eval", "attack"),
    "metrics.csv": ("report",),
    "run.cfg": ("train", "eval", "attack", "report"),
}
OUTPUTS = {
    "train": ("model.ckpt", "loss_curves.csv", "run_manifest.json"),
    "eval": ("metrics.csv", "predictions.csv", "confidence_histogram.csv"),
    "attack": ("attack_report.csv",),
    "report": ("summary.csv",),
}
# Stand-ins for one JSON value: other types, edge integers, non-finite floats.
VALUES = [None, True, 0, -1, 1, 2, 2**31, 2**63, 1.5, -0.5, math.nan, math.inf, "", "x",
          "2020-01-01", "<f8", "|i1", "<i8", [], [0], [2**62, 4], {}, {"a": 1}]


def run(root: Path, command: str) -> tuple[int, str]:
    """Run ``command`` on the files under ``root``; (exit code, stdout)."""
    out = root / "out"
    argv = [command, "--config", str(root / "run.cfg"), "--out", str(out)]
    argv += {"attack": ["--scale", "0.05"], "report": [str(out / "metrics.csv")]}.get(command, [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, stdout.getvalue()


def outputs(root: Path, command: str, stdout: str, sha: str, reference_sha: str) -> dict:
    """The command's output bytes, with the run's paths and dataset hash made neutral."""
    files = {name: (root / "out" / name).read_bytes() for name in OUTPUTS[command]}
    files["stdout"] = stdout.encode()
    return {name: data.replace(str(root).encode(), b"ROOT").replace(sha.encode(),
                                                                    reference_sha.encode())
            for name, data in files.items()}


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """A built, trained and evaluated run, and each command's outputs on it."""
    root, prices = tmp_path_factory.mktemp("fuzz"), tmp_path_factory.mktemp("prices")
    write_regime_price_csv(prices, n_stocks=3, n_days=90, seed=4)
    (root / "run.cfg").write_text(CONFIG + f"data.path = {prices}\n")
    for command in ("build", "train", "eval"):
        assert run(root, command)[0] == 0
    sha = file_sha256(root / "out" / "dataset.bin")
    expected = {}
    for command in OUTPUTS:
        code, stdout = run(root, command)
        assert code == 0
        expected[command] = outputs(root, command, stdout, sha, sha)
    return root, sha, expected


def paths(value, path=()):
    """Every path into a JSON value, the value's own included; of a list,
    only the first and last elements, so long lists do not crowd out
    the other fields."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = {0: value[0], len(value) - 1: value[-1]}.items() if value else ()
    else:
        items = ()
    for key, child in items:
        yield from paths(child, path + (key,))


def mutate_container(raw: bytes, data) -> bytes:
    start = len(MAGIC) + 4
    (size,) = struct.unpack_from("<I", raw, len(MAGIC))
    kind = data.draw(st.sampled_from(["meta field", "any field", "byte"]), label="kind")
    if kind != "byte":
        header = json.loads(raw[start:start + size])
        every = list(paths(header))[1:]
        # the meta fields get draws of their own: the tensor entries outnumber them
        meta = [p for p in every if p[0] == "meta" and len(p) == 2]
        path = data.draw(st.sampled_from(meta if kind == "meta field" else every), label="path")
        *parents, key = path
        owner = header
        for p in parents:
            owner = owner[p]
        old = owner[key]
        owner[key] = data.draw(st.sampled_from(
            [v for v in VALUES if type(v) is not type(old) or v != old]), label="value")
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return MAGIC + struct.pack("<I", len(text)) + text + raw[start + size:]
    return mutate_byte(raw, data, start + size)


def mutate_byte(raw: bytes, data, end: int) -> bytes:
    i = data.draw(st.integers(0, end - 1), label="byte")
    value = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]), label="value")
    return raw[:i] + bytes([value]) + raw[i + 1:]


def reads_as(path: Path, name: str):
    """What a command takes from the file as its input, or None when unreadable."""
    try:
        if name == "run.cfg":
            return {k: v for k, v in config_as_dict(load_config(path)).items() if k != "out.dir"}
        if name == "metrics.csv":
            return [tuple(row.values()) for row in read_metrics_csv(path)]
        return load_checkpoint(path)[2]["lag"]
    except (AdvAlstmError, OSError):
        return None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_mutated_input_exits_0_2_or_4(fixture_run, data):
    reference, sha, expected = fixture_run
    # the containers' headers have the most fields to get wrong
    name = data.draw(st.sampled_from(["dataset.bin", "model.ckpt"] * 2 + ["metrics.csv", "run.cfg"]),
                     label="file")
    command = data.draw(st.sampled_from(READERS[name]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(reference / "out", root / "out")
        shutil.copy(reference / "run.cfg", root / "run.cfg")
        target = root / ("run.cfg" if name == "run.cfg" else f"out/{name}")
        raw = target.read_bytes()
        binary = name.endswith((".bin", ".ckpt"))
        target.write_bytes(mutate_container(raw, data) if binary else
                           mutate_byte(raw, data, len(raw)))

        code, stdout = run(root, command)
        assert code in (0, 2, 4)
        same = name == "dataset.bin" or reads_as(target, name) == reads_as(
            reference / target.relative_to(root), name)
        event(f"{name} {command}: exit {code}{', outputs compared' if code == 0 and same else ''}")
        if code or not same:
            return
        got_sha = file_sha256(root / "out" / "dataset.bin")
        assert outputs(root, command, stdout, got_sha, sha) == expected[command]
