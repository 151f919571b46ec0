"""On-disk artifacts: a binary tensor container, CSV reports, JSON
manifests and config text.

The container is self-describing and deterministic: magic bytes, a
length-prefixed JSON header (sorted keys) listing metadata and a tensor
manifest, then each tensor's raw little-endian row-major bytes in
manifest order.  Writing the same payload twice yields byte-identical
files; no timestamps are ever stored.  CSV floats are written with
repr() so values round-trip exactly.

Every output goes through one writer, ``_replacing``: the bytes go to a
``.<name>.partial`` file beside the output, which then replaces the
output whole, so a stopped command leaves each output with its old
bytes or its new ones.  Text is UTF-8 with no newline translation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ArtifactMismatchError
from .market_data import (FEATURE_DIM, SPLIT_NAMES, DatasetArtifact, SplitArrays, SplitSpec,
                          _parse_date, gather_windows)
from .model import ModelDims, PARAM_FIELDS, ParamSet, param_shapes

MAGIC = b"ADVALSTM"
FORMAT_VERSION = 1
METRICS_COLUMNS = ("name", "acc", "mcc")


@contextmanager
def _replacing(path: str | Path, mode: str = "w"):
    """Open a ``.<name>.partial`` file beside ``path`` for writing, and
    ``os.replace`` it onto ``path`` once the block ends.  On any exception,
    KeyboardInterrupt included, delete it and re-raise: ``path`` keeps its
    old bytes.  The new file's mode follows the umask, as ``open`` makes it."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    text = "b" not in mode
    try:
        with open(partial, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------- container


def write_container(path: str | Path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write metadata plus named tensors; same payload -> same bytes."""
    manifest = []
    blobs = []
    for name in sorted(tensors):
        # asarray, not ascontiguousarray: the latter turns 0-d into (1,).
        a = np.asarray(tensors[name])
        dtype = a.dtype.newbyteorder("<")
        manifest.append(
            {"dtype": dtype.str, "name": name, "shape": list(a.shape)}
        )
        blobs.append(a.astype(dtype, copy=False).tobytes(order="C"))
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "meta": meta, "tensors": manifest},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; raises ArtifactMismatchError on corruption."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise ArtifactMismatchError(f"{path}: not a recognized artifact container")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    if start + header_len > len(raw):
        raise ArtifactMismatchError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
        version = header.get("format_version")
    except (UnicodeDecodeError, json.JSONDecodeError, AttributeError) as exc:
        raise ArtifactMismatchError(f"{path}: unreadable header: {exc}") from exc
    if version != FORMAT_VERSION:
        raise ArtifactMismatchError(f"{path}: unsupported format version {version!r}")
    tensors: dict[str, np.ndarray] = {}
    offset = start + header_len
    try:
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError("meta is not an object")
        for entry in header["tensors"]:
            name, spec, shape = entry["name"], entry["dtype"], entry["shape"]
            # Only a dtype that write_container writes: its canonical name,
            # little-endian or byte-order-free, of fixed non-zero size.
            dtype = np.dtype(spec) if type(spec) is str else None
            if (dtype is None or dtype.str != spec or spec[0] == ">" or dtype.itemsize == 0
                    or dtype.hasobject):
                raise ArtifactMismatchError(
                    f"{path}: tensor {name!r} has dtype {spec!r}, which no container holds"
                )
            if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
                raise ArtifactMismatchError(
                    f"{path}: tensor {name!r} has shape {shape!r}, not a list of integers >= 0"
                )
            count = math.prod(shape)  # a Python int: no overflow
            nbytes = dtype.itemsize * count
            if offset + nbytes > len(raw):
                raise ArtifactMismatchError(f"{path}: truncated tensor {name!r}")
            tensors[name] = np.frombuffer(
                raw, dtype=dtype, count=count, offset=offset
            ).reshape(shape).copy()
            offset += nbytes
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactMismatchError(f"{path}: malformed header: {exc!r}") from exc
    if offset != len(raw):
        raise ArtifactMismatchError(f"{path}: {len(raw) - offset} trailing bytes")
    return meta, tensors


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --------------------------------------------------------------- checkpoint


def save_checkpoint(
    path: str | Path,
    params: ParamSet,
    *,
    lag: int,
    seed: int,
    mode: str,
    best_epoch: int,
    adv_scale: float = 0.0,
    dataset_sha256: str | None = None,
) -> None:
    meta = {
        "kind": "checkpoint",
        **asdict(params.dims),
        "lag": lag,
        "seed": seed,
        "mode": mode,
        "best_epoch": best_epoch,
        "adv_scale": adv_scale,
        "dataset_sha256": dataset_sha256,
    }
    write_container(path, meta, dict(params.items()))


def load_checkpoint(path: str | Path) -> tuple[ParamSet, ModelDims, dict]:
    meta, tensors = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise ArtifactMismatchError(f"{path}: not a checkpoint (kind={meta.get('kind')!r})")
    missing = [name for name in PARAM_FIELDS if name not in tensors]
    if missing:
        raise ArtifactMismatchError(f"{path}: checkpoint missing tensors {missing}")
    sizes = {f.name: meta.get(f.name) for f in fields(ModelDims)}
    bad = [name for name, value in sizes.items() if type(value) is not int]
    if bad:
        raise ArtifactMismatchError(f"{path}: checkpoint header lacks integer sizes {bad}")
    lag, adv_scale, sha = meta.get("lag"), meta.get("adv_scale"), meta.get("dataset_sha256")
    if type(lag) is not int or lag < 1:
        raise ArtifactMismatchError(f"{path}: checkpoint lag must be an integer >= 1, got {lag!r}")
    if type(adv_scale) not in (int, float) or not 0 <= adv_scale <= sys.float_info.max:
        raise ArtifactMismatchError(
            f"{path}: checkpoint adv_scale must be a finite number >= 0, got {adv_scale!r}"
        )
    if sha is not None and type(sha) is not str:
        raise ArtifactMismatchError(f"{path}: checkpoint dataset_sha256 must be a string or null")
    dims = ModelDims(**sizes)
    for name, shape in param_shapes(dims).items():
        if tensors[name].shape != shape:
            raise ArtifactMismatchError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, "
                f"the recorded sizes give {shape}"
            )
        if tensors[name].dtype.kind not in "biuf" or not np.isfinite(tensors[name]).all():
            raise ArtifactMismatchError(f"{path}: tensor {name} must hold finite real numbers")
    params = ParamSet(dims, np.concatenate([tensors[name].ravel() for name in PARAM_FIELDS]))
    return params, dims, meta


# ------------------------------------------------------------------ dataset


def save_dataset(path: str | Path, dataset: DatasetArtifact, spec: SplitSpec,
                 dropped: Sequence[str] = ()) -> None:
    """Write ``dataset``; the header also records the split dates and
    thresholds of ``spec`` and the stocks that alignment ``dropped``."""
    meta = {
        "kind": "dataset",
        "lag": dataset.lag,
        "train_end": spec.train_end.isoformat(),
        "val_end": spec.val_end.isoformat(),
        "test_end": spec.test_end.isoformat(),
        "pos_threshold": spec.pos_threshold,
        "neg_threshold": spec.neg_threshold,
        "stocks": list(dataset.stocks),
        "dropped": list(dropped),
        "calendar": [d.isoformat() for d in dataset.calendar],
    }
    tensors = {f"{split}_{f.name}": getattr(getattr(dataset, split), f.name)
               for split in SPLIT_NAMES for f in fields(SplitArrays)}
    tensors.update(adj_close=np.asarray(dataset.adj_close, dtype=np.float64),
                   features=dataset.features)
    write_container(path, meta, tensors)


def _check_split(path, split: str, data: SplitArrays, lag: int, n_stocks: int, finite):
    n = len(data)
    if any(getattr(data, f.name).shape != (n,) for f in fields(SplitArrays)):
        raise ArtifactMismatchError(f"{path}: inconsistent {split} split sizes")
    for f in fields(SplitArrays):  # the dtype kind save_dataset writes
        if not np.issubdtype(getattr(data, f.name).dtype, np.signedinteger):
            raise ArtifactMismatchError(f"{path}: {split} {f.name} must have a signedinteger dtype")
    if not np.all((data.labels == 1) | (data.labels == -1)):
        raise ArtifactMismatchError(f"{path}: {split} labels must be +1 or -1")
    # The window of an anchor below lag - 1 would wrap round to the panel's end.
    for name, low, high in (("stock_idx", 0, n_stocks), ("anchor_idx", lag - 1, finite.shape[1])):
        idx = getattr(data, name)
        if n and (idx.min() < low or idx.max() >= high):
            raise ArtifactMismatchError(f"{path}: {split} {name} out of range [{low}, {high})")
    if not gather_windows(finite, data.stock_idx, data.anchor_idx, lag).all():
        raise ArtifactMismatchError(f"{path}: {split} windows must be finite")


def load_dataset(path: str | Path) -> DatasetArtifact:
    meta, tensors = read_container(path)
    if meta.get("kind") != "dataset":
        raise ArtifactMismatchError(f"{path}: not a dataset (kind={meta.get('kind')!r})")
    try:
        stocks, lag = meta["stocks"], meta["lag"]
        calendar = [_parse_date(s) for s in meta["calendar"]]
        adj_close, features = tensors["adj_close"], tensors["features"]
        splits = {
            split: SplitArrays(**{f.name: tensors[f"{split}_{f.name}"] for f in fields(SplitArrays)})
            for split in SPLIT_NAMES
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactMismatchError(f"{path}: incomplete dataset: {exc!r}; "
                                    "rerun `advalstm build` to rewrite it") from exc
    if type(lag) is not int or not 1 <= lag <= len(calendar):
        raise ArtifactMismatchError(f"{path}: dataset lag must be an integer >= 1 "
                                    f"and no longer than the calendar, got {lag!r}")
    if (type(stocks) is not list or not all(type(s) is str for s in stocks)
            or len(set(stocks)) != len(stocks)):
        raise ArtifactMismatchError(f"{path}: dataset stocks must be distinct strings")
    if any(a >= b for a, b in zip(calendar, calendar[1:])):
        raise ArtifactMismatchError(f"{path}: dataset calendar must be strictly increasing")
    if adj_close.shape != (len(stocks), len(calendar)):
        raise ArtifactMismatchError(f"{path}: adj_close does not match stocks x calendar")
    if adj_close.dtype.kind != "f" or not np.all((adj_close > 0) & (adj_close <= sys.float_info.max)):
        raise ArtifactMismatchError(f"{path}: adj_close must be finite and > 0, in a floating dtype")
    if (features.dtype.kind != "f" or features.ndim != 3 or features.shape[1] > len(calendar)
            or features.shape[::2] != (len(stocks), FEATURE_DIM)):
        raise ArtifactMismatchError(f"{path}: features must be floating, stocks x at most "
                                    f"the calendar's days x {FEATURE_DIM}")
    finite = np.isfinite(features).all(axis=2)
    for split in SPLIT_NAMES:
        _check_split(path, split, splits[split], lag, len(stocks), finite)
    return DatasetArtifact(stocks, calendar, adj_close, features, lag, **splits)


# ----------------------------------------------------- CSV, JSON and text


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row, each ending in ``\\r\\n``;
    floats are written with repr() and None as an empty cell."""
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, obj) -> None:
    with _replacing(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def _finite_or_empty(cell: str | None) -> bool:
    if cell == "":
        return True
    try:
        return math.isfinite(float(cell))
    except (TypeError, ValueError):
        return False


def read_metrics_csv(path: str | Path) -> list[dict[str, str]]:
    """Rows of a metrics table; every acc and mcc cell is a finite number
    or empty (the ri_pct row leaves a cell empty when it is undefined)."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(METRICS_COLUMNS):
                raise ArtifactMismatchError(f"{path}: expected metrics header "
                                            f"{','.join(METRICS_COLUMNS)}, got {reader.fieldnames}")
            for row in reader:
                for column in METRICS_COLUMNS[1:]:
                    if not _finite_or_empty(row[column]):
                        raise ArtifactMismatchError(
                            f"{path}:{reader.line_num}: {column} must be a finite number "
                            f"or empty, got {row[column]!r}"
                        )
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ArtifactMismatchError(f"{path}: not UTF-8 text: {exc}") from exc
    return rows
