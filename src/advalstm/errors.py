"""Exception hierarchy shared across the package, and the check that a
configured path's name fits the filesystem encoding.

The CLI maps these onto exit codes: input/contract problems exit 2,
training divergence exits 3, checkpoint/dataset mismatches exit 4.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


class AdvAlstmError(Exception):
    """Base class for all package errors."""


class ParseError(AdvAlstmError):
    """A file could not be parsed (message carries file and line context)."""


class DataError(AdvAlstmError):
    """Input rows violate the data contract (bad prices, duplicates, ...)."""


class AlignmentError(DataError):
    """Trading-day alignment produced an empty calendar."""


class WindowError(AdvAlstmError):
    """Not enough history at the requested day index."""


class ShapeError(AdvAlstmError):
    """Tensor shapes do not match the declared parameter layout."""


class NumericError(AdvAlstmError):
    """A computation produced NaN or Inf."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""


class ContractError(AdvAlstmError):
    """A documented precondition was violated by the caller."""


class ConfigError(AdvAlstmError):
    """A run config is missing keys or violates an invariant."""


class ArtifactMismatchError(AdvAlstmError):
    """Checkpoint and dataset disagree on dimensions or lag."""


class EmptySplitWarning(UserWarning):
    """A train/val/test split ended up with no retained examples."""


class MarketSemanticsWarning(UserWarning):
    """Rows where low/high do not bound open/close (kept, but suspicious)."""


def encodable_path(path: str | os.PathLike, what: str) -> Path:
    """``path`` as a Path, once its name is known to fit the filesystem
    encoding.  A name that does not fit (a non-ASCII one under an ASCII
    locale) never reaches the OS: ``Path.exists`` and ``Path.is_file``
    report it absent, and ``Path.mkdir`` and ``open`` raise
    UnicodeEncodeError, which names neither the path nor the encoding."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ContractError(f"{what} {path} cannot be encoded in the filesystem "
                            f"encoding {sys.getfilesystemencoding()!r}") from None
    return Path(path)
