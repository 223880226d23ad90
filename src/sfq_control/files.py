"""Atomic replacement of the files the package writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path):
    """Write ASCII text (newline="") to a sibling temp file that replaces
    path only once the block completes and the data is on disk, so path
    holds the old file or the whole new one, even after a crash."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful replace
