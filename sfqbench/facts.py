"""Machine facts recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

# Thread-count entry points of the OpenBLAS builds numpy ships or links.
_BLAS_THREAD_FUNCS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def cpu_ticks() -> list[int] | None:
    """Aggregate /proc/stat CPU ticks: user nice system idle iowait irq
    softirq steal."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_pct(start: list[int] | None, end: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took away between two readings."""
    if not start or not end:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else None


def blas_threads() -> int | None:
    """Threads the BLAS numpy uses, asked from the library itself."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*blas*"))):
        handle = ctypes.CDLL(lib)
        for name in _BLAS_THREAD_FUNCS:
            func = getattr(handle, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return {}
    return {"name": deps.get("name"), "version": deps.get("version")}


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():  # a plain checkout; see src_sha256
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_sha(src: Path) -> str:
    """Content hash of the program's sources; identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, src: Path) -> dict:
    blas = _blas_info()
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha(src),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "processes": 1,  # the timed operations all run in this one process
    }
