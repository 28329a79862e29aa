"""Stamp results with the numeric environment and machine they came from."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

__all__ = ["BLAS_THREAD_VARS", "numeric_stamp", "machine_stamp", "source_digest"]

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
"""Stripped from the program's environment, so a run measures the
program's own thread defaults rather than the caller's shell."""


def _bundled_openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled ``scipy_openblas64_`` library, or None."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def numeric_stamp() -> Dict:
    """numpy/OpenBLAS versions and the effective BLAS thread count of this process."""
    import numpy

    stamp = {"numpy": numpy.__version__, "python": platform.python_version(),
             "openblas": None, "blas_threads": None}
    lib = _bundled_openblas()
    if lib is None:
        return stamp
    try:
        get_config = lib.scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        stamp["openblas"] = get_config().decode(errors="replace").strip()
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        stamp["blas_threads"] = int(get_threads())
    except AttributeError:
        pass
    return stamp


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None


def machine_stamp(root: Path) -> Dict:
    """Cores, CPU model, source identity; the numeric part comes from the program."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu": _cpu_model(), "git_commit": _git_commit(root),
            "source_digest": source_digest(root)}
