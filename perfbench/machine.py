"""Machine and build record written with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with ``package``, if it is one."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, the build identity when git is absent."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host ran just now.

    A shared host changes speed by tens of percent over minutes. The probe,
    taken at the start and at the end of a run, lets a reader tell host
    noise from a change in the program.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i
    return time.perf_counter() - t0


def describe(root: Path, package_dir: Path, workload: str, seed: int, cleared: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_numpy": _openblas_threads(np),
        "blas_threads_scipy": _openblas_threads(scipy),
        "thread_env_cleared": cleared,
        "QDF_THREADS": os.environ.get("QDF_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(package_dir),
    }
