"""Source-tree import of psdo, pinned BLAS threads and the environment record."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SourceTreeMissing(RuntimeError):
    pass


def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is first imported.

    Child processes inherit the variables, so parent and child runs match."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def pin_cpu() -> int:
    """Keep this process, and the children it starts, on one CPU, so the
    speed probe and the work it scales run on the same core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_psdo():
    """Import psdo from the checkout's src/ tree, never from site-packages."""
    if not (SRC / "psdo" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no psdo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import psdo
    import psdo.cli  # noqa: F401
    if Path(psdo.__file__).resolve().parent != SRC / "psdo":
        raise SourceTreeMissing(f"psdo imported from {psdo.__file__}, not from {SRC}")
    return psdo


def _git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "build": blas.get("openblas configuration")},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
