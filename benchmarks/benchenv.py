"""Benchmark process set-up; import this before numpy.

Importing it pins BLAS and OpenMP to one thread through the environment
(``threadpoolctl`` is not a dependency) and puts this checkout's ``src`` first
on ``sys.path``.  ``locate_library`` then refuses a ``sparsemag`` imported
from anywhere else, so the benchmark never measures an installed copy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def locate_library():
    """Import sparsemag from this checkout's ``src``, or exit with an error."""
    try:
        import sparsemag
    except ImportError as exc:
        sys.exit(f"error: cannot import sparsemag from {SRC}: {exc}")
    if SRC not in Path(sparsemag.__file__).resolve().parents:
        sys.exit(f"error: sparsemag was imported from {sparsemag.__file__}, not {SRC}")
    return sparsemag


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    for lib in glob.glob(str(site / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe(seed: int) -> dict:
    """Versions, BLAS and CPU facts recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_pinned": threads == 1,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload_seed": seed,
    }
