"""Thread pinning and environment capture for the benchmark.

``pin_blas_threads`` must run before numpy is first imported: the BLAS
libraries read their thread count once, when they load.
"""

import os
import platform
import sys

BLAS_THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads():
    """Pin every BLAS/OpenMP pool to ``BLAS_THREADS`` (at most nproc) threads."""
    count = min(BLAS_THREADS, nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(count)
    return count


def import_mpiga():
    """Import the package from this checkout's ``src`` and nowhere else.

    Raises ImportError when the checkout holds no package source, so that
    a copy of the benchmark without the program cannot measure an
    installed one.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mpiga

    expected = os.path.join(SRC, "mpiga")
    if os.path.dirname(os.path.abspath(mpiga.__file__)) != expected:
        raise ImportError(f"mpiga imported from {mpiga.__file__}, expected {expected}")
    return mpiga


def capture(blas_threads):
    """Machine and library facts that a measurement must be read with."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "machine": platform.machine(),
    }
