import os

# One BLAS/OpenMP thread, as in the benchmark: golden files and round-off
# margins depend on summation order.  The pools read these when numpy
# loads, so they are set before any import that loads it.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mpiga.fixtures import builtin_geometry


@pytest.fixture(scope="session")
def topo1():
    return builtin_geometry("square-1")


@pytest.fixture(scope="session")
def topo6():
    return builtin_geometry("square-6-bilinear")


@pytest.fixture(scope="session")
def topo2c():
    return builtin_geometry("square-2-bicubic")


@pytest.fixture(scope="session")
def topo6c():
    return builtin_geometry("square-6-bicubic")
