"""Shared fixtures for the fermifield test suite."""

import os

# One BLAS thread unless the environment sets another count.  On a 2-core
# machine OpenBLAS's default of one thread per core makes the N=32 LOBPCG
# sweep slower, not faster.  It reads these variables when NumPy loads it,
# so they are set before the first NumPy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fermifield.builders import bump_potential  # noqa: E402
from fermifield.grid import GridSpec  # noqa: E402
from fermifield.operators import HamiltonianSpec  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid1d():
    return GridSpec(d=1, N=32, L=2.0)


@pytest.fixture
def grid2d():
    return GridSpec(d=2, N=16, L=2.0)


@pytest.fixture
def grid3d():
    return GridSpec(d=3, N=8, L=2.0)


@pytest.fixture
def spec1d(grid1d):
    return HamiltonianSpec(grid=grid1d, h=0.5,
                           V=bump_potential(grid1d, amplitude=3.0, radius=0.6))


@pytest.fixture
def spec3d(grid3d):
    return HamiltonianSpec(grid=grid3d, h=0.6,
                           V=bump_potential(grid3d, amplitude=6.0, radius=0.7))
