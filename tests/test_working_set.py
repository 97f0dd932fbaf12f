"""Working sets bounded in bytes: dense_matrix's row slabs and the core's column blocks.

tracemalloc sees every numpy allocation, so a peak is the same on every run
of the same code; each bound below is a stated multiple of the budget that
sizes the temporaries, well under what one slab or block of all the rows or
columns would take.
"""

import tracemalloc

import numpy as np
import pytest

import fermifield.operators as operators
import fermifield.spectral as spectral
from fermifield.builders import bump_potential, random_divfree_potential
from fermifield.grid import GridSpec, ScalarField, VectorField
from fermifield.operators import HamiltonianSpec, dense_matrix


def _traced_peak(fn, *args):
    """(fn(*args), the most bytes traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_matrix_peaks_at_the_matrix_plus_a_few_slabs():
    # Pauli d=3 N=8 with A: a 16 MB matrix, rows in 32-row slabs of 256 KB.
    # The temporaries of a slab are the d + 1 gathered circulant rows and two
    # products, so ten slabs bound them; 512-row slabs peaked 19.6 MB above H.
    g = GridSpec(d=3, N=8, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.6, flavor="pauli",
                           V=bump_potential(g, amplitude=6.0, radius=0.7),
                           A=random_divfree_potential(g, seed=3, kmax=1, amplitude=0.3))
    H, peak = _traced_peak(dense_matrix, spec)
    assert H.nbytes == 16 * spec.dim**2
    assert peak <= H.nbytes + 10 * operators.FFT_SLAB_BYTES


@pytest.fixture
def plane_waves():
    """Exact eigenpairs of a constant A and V: (D+A)^2 e^{ik.x} = |hk + A|^2 e^{ik.x}.

    Schrodinger d=3 N=16 (dim 4096), 128 plane waves as quadrature-normalized
    columns (8 MB), with their eigenvalues |hk + A|^2 - V.
    """
    g = GridSpec(d=3, N=16, L=2.0)
    a = np.array([0.3, -0.2, 0.1])
    spec = HamiltonianSpec(grid=g, h=0.6,
                           A=VectorField(g, np.ones((3,) + g.shape) * a[:, None, None, None]),
                           V=ScalarField(g, np.full(g.shape, 2.0)))
    at = np.arange(0, g.size, g.size // 128)
    k = np.stack([kj.ravel() for kj in np.broadcast_arrays(*g.k)])[:, at]
    x = np.stack([xj.ravel() for xj in np.broadcast_arrays(*g.coords)])
    vecs = np.exp(1j * (x.T @ k)) / np.sqrt(g.size * g.weight)
    vals = np.sum((spec.h * k + a[:, None]) ** 2, axis=0) - 2.0
    return spec, vals, vecs


def test_residual_check_peaks_at_a_few_column_blocks(plane_waves, monkeypatch):
    # 8 columns (512 KB) per core call: the core's temporaries at A set, the
    # block, its residual and |R|^2 peak at about 11 blocks, so one call on
    # all 128 columns would take about 11 times their 8 MB.
    spec, vals, vecs = plane_waves
    monkeypatch.setattr(operators, "COLUMN_BLOCK_BYTES", 1 << 19)
    worst, peak = _traced_peak(spectral._residual_check, spec, vals, vecs)
    assert worst < 1e-10 * spectral._operator_scale(spec)
    assert peak <= 16 * operators.COLUMN_BLOCK_BYTES
