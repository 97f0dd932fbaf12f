"""Fast tests of the benchmark's reference computations against closed forms.

    python -m pytest benchmarks/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref

L = 2.0


def _lattice_negative_sum(N, d, h, v0):
    """Exact negative sum for constant V = v0: eigenvalues h^2 |k|^2 - v0."""
    k2 = sum(kj**2 for kj in ref.wavenumbers(N, L, d))
    lam = h**2 * np.broadcast_to(k2, (N,) * d) - v0
    return float(np.minimum(lam, 0.0).sum())


def _band_limited(shape, mmax, rng):
    """Random complex samples whose Fourier modes all have |m_i| <= mmax."""
    N = shape[-1]
    m = np.abs(np.fft.fftfreq(N, 1.0 / N))
    mask = (m[:, None, None] <= mmax) & (m[None, :, None] <= mmax) & (m[None, None, :] <= mmax)
    out = np.empty(shape, dtype=np.complex128)
    for idx in np.ndindex(shape[:-3]):
        noise = rng.standard_normal(shape[-3:]) + 1j * rng.standard_normal(shape[-3:])
        out[idx] = np.fft.ifftn(mask * noise)
    return out


def test_weyl_closed_form_unit_volume():
    V = np.ones((4, 4, 4))
    assert ref.weyl_term(V, 1.0, 1.0, spin=2) == pytest.approx(-2.0 / (15.0 * math.pi**2),
                                                                rel=1e-14)


def test_dense_negative_sum_matches_lattice_enumeration():
    v0, h = 12.0, 1.0
    V = np.full((8, 8, 8), v0)
    want = _lattice_negative_sum(8, 3, h, v0)
    # m = 0 and the six |m| = 1 modes are negative: -12 + 6 (pi^2 - 12)
    assert want == pytest.approx(-12.0 + 6.0 * (math.pi**2 - 12.0), rel=1e-14)
    assert ref.negative_sum_dense(V, L, h) == pytest.approx(want, rel=1e-12)


def test_iterative_negative_sum_matches_lattice_enumeration():
    v0, h = 12.0, 1.0
    V = np.full((8, 8, 8), v0)
    want = _lattice_negative_sum(8, 3, h, v0)
    assert ref.negative_sum_iterative(V, L, h, k=10) == pytest.approx(want, rel=1e-10)


def test_iterative_refuses_an_unbracketed_band():
    V = np.full((8, 8, 8), 12.0)
    with pytest.raises(ValueError, match="not bracketed"):
        ref.negative_sum_iterative(V, L, 1.0, k=4)


def test_dense_matrix_matches_matrix_free_apply():
    rng = np.random.default_rng(1)
    V = ref.bump_potential(4, L, 3, 3.0, 0.7)
    H = ref.dense_schrodinger(V, L, 0.5)
    u = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    assert np.allclose(H, H.conj().T, atol=1e-12)
    assert np.allclose(H @ u.ravel(), ref.schrodinger_apply(u, V, L, 0.5).ravel(), atol=1e-11)


def test_constant_vector_potential_shifts_plane_waves():
    N, h, c = 8, 0.7, np.array([0.3, -0.2, 0.5])
    x = ref.coords(N, L, 3)
    m = np.array([1, -2, 3])
    k = 2.0 * math.pi * m / L
    u = np.exp(1j * sum(k[j] * x[j] for j in range(3)))
    A = np.broadcast_to(c[:, None, None, None], (3, N, N, N))
    out = ref.schrodinger_apply(u, np.zeros((N, N, N)), L, h, A)
    assert np.allclose(out, np.sum((h * k + c) ** 2) * u, atol=1e-10)


def test_bump_potential_profile():
    V = ref.bump_potential(16, L, 3, 6.0, 0.7)
    assert V[8, 8, 8] == pytest.approx(6.0, rel=1e-15)  # the box centre
    assert V[0, 0, 0] == 0.0 and V.min() >= 0.0


def test_curl_of_a_shear_and_of_a_gradient():
    N = 16
    x = ref.coords(N, L, 3)
    q = 2.0 * math.pi / L
    A = np.zeros((3, N, N, N))
    A[1] = np.sin(q * x[0])
    B = ref.curl(A, L)
    assert np.allclose(B[2], q * np.cos(q * x[0]), atol=1e-12)
    assert np.allclose(B[:2], 0.0, atol=1e-12)
    phi = np.sin(q * x[0]) * np.cos(2 * q * x[1]) * np.sin(q * x[2])
    ph = np.fft.fftn(phi)
    k = ref.wavenumbers(N, L, 3, nyquist=False)
    grad = np.stack([np.real(np.fft.ifftn(1j * k[j] * ph)) for j in range(3)])
    assert np.allclose(ref.curl(grad, L), 0.0, atol=1e-12)


def test_pauli_factored_equals_expanded_on_band_limited_input():
    """[sigma.(D+A)]^2 = (D+A)^2 + h sigma.B exactly when no product aliases."""
    rng = np.random.default_rng(2)
    N, h = 16, 0.6
    A = np.real(_band_limited((3, N, N, N), 2, rng))
    u = _band_limited((2, N, N, N), 3, rng)
    V = ref.bump_potential(N, L, 3, 6.0, 0.7)
    fact = ref.pauli_apply(u, V, L, h, A)
    expanded = ref.pauli_expanded_apply(u, V, L, h, A)
    assert np.abs(fact - expanded).max() <= 1e-12 * np.abs(fact).max()


def test_pauli_at_zero_field_is_two_schrodinger_copies():
    rng = np.random.default_rng(3)
    N, h = 8, 0.6
    V = ref.bump_potential(N, L, 3, 6.0, 0.7)
    u = rng.standard_normal((2, N, N, N)) + 1j * rng.standard_normal((2, N, N, N))
    got = ref.pauli_apply(u, V, L, h, np.zeros((3, N, N, N)))
    want = np.stack([ref.schrodinger_apply(u[s], V, L, h) for s in range(2)])
    assert np.allclose(got, want, atol=1e-10)
