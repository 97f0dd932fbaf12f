"""Reference computations for the benchmark's output checks.

Everything here uses NumPy and SciPy only and never imports fermifield, so a
fault in the program cannot cancel against the same fault in its check.
Conventions: periodic box [0, L)^d with N samples per axis, kinetic
momenta h*k on the full dual lattice k = 2*pi*m/L, and first derivatives of
real fields (the curl) with the Nyquist wave number set to zero.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse.linalg as spla


def wavenumbers(N: int, L: float, d: int, nyquist: bool = True) -> list:
    """Broadcastable wave numbers per axis; nyquist=False zeroes k[N/2]."""
    k1 = 2.0 * math.pi * np.fft.fftfreq(N, d=L / N)
    if not nyquist:
        k1[N // 2] = 0.0
    return [k1.reshape((1,) * j + (N,) + (1,) * (d - 1 - j)) for j in range(d)]


def coords(N: int, L: float, d: int) -> list:
    x = np.arange(N) * (L / N)
    return [x.reshape((1,) * j + (N,) + (1,) * (d - 1 - j)) for j in range(d)]


def bump_potential(N: int, L: float, d: int, amplitude: float, radius: float) -> np.ndarray:
    """amplitude * exp(1 - 1/(1 - (r/radius)^2)) around the box centre."""
    s2 = sum((x - L / 2) ** 2 for x in coords(N, L, d)) / radius**2
    out = np.zeros_like(s2)
    inside = s2 < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def curl(A: np.ndarray, L: float) -> np.ndarray:
    """Spectral curl of a real 3-vector field sampled on an N^3 grid."""
    N = A.shape[-1]
    k = wavenumbers(N, L, 3, nyquist=False)
    ah = np.fft.fftn(A, axes=(1, 2, 3))
    out = np.stack([
        1j * (k[1] * ah[2] - k[2] * ah[1]),
        1j * (k[2] * ah[0] - k[0] * ah[2]),
        1j * (k[0] * ah[1] - k[1] * ah[0]),
    ])
    return np.real(np.fft.ifftn(out, axes=(1, 2, 3)))


def weyl_term(V: np.ndarray, L: float, h: float, spin: int) -> float:
    """-spin (2 pi h)^-3 (8 pi / 15) int V_+^(5/2): the 3-D Weyl term."""
    if V.ndim != 3:
        raise ValueError("closed form is the 3-D one")
    w = (L / V.shape[0]) ** 3
    vplus = np.maximum(V, 0.0)
    return -spin * (2.0 * math.pi * h) ** -3 * (8.0 * math.pi / 15.0) * float(
        np.sum(vplus**2.5) * w
    )


def schrodinger_apply(u: np.ndarray, V: np.ndarray, L: float, h: float,
                      A: np.ndarray | None = None) -> np.ndarray:
    """(D+A)^2 u - V u with D = -i h grad, on a scalar sample array u."""
    d = u.ndim
    axes = tuple(range(d))
    k = wavenumbers(u.shape[0], L, d)
    if A is None:
        k2 = sum(kj**2 for kj in k)
        return np.fft.ifftn(h**2 * k2 * np.fft.fftn(u, axes=axes), axes=axes) - V * u
    uh = np.fft.fftn(u, axes=axes)
    out = -V * u
    for j in range(d):
        p = np.fft.ifftn(h * k[j] * uh, axes=axes) + A[j] * u
        out = out + np.fft.ifftn(h * k[j] * np.fft.fftn(p, axes=axes), axes=axes) + A[j] * p
    return out


def _sigma_momentum(w: np.ndarray, L: float, h: float, A: np.ndarray) -> np.ndarray:
    """sigma.(D+A) applied to a 2-spinor w of shape (2, N, N, N)."""
    k = wavenumbers(w.shape[-1], L, 3)
    axes = (1, 2, 3)
    wh = np.fft.fftn(w, axes=axes)
    p = [np.fft.ifftn(h * k[j] * wh, axes=axes) + A[j] * w for j in range(3)]
    return np.stack([
        p[2][0] + p[0][1] - 1j * p[1][1],
        p[0][0] + 1j * p[1][0] - p[2][1],
    ])


def pauli_apply(u: np.ndarray, V: np.ndarray, L: float, h: float, A: np.ndarray) -> np.ndarray:
    """[sigma.(D+A)]^2 u - V u, the Pauli operator as a factored square."""
    return _sigma_momentum(_sigma_momentum(u, L, h, A), L, h, A) - V * u


def pauli_expanded_apply(u: np.ndarray, V: np.ndarray, L: float, h: float,
                         A: np.ndarray) -> np.ndarray:
    """(D+A)^2 u + h sigma.B u - V u on a 2-spinor u of shape (2, N, N, N)."""
    B = curl(A, L)
    up, dn = u[0], u[1]
    sb = np.stack([
        B[2] * up + (B[0] - 1j * B[1]) * dn,
        (B[0] + 1j * B[1]) * up - B[2] * dn,
    ])
    kin = np.stack([schrodinger_apply(u[s], np.zeros_like(V), L, h, A) for s in range(2)])
    return kin + h * sb - V * u


def dense_schrodinger(V: np.ndarray, L: float, h: float) -> np.ndarray:
    """Dense matrix of h^2 |k|^2 - V (A = 0) from the DFT matrix, d = 3."""
    N = V.shape[0]
    F1 = np.fft.fft(np.eye(N), axis=0)
    F = np.kron(np.kron(F1, F1), F1)  # C-order flattening of (x, y, z)
    k = wavenumbers(N, L, 3)
    k2 = (k[0] ** 2 + k[1] ** 2 + k[2] ** 2).ravel()
    T = (F.conj().T * (h**2 * k2)) @ F / N**3
    return T - np.diag(V.ravel())


def negative_sum_dense(V: np.ndarray, L: float, h: float) -> float:
    """Sum of the negative eigenvalues of the dense A = 0 Schrodinger matrix."""
    vals = np.linalg.eigvalsh(dense_schrodinger(V, L, h))
    return float(np.minimum(vals, 0.0).sum())


def negative_sum_iterative(V: np.ndarray, L: float, h: float, k: int = 8) -> float:
    """Sum of the negative eigenvalues of h^2 |k|^2 - V (A = 0) by ARPACK.

    The k lowest eigenvalues are computed; the largest of them must be
    positive, or the negative band was not bracketed and this raises.
    """
    shape = V.shape
    dim = V.size

    def mv(x):
        return schrodinger_apply(x.reshape(shape), V, L, h).ravel()

    op = spla.LinearOperator((dim, dim), matvec=mv, dtype=np.complex128)
    v0 = np.random.default_rng(0).standard_normal(dim).astype(np.complex128)
    vals = spla.eigsh(op, k=k, which="SA", tol=1e-12, v0=v0, return_eigenvectors=False)
    vals = np.sort(np.real(vals))
    if vals[-1] <= 0.0:
        raise ValueError(f"negative band not bracketed by {k} eigenvalues")
    return float(np.minimum(vals, 0.0).sum())

