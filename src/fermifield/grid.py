"""
Periodic-box discretization, Fourier differential calculus and field arithmetic.

All other modules build on the three sampled field types defined here.
Derivatives are exact on the discrete dual lattice k = 2*pi*m/L; the Nyquist
mode of every first derivative is set to zero (odd-derivative convention),
so the first derivatives are skew-adjoint and div(divfree_mean_zero(A)) is round-off.
Every field derivative is read off one kernel, the Jacobian d_i a stacked
first (jacobian), or its adjoint sum_i d_i M[i] (div_rows); both field
energies are quadratic forms in J_ij = d_i A_j.
Integrals use the trapezoid rule on the uniform grid, i.e. a flat quadrature
weight (L/N)^d, which is exact for band-limited integrands.
Real fields (V, A, psi) are float64 and stay real (_ifft_like); spinors are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic box [0, L)^d with N samples per axis."""

    d: int
    N: int
    L: float

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if self.N < 4 or not _is_power_of_two(self.N):
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def size(self) -> int:
        """Total number of grid points N^d."""
        return self.N**self.d

    @property
    def mesh(self) -> float:
        return self.L / self.N

    @property
    def weight(self) -> float:
        """Quadrature weight per grid point, (L/N)^d."""
        return (self.L / self.N) ** self.d

    @property
    def volume(self) -> float:
        return self.L**self.d

    @cached_property
    def axis(self) -> np.ndarray:
        return np.arange(self.N) * self.mesh

    def _per_axis(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """v laid along each axis in turn, broadcastable against the grid."""
        return tuple(
            np.reshape(v, (1,) * j + (self.N,) + (1,) * (self.d - 1 - j))
            for j in range(self.d)
        )

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        return self._per_axis(self.axis)

    @cached_property
    def k(self) -> tuple[np.ndarray, ...]:
        """Dual-lattice wave numbers 2*pi*m/L per axis (broadcastable)."""
        return self._per_axis(2.0 * np.pi * np.fft.fftfreq(self.N, d=self.mesh))

    @cached_property
    def k_deriv(self) -> tuple[np.ndarray, ...]:
        """Wave numbers used for first derivatives: Nyquist entry zeroed."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.mesh)
        k1[self.N // 2] = 0.0
        return self._per_axis(k1)

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the full dual lattice (Nyquist included)."""
        return sum(kj**2 for kj in self.k)


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Field:
    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _freeze(self.data))
        expect = self._expected_shape()
        if self.data.shape != expect:
            raise ValueError(f"field data shape {self.data.shape}, expected {expect}")

    def _expected_shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    # -- arithmetic -------------------------------------------------------
    def _check_mate(self, other: "_Field") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other):
        self._check_mate(other)
        return replace(self, data=self.data + other.data)

    def __sub__(self, other):
        self._check_mate(other)
        return replace(self, data=self.data - other.data)

    def __mul__(self, c):
        return replace(self, data=self.data * c)

    __rmul__ = __mul__

    def __neg__(self):
        return replace(self, data=-self.data)

    # -- norms ------------------------------------------------------------
    def norm(self) -> float:
        """L^2 norm."""
        return float((np.sum(np.abs(self.data) ** 2) * self.grid.weight) ** 0.5)

    def inner(self, other) -> float | complex:
        """L^2 inner product, antilinear in self; a float for two real fields."""
        self._check_mate(other)
        return np.vdot(self.data, other.data).item() * self.grid.weight


@dataclass(frozen=True)
class ScalarField(_Field):
    def _expected_shape(self):
        return self.grid.shape


@dataclass(frozen=True)
class VectorField(_Field):
    def _expected_shape(self):
        return (self.grid.d,) + self.grid.shape

    @classmethod
    def zero(cls, grid: GridSpec) -> "VectorField":
        return cls(grid, np.zeros((grid.d,) + grid.shape))


@dataclass(frozen=True)
class SpinorField(_Field):
    """Wave function with 1 (spinless) or 2 (Pauli) spin components."""

    def _expected_shape(self):
        # shape checked loosely: first axis is the spin dimension
        n = self.data.shape[0] if self.data.ndim == self.grid.d + 1 else -1
        if n in (1, 2):
            return (n,) + self.grid.shape
        return (2,) + self.grid.shape

    @property
    def spin(self) -> int:
        return self.data.shape[0]


# ---------------------------------------------------------------------------
# spectral calculus


# Most bytes of complex input per numpy transform call.  numpy transforms an
# n-d block axis by axis, and once a block outgrows the cache each pass
# slows.  On a 2-core Xeon VM a (2, 5, 16^3) spinor block took 1.8 ms whole
# and 1.0 ms as three slabs of at most four vectors, a (23, 32^3) block 32 ms
# and 20 ms one vector at a time, with bit-identical results.
# operators.dense_matrix sizes its row slabs by the same budget, a complex row
# of k entries taking 16 k bytes: Pauli d=3 N=8 with A assembles its 16.8 MB
# matrix at a 19.0 MB traced peak in 32-row slabs, 36.4 MB in 512-row ones.
FFT_SLAB_BYTES = 1 << 18


def _slabwise(transform, a: np.ndarray, d: int, norm: str) -> np.ndarray:
    """transform over the last d axes of a, a slab of whole grids per call."""
    grid = a.shape[a.ndim - d:]
    n = math.prod(a.shape[:a.ndim - d])
    per = max(1, FFT_SLAB_BYTES // (16 * math.prod(grid)))
    axes = tuple(range(-d, 0))
    if n <= per:
        return transform(a, axes=axes, norm=norm)
    flat = a.reshape((n,) + grid)
    out = np.empty(flat.shape, dtype=np.complex128)
    for lo in range(0, n, per):
        transform(flat[lo:lo + per], axes=axes, norm=norm, out=out[lo:lo + per])
    return out.reshape(a.shape)


def _fft(a: np.ndarray, d: int, norm: str = "backward") -> np.ndarray:
    return _slabwise(np.fft.fftn, a, d, norm)


def _ifft(a: np.ndarray, d: int, norm: str = "backward") -> np.ndarray:
    return _slabwise(np.fft.ifftn, a, d, norm)


def _ifft_like(bh: np.ndarray, a: np.ndarray, d: int) -> np.ndarray:
    """ifft(bh), bh = s fft(a), real for real a: every s here has s(-k) = conj(s(k))."""
    out = _ifft(bh, d)
    return out.real if np.isrealobj(a) else out


def jacobian(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """d_i a for every axis i, stacked first: shape (d, *a.shape).

    a is a raw array whose last d axes are the grid; one forward transform
    of a, one inverse transform of the stacked block.
    """
    ah = _fft(a, grid.d)
    return _ifft_like(np.stack([1j * kj * ah for kj in grid.k_deriv]), a, grid.d)


def div_rows(M: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_i d_i M[i], M a raw array with the axis i first and the grid last."""
    Mh = _fft(M, grid.d)
    return _ifft_like(sum(1j * kj * Mh[i] for i, kj in enumerate(grid.k_deriv)), M, grid.d)


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, jacobian(f.data, f.grid))


def divergence(A: VectorField) -> ScalarField:
    return ScalarField(A.grid, div_rows(A.data, A.grid))


# ---------------------------------------------------------------------------
# field energies: quadratic forms in the Jacobian J_ij = d_i A_j


def field_energy_curl(A: VectorField) -> float:
    """Integral of |curl A|^2 = 1/2 sum_ij |J_ij - J_ji|^2 over the torus.

    The same integral in every dimension: in d = 2 the curl is the scalar
    d_x A_y - d_y A_x, and in d = 1 it vanishes.
    """
    J = jacobian(A.data, A.grid)
    dens = 0.5 * np.sum(np.abs(J - np.swapaxes(J, 0, 1)) ** 2, axis=(0, 1))
    return float(dens.sum() * A.grid.weight)


def field_energy_grad(A: VectorField, region: np.ndarray | None = None) -> float:
    """Integral of |grad (x) A|^2 = sum_ij |J_ij|^2 over the region (the torus if None)."""
    dens = np.sum(np.abs(jacobian(A.data, A.grid)) ** 2, axis=(0, 1))
    if region is not None:
        dens = dens * region
    return float(dens.sum() * A.grid.weight)


def _divfree_mean_zero_hat(ah: np.ndarray, grid: GridSpec) -> np.ndarray:
    """ah, a vector field's coefficients, overwritten without its k = 0 mode and,
    in d >= 2, without its gradient part k (k.ah)/|k|^2, k = k_deriv (Leray)."""
    if grid.d >= 2:
        k = grid.k_deriv
        k2 = sum(kj**2 for kj in k)
        k2[k2 == 0.0] = 1.0  # zero/Nyquist modes: k.a = 0 there anyway
        kdot = sum(kj * ah[j] for j, kj in enumerate(k))
        for j, kj in enumerate(k):
            ah[j] -= kj * kdot / k2
    ah[(slice(None),) + (0,) * grid.d] = 0.0
    return ah


def divfree_mean_zero(A: VectorField) -> VectorField:
    """A Leray-projected (in d >= 2; in d = 1 only its mean is divergence-free), then mean-zero."""
    g = A.grid
    return VectorField(g, _ifft_like(_divfree_mean_zero_hat(_fft(A.data, g.d), g), A.data, g.d))


def periodic_dist2(grid: GridSpec, center) -> np.ndarray:
    """Squared periodic distance from every grid point to center."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    r2 = np.zeros(grid.shape)
    for j in range(grid.d):
        dx = grid.coords[j] - center[j]
        dx = (dx + grid.L / 2) % grid.L - grid.L / 2
        r2 = r2 + dx**2
    return r2


def ball_mask(grid: GridSpec, center, radius: float) -> np.ndarray:
    """Sampled indicator of the periodic ball B_center(radius), no antialiasing."""
    return periodic_dist2(grid, center) <= radius**2
