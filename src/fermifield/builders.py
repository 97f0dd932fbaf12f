"""
Named builders for potentials, vector potentials and cutoffs.

The catalog backs the CLI config parser; everything here is also used
directly by the test corpus.  Every potential and cutoff is centered in the
box.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _divfree_mean_zero_hat,
    ball_mask,
    divfree_mean_zero,
    periodic_dist2,
)
from .profiles import bump, plateau_bump


def _center(grid: GridSpec) -> tuple:
    return (grid.L / 2,) * grid.d


def _center_distance(grid: GridSpec) -> np.ndarray:
    """Periodic distance from every grid point to the center of the box."""
    return np.sqrt(periodic_dist2(grid, _center(grid)))


def bump_potential(grid: GridSpec, amplitude: float = 1.0,
                   radius: float | None = None) -> ScalarField:
    """Smooth compactly supported bump, amplitude at the center."""
    if radius is None:
        radius = grid.L / 4
    return ScalarField(grid, amplitude * bump(_center_distance(grid) / radius))


def constant_on_ball(grid: GridSpec, amplitude: float = 1.0,
                     radius: float | None = None) -> ScalarField:
    if radius is None:
        radius = grid.L / 4
    mask = ball_mask(grid, _center(grid), radius)
    return ScalarField(grid, amplitude * mask.astype(float))


def soft_coulomb(grid: GridSpec, charge: float = 1.0, eps: float = 0.1) -> ScalarField:
    """Regularized attraction Z/sqrt(r^2 + eps^2) (as a positive well depth)."""
    if eps <= 0:
        raise ValueError("softcoulomb regularization eps must be positive")
    r = _center_distance(grid)
    return ScalarField(grid, charge / np.sqrt(r**2 + eps**2))


def constant_potential(grid: GridSpec, value: float = 1.0) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, value, dtype=float))


def zero_potential_field(grid: GridSpec) -> VectorField:
    return VectorField.zero(grid)


def random_divfree_potential(grid: GridSpec, seed: int = 0, kmax: int = 2,
                             amplitude: float = 1.0) -> VectorField:
    """Random real band-limited vector potential, divergence-free, mean zero."""
    rng = np.random.default_rng(seed)
    data = np.zeros((grid.d,) + grid.shape)
    for j in range(grid.d):
        comp = np.zeros(grid.shape)
        for _ in range(4 * grid.d):
            kvec = rng.integers(-kmax, kmax + 1, size=grid.d)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.standard_normal()
            arg = sum(2 * np.pi * kvec[i] * grid.coords[i] / grid.L for i in range(grid.d))
            comp = comp + amp * np.cos(arg + phase)
        data[j] = comp
    return divfree_mean_zero(VectorField(grid, amplitude * data))


def rough_divfree_potential(grid: GridSpec, seed: int = 0) -> np.ndarray:
    """Random vector potential with power-law spectrum up to the grid Nyquist, as coefficients.

    |A_hat(k)| ~ |k|^-2.5 with random phases: the exponent that makes
    scale-local quantities like |A - A_r|^2 / r^2 independent of r over the
    resolved octaves, which is what the mollification stability studies
    need.  Divergence-free (d >= 2), mean zero and of unit L^2 norm.  The
    draw is made in Fourier space and handed over there, with no transform:
    fftn(A) per component, a (d, *grid) complex array whose inverse
    transform is the real field A (up to round-off).
    """
    rng = np.random.default_rng(seed)
    envelope = np.where(grid.k2 > 0, np.sqrt(grid.k2), np.inf) ** -2.5  # 0 at k = 0
    ah = np.empty((grid.d,) + grid.shape, dtype=np.complex128)
    for j in range(grid.d):
        ah[j].real, ah[j].imag = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    ah *= envelope
    ah = _divfree_mean_zero_hat(ah, grid)
    # A is the real part of ifft(ah), whose transform is the Hermitian part
    # (ah(k) + conj ah(-k)) / 2; the real, even projection commutes with it
    neg = np.ix_(*[-np.arange(grid.N)] * grid.d)  # the index of -k, wrapped
    for j in range(grid.d):
        ah[j] += np.conj(ah[j][neg])  # twice the Hermitian part: the norm takes the 2
    ah /= max(np.sqrt(np.vdot(ah, ah).real * grid.weight / grid.size), 1e-300)  # Parseval
    return ah


def flux_quantized_constant_b(grid: GridSpec, h: float, n_flux: int):
    """Periodic realization of a constant field b = 2 pi n h / L^2 along z.

    A genuinely uniform field has no periodic vector potential, so the
    builder keeps B_z = b everywhere except a narrow smooth return strip
    (width 0.15 L) that carries the compensating flux -2 pi n h.
    With integer n the Aharonov-Casher zero mode e^{phi/h} stays O(1), which
    is what makes the flux quantization observable on the torus.

    Returns (A, B_z ScalarField, phi ScalarField) with A = (0, phi'(x), 0).
    """
    if grid.d != 3:
        raise ValueError("constant-B builder requires d = 3")
    if abs(n_flux - round(n_flux)) > 1e-12:
        raise ValueError(
            f"flux quantization violated: n = b L^2 / (2 pi h) must be an "
            f"integer, got {n_flux}"
        )
    n_flux = int(round(n_flux))
    b = 2.0 * np.pi * n_flux * h / grid.L**2

    width = 0.15 * grid.L
    # wrapped Gaussian return profile, built from its exact Fourier series so
    # the spectrum is fully resolved whenever exp(-(pi N width / L)^2 / 2)
    # is below roundoff
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.mesh)
    rho_hat = np.exp(-0.5 * (k1 * width) ** 2)  # integral normalized to 1
    center_phase = np.exp(-1j * k1 * grid.L / 2)
    rho = np.real(np.fft.ifft(rho_hat * center_phase)) / grid.mesh
    bz1 = b * (1.0 - grid.L * rho)  # mean-zero along x

    # phi'' = B_z, periodic mean-zero solution along x
    bh = np.fft.fft(bz1)
    k2 = k1**2
    k2[0] = 1.0
    phih = -bh / k2
    phih[0] = 0.0
    phi1 = np.real(np.fft.ifft(phih))
    a_y1 = np.real(np.fft.ifft(1j * k1 * phih))

    shape = grid.shape
    Bz = ScalarField(grid, np.broadcast_to(bz1[:, None, None], shape).copy())
    phi = ScalarField(grid, np.broadcast_to(phi1[:, None, None], shape).copy())
    Adata = np.zeros((3,) + shape)
    Adata[1] = np.broadcast_to(a_y1[:, None, None], shape)
    return VectorField(grid, Adata), Bz, phi


def cutoff_ball(grid: GridSpec, radius: float) -> ScalarField:
    """Smooth cutoff, 1 on the half-radius ball, supported in B(radius)."""
    if not radius > 0:
        raise ValueError(f"cutoff radius must be positive, got {radius}")
    return ScalarField(grid, plateau_bump(_center_distance(grid) / radius))


V_BUILDERS = {
    "bump": bump_potential,
    "constball": constant_on_ball,
    "constant": constant_potential,
    "softcoulomb": soft_coulomb,
}

A_BUILDERS = {
    "zero": zero_potential_field,
    "randband": random_divfree_potential,
    "constB": flux_quantized_constant_b,
}
