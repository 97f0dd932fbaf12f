"""
Localization machinery: Jacobian-weighted partitions of unity, scale
functions, dyadic Fermi-shell cutoffs, mollifiers and smoothing constants.

The partition weights follow psi_u(x) = psi((x-u)/l(u)) sqrt(J(x,u)) l(u)^{d/2}
with the closed-form Jacobian J(x,u) = l(u)^{-d} |1 + (x-u).grad l(u) / l(u)|
(matrix determinant lemma); the continuum identity
int psi_u(x)^2 l(u)^{-d} du = 1 is then exact and the numerical defect is
pure quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, _fft, _ifft_like, periodic_dist2
from .profiles import bump, pou_pair

DEFAULT_ALPHA = 4.0 / 9.0  # error-optimizing exponent for the scale function
DEFECT_RTOL = 1e-8  # partition_defect stops refining when the integral moves less
DEFECT_MAX_LEVEL = 8  # at most 8 quadrature levels, 8 to 1024 points an axis
SAMPLE_BOX = 3.0  # partition_from_potential checks its bounds on [-3, 3]^d


# ---------------------------------------------------------------------------
# Jacobian-weighted partition of unity


def _mother_psi_sq(d: int):
    """Normalized mother profile: psi(v)^2 with int psi^2 dv = 1 over R^d."""
    # plateau bump on |v| < 1, normalized by midpoint quadrature once
    n = 4096 if d == 1 else (256 if d == 2 else 96)
    edges = np.linspace(-1.0, 1.0, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dx = edges[1] - edges[0]
    grids = np.meshgrid(*([mids] * d), indexing="ij")
    r = np.sqrt(sum(gv**2 for gv in grids))
    norm = float(np.sum(bump(r) ** 2) * dx**d)

    def psi(v_radius):
        return bump(v_radius) / np.sqrt(norm)

    return psi


@dataclass(frozen=True)
class PartitionSpec:
    """d, ell(u) and grad_ell(u); callables take (..., d) arrays of centers."""

    d: int
    ell: callable  # (..., d) -> (...)
    grad_ell: callable  # (..., d) -> (..., d)

    def __post_init__(self):
        object.__setattr__(self, "_psi", _mother_psi_sq(self.d))

    @classmethod
    def constant(cls, d: int, ell0: float) -> "PartitionSpec":
        return cls(
            d,
            lambda u: np.full(np.asarray(u).shape[:-1], ell0),
            lambda u: np.zeros(np.asarray(u).shape),
        )


def partition_weight(spec: PartitionSpec, u, x) -> np.ndarray:
    """psi_u(x) for centers u of shape (..., d) at a single point x."""
    u = np.asarray(u, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lu = np.asarray(spec.ell(u), dtype=float)
    glu = np.asarray(spec.grad_ell(u), dtype=float)
    if np.max(np.sqrt(np.sum(glu**2, axis=-1)), initial=0.0) >= 1.0:
        raise ValueError("invalid spec: |grad ell| >= 1 at a sample point")
    v = (x - u) / lu[..., None]
    r = np.sqrt(np.sum(v**2, axis=-1))
    jac = lu ** (-spec.d) * np.abs(1.0 + np.sum(v * glu, axis=-1))
    w = spec._psi(r) * np.sqrt(jac) * lu ** (spec.d / 2.0)
    return np.where(r < 1.0, w, 0.0)


def partition_defect(spec: PartitionSpec, x_samples) -> float:
    """max_x | int psi_u(x)^2 l(u)^{-d} du - 1 | by adaptive midpoint refinement."""
    worst = 0.0
    for x in np.atleast_2d(np.asarray(x_samples, dtype=float)):
        lx = float(np.asarray(spec.ell(x)))
        halfwidth = 2.5 * lx  # support margin, safe for |grad ell| < 1/4
        prev, val = None, None
        n = 8
        for _ in range(DEFECT_MAX_LEVEL):
            val = _partition_integral(spec, x, halfwidth, n)
            if prev is not None and abs(val - prev) <= DEFECT_RTOL * max(abs(val), 1.0):
                break
            prev = val
            n *= 2
        worst = max(worst, abs(val - 1.0))
    return worst


def _partition_integral(spec: PartitionSpec, x, halfwidth: float, n: int) -> float:
    d = spec.d
    edges = np.linspace(-halfwidth, halfwidth, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    axes = [x[j] + mids for j in range(d)]
    du = (edges[1] - edges[0]) ** d
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gv.ravel() for gv in grids], axis=-1)
    w = partition_weight(spec, pts, x)
    lu = np.asarray(spec.ell(pts), dtype=float)
    return float(np.sum(w**2 * lu ** (-d)) * du)


def partition_from_potential(
    d: int,
    V,
    grad_V,
    h: float,
    K: float = 1.0,
    alpha: float = DEFAULT_ALPHA,
):
    """PartitionSpec with the potential-adapted scale l = (V^2 + h^{2a})^{1/2}/K.

    V and grad_V are analytic callables on (..., d) center arrays.  K is
    inflated minimally (both bounds scale as 1/K) if the sampled gradient or
    size bound fails on [-SAMPLE_BOX, SAMPLE_BOX]^d.
    """
    if not (0.4 < alpha < 0.5):
        raise ValueError("alpha must lie in (2/5, 1/2)")

    def ell_of(u, Kval):
        vv = np.asarray(V(u), dtype=float)
        return np.sqrt(vv**2 + h ** (2 * alpha)) / Kval

    def grad_of(u, Kval):
        vv = np.asarray(V(u), dtype=float)
        gv = np.asarray(grad_V(u), dtype=float)
        root = np.sqrt(vv**2 + h ** (2 * alpha))
        return vv[..., None] * gv / (Kval * root[..., None])

    axes = [np.linspace(-SAMPLE_BOX, SAMPLE_BOX, 48)] * d
    pts = np.stack([gv.ravel() for gv in np.meshgrid(*axes, indexing="ij")], axis=-1)
    grad_max = float(np.max(np.sqrt(np.sum(grad_of(pts, K) ** 2, axis=-1))))
    ell_max = float(np.max(ell_of(pts, K)))
    repaired = False
    if grad_max >= 0.25 or ell_max > 0.25:
        K = K * max(grad_max / 0.25, ell_max / 0.25) * (1.0 + 1e-9)
        repaired = True
    spec = PartitionSpec(
        d,
        lambda u, Kv=K: ell_of(u, Kv),
        lambda u, Kv=K: grad_of(u, Kv),
    )
    return spec, K, repaired


# ---------------------------------------------------------------------------
# dyadic Fermi-shell decomposition


def _chi_positive(i: int, t: np.ndarray) -> np.ndarray:
    """chi_i for i >= 1: supp [3/4 2^{i-1}, 5/4 2^i], 1 on [5/4 2^{i-1}, 3/4 2^i]."""
    lo, hi = 2.0 ** (i - 1), 2.0**i
    out = np.zeros_like(t, dtype=float)
    rise = (t >= 0.75 * lo) & (t < 1.25 * lo)
    flat = (t >= 1.25 * lo) & (t <= 0.75 * hi)
    fall = (t > 0.75 * hi) & (t <= 1.25 * hi)
    _, r = pou_pair((t[rise] - 0.75 * lo) / (0.5 * lo))
    out[rise] = r
    out[flat] = 1.0
    f, _ = pou_pair((t[fall] - 0.75 * hi) / (0.5 * hi))
    out[fall] = f
    return out


def _chi_zero(t: np.ndarray) -> np.ndarray:
    """chi_0: supported on |t| <= 5/4, 1 on |t| <= 3/4, pou-matched to chi_1."""
    a = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(a)
    out[a <= 0.75] = 1.0
    fall = (a > 0.75) & (a < 1.25)
    f, _ = pou_pair((a[fall] - 0.75) / 0.5)
    out[fall] = f
    return out


@dataclass(frozen=True)
class DyadicFamily:
    """Shell cutoffs f_i of t = (u^2 - W)/(w W) around the Fermi surface."""

    W: float
    w: float

    def __post_init__(self):
        if not self.W > 0:
            raise ValueError("W must be positive")

    @property
    def i0(self) -> int:
        """Smallest i with 3/4 2^i >= 1/w: f_{-i0} is 1 down to the floor t = -1/w."""
        return int(np.ceil(np.log2(4.0 / (3.0 * self.w))))

    def t(self, u2) -> np.ndarray:
        return (np.asarray(u2, dtype=float) - self.W) / (self.w * self.W)

    def f(self, i: int, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if i == 0:
            return _chi_zero(t)
        if i > 0:
            return _chi_positive(i, t)
        if i < -self.i0:
            return np.zeros_like(t)
        return _chi_positive(-i, -t)

    def _imax(self, t) -> int:
        tmax = float(np.max(np.abs(t), initial=4.0))
        return int(np.ceil(np.log2(max(tmax, 2.0)))) + 2

    def sum_f_sq(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        acc = self.f(0, t) ** 2
        imax = self._imax(t)
        for i in range(1, imax + 1):
            acc += self.f(i, t) ** 2 + self.f(-i, t) ** 2
        return acc


def dyadic_build(W: float, w: float, h: float | None = None) -> DyadicFamily:
    """Family with shells of width w_i = 2^{|i|} w; requires h <= w <= 1."""
    if h is not None and not (h <= w <= 1.0):
        raise ValueError(f"w must lie in [h, 1], got w={w} with h={h}")
    if not (0.0 < w <= 1.0):
        raise ValueError("w must lie in (0, 1]")
    return DyadicFamily(W=W, w=w)


# ---------------------------------------------------------------------------
# mollification


def mollifier_kernel(grid: GridSpec, r: float) -> np.ndarray:
    """Sampled chi_r centered at the origin, discretely normalized to mass 1."""
    if not (0 < r <= grid.L / 2):
        raise ValueError("mollification radius must satisfy 0 < r <= L/2")
    kern = bump(np.sqrt(periodic_dist2(grid, (0.0,) * grid.d)) / r)
    mass = kern.sum() * grid.weight
    if mass <= 0:
        raise ValueError("mollifier unresolved: r below the grid mesh")
    return kern / mass


def mollify(A, r: float):
    """A_r = A * chi_r, exact torus convolution through the FFT."""
    g = A.grid
    kern_hat = _fft(mollifier_kernel(g, r), g.d) * g.weight
    return type(A)(g, _ifft_like(_fft(A.data, g.d) * kern_hat, A.data, g.d))


SMOOTHING_CONSTANTS = ("c_diff", "c_d1", "c_d2", "c_d3")


def smoothing_constants(grid: GridSpec, coefficients, radii):
    """Yield, per draw in coefficients, a dict from SMOOTHING_CONSTANTS to lists over radii of

        c_diff = |A - A_r|^2 / (r^2 |grad A|^2),  c_dn = |grad^n A_r|^2 r^(2n-2) / |grad A|^2

    for n = 1, 2, 3, A_r = mollify(A, r), each norm a Fourier sum (Parseval).
    A draw is given by its coefficients fftn(A) per component, (d, *grid),
    as rough_divfree_potential makes them, so no field is transformed here.
    """
    k2 = grid.k2.ravel()
    khats = [np.real(np.fft.fftn(mollifier_kernel(grid, r)) * grid.weight).ravel() for r in radii]
    for ah in coefficients:
        dens = np.empty((4, grid.size))  # |A_hat|^2 |k|^(2n), n = 0..3: |grad^n A|^2's density
        dens[0] = grid.volume * sum(np.abs(a.ravel() / grid.size) ** 2 for a in ah)
        for n in (1, 2, 3):
            np.multiply(k2, dens[n - 1], out=dens[n])
        grad_sq = float(np.sum(dens[1]))
        series = {name: [] for name in SMOOTHING_CONSTANTS}
        for r, khat in zip(radii, khats):
            series["c_diff"].append(float(np.dot((1.0 - khat) ** 2, dens[0])) / (r**2 * grad_sq))
            for order, deriv in zip((1, 2, 3), dens[1:] @ khat**2):
                series[f"c_d{order}"].append(float(deriv) / (r ** (2 - 2 * order) * grad_sq))
        yield series
