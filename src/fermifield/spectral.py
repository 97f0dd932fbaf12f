"""
Negative-spectrum computation, density matrices, densities and currents.

The eigensolver finds every eigenvalue <= tol_zero.  Up to DENSE_LIMIT it
assembles the closed-form matrix and asks LAPACK's MRRR driver (?heevr) for
the eigenpairs in (-inf, tol_zero] only: one tridiagonal reduction plus the
kept vectors.  Above it, preconditioned LOBPCG (scipy) grows its block until
the spectrum is bracketed at zero, and a probe solve with an independent
start block guards against missed eigenvalues.  Every kept eigenpair is
checked against the matrix-free operator, whichever path found it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .grid import ScalarField, SpinorField, VectorField, _fft, _ifft
from .operators import (
    BLOCK,
    DENSE_LIMIT,
    HamiltonianSpec,
    _block,
    _columns,
    _current_form,
    apply,
    dense_matrix,
)

__all__ = [
    "NegativeSpectrum",
    "DensityMatrix",
    "EigenFailure",
    "negative_spectrum",
    "density",
    "current",
    "default_tol_zero",
]


class EigenFailure(RuntimeError):
    """Eigensolver did not converge within its budget."""


@dataclass(frozen=True)
class NegativeSpectrum:
    """All eigenvalues lambda_j <= tol_zero with orthonormal eigenvectors."""

    spec: HamiltonianSpec
    eigenvalues: np.ndarray  # sorted ascending
    eigenvectors: list  # SpinorFields, quadrature-normalized
    tol_zero: float
    zero_band: bool  # some |lambda| <= tol_zero present

    @property
    def sum(self) -> float:
        """Sum of the negative parts min(lambda, 0)."""
        return float(np.minimum(self.eigenvalues, 0.0).sum())

    def to_density_matrix(self) -> "DensityMatrix":
        occ = np.ones(len(self.eigenvalues))
        return DensityMatrix(
            spec=self.spec,
            eigenvalues=self.eigenvalues,
            eigenvectors=self.eigenvectors,
            occupations=occ,
        )


@dataclass(frozen=True)
class DensityMatrix:
    """gamma = sum_j occ_j |u_j><u_j| with occupations in [0, 1]."""

    spec: HamiltonianSpec
    eigenvalues: np.ndarray
    eigenvectors: list
    occupations: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.occupations is None:
            object.__setattr__(self, "occupations", np.ones(len(self.eigenvectors)))
        occ = np.asarray(self.occupations, dtype=float)
        if np.any(occ < -1e-12) or np.any(occ > 1 + 1e-12):
            raise ValueError("occupations must lie in [0, 1]")


def default_tol_zero(spec: HamiltonianSpec) -> float:
    g = spec.grid
    vmax = 0.0 if spec.V is None else float(np.abs(spec.V.data).max())
    kin_scale = (spec.h * np.pi * g.N / g.L) ** 2
    return 1e-8 * (vmax + kin_scale)


def dense_eigh(H: np.ndarray, vectors: bool = True, upper: float | None = None):
    """Eigenpairs of the Hermitian H, ascending, read from one triangle.

    Every eigenpair by default.  With upper set, only the eigenvalues in
    (-inf, upper] and their vectors, and H is overwritten in place: LAPACK
    gets the Fortran-ordered transpose of a C-ordered H, which is conj(H),
    so no dim^2 copy is made.  MRRR driver ?heevr either way; (0,) and
    (dim, 0) when nothing lies in the interval.
    """
    import scipy.linalg as _sla

    conj, subset = False, {}
    if upper is not None:
        conj, subset = H.flags.c_contiguous, {"subset_by_value": (-np.inf, upper)}
    out = _sla.eigh(H.T if conj else H, eigvals_only=not vectors, driver="evr",
                    overwrite_a=upper is not None, **subset)
    if not vectors:
        return out, None
    vals, vecs = out
    return vals, (vecs.conj() if conj else vecs)


def _normalize_columns(vecs: np.ndarray, weight: float) -> np.ndarray:
    norms = np.sqrt(np.sum(np.abs(vecs) ** 2, axis=0) * weight)
    return vecs / norms


def _wrap_vectors(spec: HamiltonianSpec, vecs: np.ndarray) -> list:
    shape = (spec.spin,) + spec.grid.shape
    return [SpinorField(spec.grid, vecs[:, j].reshape(shape)) for j in range(vecs.shape[1])]


def _residual_check(spec: HamiltonianSpec, vals, vecs: np.ndarray, tol_eig: float):
    """Largest ||H u - lam u|| over the columns of vecs, one apply per block."""
    scale = max(abs(float(vals.min(initial=0.0))), default_tol_zero(spec) / 1e-8, 1e-300)
    worst = 0.0
    for lo in range(0, len(vals), BLOCK):
        U = _block(spec, vecs[:, lo:lo + BLOCK])
        lam = vals[lo:lo + BLOCK].reshape((1, -1) + (1,) * spec.grid.d)
        R = apply(spec, U) - lam * U
        norms = np.sqrt(np.sum(np.abs(_columns(R)) ** 2, axis=0) * spec.grid.weight)
        worst = max(worst, float(norms.max()))
    if worst > tol_eig * scale:
        raise EigenFailure(
            f"eigenpair residual {worst:.3e} exceeds {tol_eig:.1e} * scale {scale:.3e}"
        )
    return worst


def negative_spectrum(
    spec: HamiltonianSpec,
    tol_eig: float = 1e-8,
    tol_zero: float | None = None,
    seed: int = 0,
    max_vectors: int | None = None,
) -> NegativeSpectrum:
    """Compute every eigenvalue <= tol_zero of the represented operator."""
    if tol_zero is None:
        tol_zero = default_tol_zero(spec)
    if spec.dim <= DENSE_LIMIT:
        vals, vecs = dense_eigh(dense_matrix(spec), upper=tol_zero)
    else:
        vals, vecs = _lobpcg_negative(spec, tol_eig, tol_zero, seed, max_vectors)
    vecs = _normalize_columns(vecs, spec.grid.weight) if vals.size else vecs
    _residual_check(spec, vals, vecs, max(tol_eig, 1e-7))
    zero_band = bool(np.any(np.abs(vals) <= tol_zero))
    return NegativeSpectrum(spec, vals, _wrap_vectors(spec, vecs), tol_zero, zero_band)


def _lobpcg_negative(spec: HamiltonianSpec, tol_eig: float, tol_zero: float,
                     seed: int, max_vectors: int | None):
    """Eigenpairs <= tol_zero by LOBPCG blocks grown until bracketed, then probed."""
    dim = spec.dim
    op, minv = _iterative_operators(spec)
    rng = np.random.default_rng(seed)

    cap = max_vectors if max_vectors is not None else min(dim - 4, 600)
    k = 16
    while True:
        vals, vecs = _lobpcg_lowest(op, minv, dim, k, rng, tol_eig)
        if vals[-1] > tol_zero:
            break
        if k >= cap:
            raise EigenFailure(
                f"negative spectrum not bracketed with {k} vectors "
                f"(largest found {vals[-1]:.6e}, tol_zero {tol_zero:.1e})"
            )
        k = min(2 * k, cap)

    keep = vals <= tol_zero
    vals, vecs = vals[keep], vecs[:, keep]

    # probe solve: an independent start block must not find anything lower
    pvals, _ = _lobpcg_lowest(op, minv, dim, 4, rng, 1e-6)
    floor = vals[0] if vals.size else tol_zero
    if pvals[0] < floor - max(1e-8, 1e-6 * abs(floor)):
        raise EigenFailure(
            f"probe found eigenvalue {pvals[0]:.6e} below computed floor {floor:.6e}"
        )
    return vals, vecs


def _iterative_operators(spec: HamiltonianSpec):
    """Matrix-free operator and its Fourier-diagonal preconditioner.

    The preconditioner inverts h^2 k^2 + (max|V| + 1), which compresses the
    kinetic spread that otherwise stalls edge-eigenvalue iterations.  Both
    act on whole column blocks, BLOCK columns per core call.
    """
    g = spec.grid
    dim = spec.dim
    vmax = 0.0 if spec.V is None else float(np.abs(spec.V.data).max())
    pre = 1.0 / (spec.h**2 * g.k2 + vmax + 1.0)

    def blockwise(fn):
        def matmat(X):
            cols = X.reshape(dim, -1)
            out = np.empty(cols.shape, dtype=np.complex128)
            for lo in range(0, cols.shape[1], BLOCK):
                out[:, lo:lo + BLOCK] = _columns(fn(_block(spec, cols[:, lo:lo + BLOCK])))
            return out.reshape(X.shape)

        return matmat

    op_mat = blockwise(lambda U: apply(spec, U))
    pre_mat = blockwise(lambda U: _ifft(pre * _fft(U, g.d), g.d))
    op = spla.LinearOperator((dim, dim), matvec=op_mat, matmat=op_mat, dtype=np.complex128)
    M = spla.LinearOperator((dim, dim), matvec=pre_mat, matmat=pre_mat, dtype=np.complex128)
    return op, M


def _lobpcg_lowest(op, minv, dim: int, k: int, rng, tol: float):
    """Lowest-k block solve, sorted ascending."""
    X = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs = spla.lobpcg(op, X, M=minv, largest=False,
                                 tol=max(tol * 1e-2, 1e-12), maxiter=400)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


# ---------------------------------------------------------------------------
# densities and currents


def density(gamma: DensityMatrix) -> ScalarField:
    """Spin-traced position density rho(x) = sum_j occ_j |u_j(x)|^2."""
    g = gamma.spec.grid
    rho = np.zeros(g.shape)
    for occ, u in zip(gamma.occupations, gamma.eigenvectors):
        rho += occ * np.sum(np.abs(u.data) ** 2, axis=0)
    return ScalarField(g, rho)


def current(gamma: DensityMatrix, spec: HamiltonianSpec) -> VectorField:
    """Fermi-gas current density driving the Maxwell equation.

    Schrodinger: J = -Re[(D+A) gamma](x, x); Pauli additionally routes the
    momentum through sigma(sigma.(D+A)), which adds the spin current.
    """
    if spec.flavor != gamma.spec.flavor:
        raise ValueError("density matrix flavor does not match spec")
    g = spec.grid
    occ = np.asarray(gamma.occupations, dtype=float)
    J = np.zeros((g.d,) + g.shape)
    for lo in range(0, len(gamma.eigenvectors), BLOCK):
        U = np.stack([u.data for u in gamma.eigenvectors[lo:lo + BLOCK]], axis=1)
        w = occ[lo:lo + BLOCK].reshape((1, -1) + (1,) * g.d)
        J -= np.real(_current_form(spec, w * U, U))
    return VectorField(g, J)
