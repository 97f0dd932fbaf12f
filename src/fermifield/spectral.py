"""
Negative-spectrum computation and the gauge current of its eigenvectors.

The eigensolver finds every eigenvalue <= tol_zero.  Pauli at A = 0, which
is H_1 (x) I_2 with H_1 its scalar Schrodinger operator, is solved once as
H_1 and each eigenpair repeated per spin component.  One of three routes
solves it, each with its own count certificate (SolveStats.certificate):

- "lapack": whenever psi is set, and otherwise up to DENSE_LIMIT (of the
  asked dimension) by default, the closed-form matrix (real when A is None)
  goes to LAPACK's MRRR driver (?heevr / ?syevr) for the eigenpairs in
  (-inf, tol_zero] only.  With psi set that matrix is its block on supp psi
  at any grid size, refused above DENSE_LIMIT rows; ker psi, exact zeros of
  the operator, is a count (SolveStats.kernel), not stored pairs.
- "inertia": up to DENSE_LIMIT, psi unset, when the solved dimension is at
  least INERTIA_MIN_DIM and the predicted block (a quarter more than the
  Weyl count plus two guards) is at most dim / INERTIA_BLOCK_RATIO.
  The matrix of H - tol_zero is factored in place by Bunch-Kaufman LDL^T
  (?hetrf / ?sytrf); by Sylvester's law of inertia its negative pivots count
  the eigenvalues below tol_zero exactly.  One LOBPCG block of that count
  then solves the matrix-free operator to INERTIA_LOBPCG_TOL (none runs at
  a count of 0); if it finds another count, dense evr solves a
  re-assembled matrix and the fallback is recorded.
- "probe": above DENSE_LIMIT, psi unset, where every grid has N / 2 >= 8,
  the same spec sampled at every other point is first solved on N / 2 to a
  loose target, from the predicted block grown until bracketed at zero
  (SolveStats.coarse); its kept vectors, zero-padded to N, alone start
  LOBPCG (scipy) on N.  A one-column probe on their orthogonal complement
  bounds the next eigenvalue from below (Courant-Fischer): above tol_zero it
  certifies the count, else its vector joins the block, solved again.  The
  first probe starts from the half grid's first vector above the kept ones,
  zero-padded, plus a random vector of equal norm; a later one at random.

Every iterative solve, LOBPCG and sternheimer's CG, works on unitary
plane-wave coefficients (operators.apply_fourier), where the preconditioner,
the inverse kinetic energy, is a diagonal; LOBPCG's vectors of a real
operator (A unset) come back real, through one Rayleigh-Ritz step on their
real and imaginary parts (_real_pairs).  Every kept eigenpair is checked
against the matrix-free operator of the asked spec on samples; lobpcg calls
that end above their residual target, operator columns applied, the
inertia count and the probe's value are recorded in SolveStats, not hidden.

The kept eigenvectors are one read-only (dim, m) block of columns, normalized
in place where the solver made them; SpinorFields are wrapped only on demand.
sternheimer reaches the spectrum above the block by projected shifted solves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridSpec, SpinorField, VectorField, _fft, _ifft
from .operators import (
    DENSE_LIMIT,
    ORTHO,
    PAULI,
    HamiltonianSpec,
    _block,
    _column_blocks,
    _column_slices,
    _columns,
    _current_form,
    apply,
    apply_fourier,
    dense_matrix,
)


# Tolerances relative to _operator_scale.  RESIDUAL_TOL bounds every kept
# eigenpair's residual; LOBPCG_TOL (1000 times inside it) and PROBE_TOL are
# lobpcg's absolute targets for the block and for the probe.
RESIDUAL_TOL = 1e-7
LOBPCG_TOL = 1e-10
PROBE_TOL = 1e-8
# The inertia route's block target.  sternheimer projects off the kept block, and
# at LOBPCG_TOL its Pauli N=8 sum over the pairs above missed the dense one by
# 1.1e-11 of its largest entry; at this target it meets 1e-12.
INERTIA_LOBPCG_TOL = 1e-13

# The inertia route's rule, from the dense-versus-iterative crossover in
# BENCH_eigensolver.json (one BLAS thread): at dim 512 evr wins at every block
# (0.016 s real, 0.05 s complex, against 0.1 s or more), and the inertia route
# wins up to a predicted block of about 8 at dim 1024 and 32 at dim 4096.
INERTIA_MIN_DIM = 1024
INERTIA_BLOCK_RATIO = 128

# The probe route's half-grid start: the same spec is first solved on N / 2 to
# this loose target (times the coarse operator scale), only to seed the fine block.
COARSE_LOBPCG_TOL = 1e-4


class EigenFailure(RuntimeError):
    """Eigensolver did not converge within its budget."""


@dataclass(frozen=True)
class SolveStats:
    """How a negative spectrum was found."""

    # "lapack", "inertia" or "probe": what vouches for the count.  The kept pairs
    # come from dense evr under "lapack" and from LOBPCG under the other two.
    certificate: str = ""
    dim: int = 0  # dimension solved, after the spin reduction: |supp psi| * spin on "lapack"
    copies: int = 1  # spin copies of each solved eigenpair
    kernel: int = 0  # ker psi's zeros in the solved spec when 0 <= tol_zero; counted, not stored
    blocks: tuple = ()  # LOBPCG block sizes solved, probes excluded: two or more if regrown
    iterations: tuple = ()  # per lobpcg call, each probe after its block
    unconverged: int = 0  # lobpcg calls that ended above their residual target
    worst_residual: float = 0.0  # largest ||H u - lam u|| over the kept pairs
    matvecs: int = 0  # operator columns applied by lobpcg, probe included
    # the probe's value on the kept block's complement, a lower bound on the next
    # eigenvalue; less tol_zero it is the certificate gap.  None off the probe route.
    probe_lowest: float | None = None
    inertia: int | None = None  # eigenvalues below tol_zero by LDL^T; None off the inertia route
    fallback: bool = False  # the inertia route's LOBPCG missed that count; dense evr solved
    # the probe route's half-grid solve (its dim, blocks, iterations, unconverged
    # and matvecs); the counts above are the fine ones.  None off the probe route.
    coarse: SolveStats | None = None


@dataclass(frozen=True)
class NegativeSpectrum:
    """Eigenpairs lambda_j <= tol_zero, orthonormal; ker psi's counted in stats.kernel only."""

    spec: HamiltonianSpec
    eigenvalues: np.ndarray  # sorted ascending
    vectors: np.ndarray  # (dim, m) read-only columns, quadrature-normalized
    tol_zero: float
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def zero_band(self) -> bool:
        """Some |lambda| <= tol_zero present, ker psi's included."""
        return self.stats.kernel > 0 or bool(np.any(np.abs(self.eigenvalues) <= self.tol_zero))

    @property
    def sum(self) -> float:
        """Sum of the negative parts min(lambda, 0)."""
        return float(np.minimum(self.eigenvalues, 0.0).sum())

    @property
    def eigenvectors(self) -> list:
        """The columns of vectors as SpinorFields, copied on each call."""
        shape = (self.spec.spin,) + self.spec.grid.shape
        return [SpinorField(self.spec.grid, u.reshape(shape)) for u in self.vectors.T]

    def expectations(self, f: np.ndarray) -> np.ndarray:
        """<u_j, f u_j> for every column u_j, f a real function on the grid.

        One _column_slices slice at a time, so |u|^2 is never a (dim, m) array.
        """
        spec, m = self.spec, self.vectors.shape[1]
        out = np.empty(m)
        for at in _column_slices(spec, m):
            dens = np.abs(self.vectors[:, at].reshape(spec.spin, spec.grid.size, -1)) ** 2
            out[at] = f.ravel() @ dens.sum(axis=0) * spec.grid.weight
        return out


def _operator_scale(spec: HamiltonianSpec) -> float:
    """max|V| + (h pi N / L)^2: potential plus the largest kinetic symbol."""
    g = spec.grid
    vmax = 0.0 if spec.V is None else float(np.abs(spec.V.data).max())
    return vmax + (spec.h * np.pi * g.N / g.L) ** 2


def default_tol_zero(spec: HamiltonianSpec) -> float:
    return 1e-8 * _operator_scale(spec)


def dense_eigh(H: np.ndarray, upper: float):
    """Eigenpairs of the Hermitian H in (-inf, upper], ascending, from one triangle.

    H is overwritten in place: LAPACK gets the Fortran-ordered transpose of
    a C-ordered H, which is conj(H), so no dim^2 copy is made.  MRRR driver
    ?heevr; (0,) and (dim, 0) when nothing lies in the interval.
    """
    import scipy.linalg as _sla

    conj = H.flags.c_contiguous
    vals, vecs = _sla.eigh(H.T if conj else H, driver="evr", overwrite_a=True,
                           subset_by_value=(-np.inf, upper))
    return vals, (vecs.conj() if conj else vecs)


def _residual_check(spec: HamiltonianSpec, vals, vecs: np.ndarray):
    """Largest ||H u - lam u|| over the columns of vecs, one apply per block.

    Raises EigenFailure above RESIDUAL_TOL times the operator scale.
    """
    scale = max(abs(float(vals.min(initial=0.0))), _operator_scale(spec), 1e-300)
    worst = 0.0
    for at, (U,) in _column_blocks(spec, vecs):
        R = _columns(apply(spec, U)) - vals[at] * vecs[:, at]
        worst = max(worst, float(np.sqrt(np.sum(np.abs(R) ** 2, axis=0) * spec.grid.weight).max()))
    if worst > RESIDUAL_TOL * scale:
        raise EigenFailure(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * scale {scale:.3e}"
        )
    return worst


def negative_spectrum(spec: HamiltonianSpec, tol_zero: float | None = None,
                      seed: int = 0) -> NegativeSpectrum:
    """Compute every eigenvalue <= tol_zero of the represented operator.

    Pauli at A = 0 is solved as its scalar Schrodinger problem (see
    _spin_reduced) and each eigenpair repeated per spin component; the
    route (module docstring) is chosen from spec.dim and the solved spec.
    The columns are normalized in place and kept read-only, and every pair
    must pass _residual_check against the matrix-free operator of spec itself.
    """
    if tol_zero is None:
        tol_zero = default_tol_zero(spec)
    solved = _spin_reduced(spec)
    if solved.psi is not None:
        # where psi is small but nonzero its eigenvalues crowd zero, and an
        # iterative count at tol_zero would rest on round-off: always dense
        vals, vecs, info = _dense_negative(solved, tol_zero)
    elif spec.dim > DENSE_LIMIT:
        vals, vecs, info = _lobpcg_negative(solved, tol_zero, seed)
    elif (solved.dim >= INERTIA_MIN_DIM
          and _predicted_block(solved) <= solved.dim / INERTIA_BLOCK_RATIO):
        vals, vecs, info = _inertia_negative(solved, tol_zero, seed)
    else:
        vals, vecs, info = _dense_negative(solved, tol_zero)
    if solved.A is None and np.iscomplexobj(vecs):  # LOBPCG's vectors of a real operator
        vals, vecs = _real_pairs(solved, vals, vecs)
    copies = spec.spin // solved.spin
    if copies > 1:
        vals, vecs = _spin_copies(vals, vecs, copies)
    for at in _column_slices(spec, vecs.shape[1]):  # no (dim, m) |u|^2
        vecs[:, at] /= np.sqrt(np.sum(np.abs(vecs[:, at]) ** 2, axis=0) * spec.grid.weight)
    worst = _residual_check(spec, vals, vecs)
    vecs.flags.writeable = False
    stats = SolveStats(**{"dim": solved.dim, **info}, copies=copies, worst_residual=worst)
    return NegativeSpectrum(spec, vals, vecs, tol_zero, stats)


def _dense_negative(spec: HamiltonianSpec, tol_zero: float):
    """Eigenpairs <= tol_zero by evr on dense_matrix's block of spec on supp psi (times spin).

    psi (T - V) psi vanishes on every row and column where psi does, so the
    block's pairs, zero outside it, are the matrix's own, and its other
    eigenvalues are ker psi's zeros, counted as "kernel" when 0 <= tol_zero.
    With psi unset or nowhere zero the block is the whole matrix, and evr's
    columns are kept as they come.  Returns the pairs and the SolveStats fields.
    """
    vals, sub = dense_eigh(dense_matrix(spec), upper=tol_zero)
    k = sub.shape[0]
    if k == spec.dim:
        return vals, sub, {"certificate": "lapack"}
    # columns contiguous, as evr returns them, so _block copies none at spin 1
    vecs = np.zeros((spec.dim, vals.size), dtype=sub.dtype, order="F")
    vecs[np.tile(spec.psi.data.ravel() != 0, spec.spin)] = sub
    return vals, vecs, {"certificate": "lapack", "dim": k,
                        "kernel": spec.dim - k if tol_zero >= 0.0 else 0}


def _spin_reduced(spec: HamiltonianSpec) -> HamiltonianSpec:
    """Pauli at A = 0 as the scalar Schrodinger spec H_1 with spec = H_1 (x) I_2, else spec.

    The Pauli square [sigma.(D+A)]^2 = D^2 acts on each spin component
    alone when A vanishes; V and psi are scalar multiplications.
    """
    if spec.flavor != PAULI or (spec.A is not None and np.any(spec.A.data)):
        return spec
    return HamiltonianSpec(grid=spec.grid, h=spec.h, V=spec.V, psi=spec.psi)


def _real_pairs(spec: HamiltonianSpec, vals: np.ndarray, vecs: np.ndarray):
    """Real eigenpairs spanning the complex columns vecs of spec's real operator.

    A real symmetric operator's eigenspaces are closed under conjugation, so
    Re vecs and Im vecs span the kept space: its m leading left singular
    vectors are a real orthonormal basis Q, and the eigenpairs of Q^T H Q
    (Rayleigh-Ritz) are real eigenpairs of H, stored at half the size.
    """
    m = vecs.shape[1]
    if m == 0:
        return vals, vecs.real
    Q = np.linalg.svd(np.concatenate([vecs.real, vecs.imag], axis=1),
                      full_matrices=False)[0][:, :m]
    HQ = np.empty_like(Q)
    for at, (B,) in _column_blocks(spec, Q):
        HQ[:, at] = _columns(apply(spec, B)).real
    theta, Z = np.linalg.eigh(Q.T @ HQ)
    return theta, Q @ Z


def _spin_copies(vals: np.ndarray, vecs: np.ndarray, spin: int):
    """Eigenpairs of H (x) I_spin from those of H: each lam spin times, vectors e_s (x) u."""
    n, m = vecs.shape
    out = np.zeros((spin, n, m, spin), dtype=vecs.dtype)
    for s in range(spin):
        out[s, :, :, s] = vecs
    return np.repeat(vals, spin), out.reshape(spin * n, m * spin)


def _weyl_count(spec: HamiltonianSpec) -> float:
    """Weyl's count of eigenvalues below 0: spin |B_d| (2 pi h)^-d sum V_+^{d/2} w."""
    g = spec.grid
    if spec.V is None:
        return 0.0
    vplus = np.maximum(spec.V.data, 0.0) ** (g.d / 2)
    ball = np.pi ** (g.d / 2) / math.gamma(g.d / 2 + 1)
    return float(spec.spin * ball * (2 * np.pi * spec.h) ** (-g.d) * vplus.sum() * g.weight)


def _predicted_block(spec: HamiltonianSpec) -> int:
    """A quarter more than the Weyl count plus two guard columns.

    The inertia route's size test and the half grid's first bracketing
    block; no kept LOBPCG block carries the guards.
    """
    return math.ceil(1.25 * _weyl_count(spec)) + 2


def _inertia(H: np.ndarray, shift: float) -> int:
    """Count of eigenvalues of the Hermitian H below shift, from one LDL^T.

    Bunch-Kaufman (?hetrf, or ?sytrf for a real H) factors H - shift =
    L D L^H in place, so H is overwritten and no second dim^2 array is made
    (the Fortran-ordered transpose of a C-ordered H is conj(H), whose inertia
    is the same).  By Sylvester's law D has as many negative eigenvalues as
    H - shift: a 1x1 pivot counts by its sign, a 2x2 pivot [[a, b], [b*, c]]
    once if a c - |b|^2 < 0 and else twice if a < 0.
    """
    from scipy.linalg import lapack

    n = H.shape[0]
    H.flat[::n + 1] -= shift
    trf, trf_lwork = ((lapack.zhetrf, lapack.zhetrf_lwork) if np.iscomplexobj(H)
                      else (lapack.dsytrf, lapack.dsytrf_lwork))
    lwork = int(trf_lwork(n)[0].real)
    ldu, ipiv, info = trf(H.T if H.flags.c_contiguous else H, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise EigenFailure(f"LDL^T factorization: argument {-info} rejected")
    d = ldu.diagonal().real
    first = np.flatnonzero(ipiv < 0)[::2]  # 2x2 pivots fill two negative ipiv entries
    a, c, b = d[first], d[first + 1], np.abs(ldu[first, first + 1])  # upper: D(k, k+1)
    single = np.ones(n, dtype=bool)
    single[first] = single[first + 1] = False
    pairs = np.where(a * c - b * b < 0, 1, 2 * (a < 0))
    return int(np.count_nonzero(d[single] < 0) + pairs.sum())


def _inertia_negative(spec: HamiltonianSpec, tol_zero: float, seed: int):
    """Eigenpairs <= tol_zero from their inertia count m and one LOBPCG block of m.

    m is exact, so the block needs no guard columns, no growth and no probe
    (and at m = 0 no LOBPCG runs); its target is INERTIA_LOBPCG_TOL times
    the operator scale.  If LOBPCG finds other than m values <= tol_zero,
    dense evr solves a re-assembled matrix and the SolveStats fields record
    the fallback.  Returns the kept pairs and those fields.
    """
    m = _inertia(dense_matrix(spec), tol_zero)
    if m == 0:
        return np.empty(0), np.empty((spec.dim, 0), dtype=np.complex128), {
            "certificate": "inertia", "inertia": 0}
    op, log = _plane_wave_operator(spec), []
    vals, vecs = _lobpcg_lowest(op, _kinetic_inverse(spec), spec.dim, m,
                                np.random.default_rng(seed),
                                INERTIA_LOBPCG_TOL * _operator_scale(spec), log)
    info = {"inertia": m, "blocks": (m,), **_tally(log, op)}
    if np.count_nonzero(vals <= tol_zero) != m:
        vals, vecs = dense_eigh(dense_matrix(spec), upper=tol_zero)
        return vals, vecs, {**info, "certificate": "lapack", "fallback": True}
    return vals, _samples(spec, vecs), {**info, "certificate": "inertia"}


def _lobpcg_negative(spec: HamiltonianSpec, tol_zero: float, seed: int):
    """Eigenpairs <= tol_zero by LOBPCG on the kept block, certified by a probe off it.

    The block starts from the kept vectors of _coarse_start, with no guard
    columns.  A one-column probe then runs on the kept vectors' complement
    (lobpcg's Y); by Courant-Fischer a value there above tol_zero certifies
    the count.  The first probe starts from _coarse_start's warm vector plus
    a random one of equal norm, never the warm vector alone: an eigenvector
    above a missed kept vector would hold the probe there, above tol_zero.
    Else the probe's vector joins them and a block one larger is solved
    again, its probe from a random start; past min(dim - 5, 600) columns, as
    lobpcg takes no Y with under 5 left, EigenFailure is raised.  Targets:
    LOBPCG_TOL, and PROBE_TOL for the probe, times the operator scale.
    Returns the kept pairs and the SolveStats fields.
    """
    dim, op, pre = spec.dim, _plane_wave_operator(spec), _kinetic_inverse(spec)
    rng, scale = np.random.default_rng(seed), _operator_scale(spec)
    log = []  # (iterations, warned) per lobpcg call
    vecs, warm, coarse = _coarse_start(spec, tol_zero, rng)
    vals, k, blocks, cap = np.empty(0), vecs.shape[1], [], min(dim - 5, 600)
    while True:
        if k > cap:
            raise EigenFailure(f"negative spectrum needs more than {cap} vectors")
        if k:
            blocks.append(k)
            vals, vecs = _lobpcg_lowest(op, pre, dim, k, rng, LOBPCG_TOL * scale, log, vecs)
            vals, vecs = vals[vals <= tol_zero], vecs[:, vals <= tol_zero]
        start = None
        if warm is not None:
            r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            start = (r + warm * (np.linalg.norm(r) / np.linalg.norm(warm)))[:, None]
        pvals, pvecs = _lobpcg_lowest(op, pre, dim, 1, rng, PROBE_TOL * scale, log, start,
                                      Y=vecs if vals.size else None)
        if pvals[0] > tol_zero:
            break
        k, vecs, warm = k + 1, np.concatenate([vecs, pvecs], axis=1), None
    info = {"certificate": "probe", "blocks": tuple(blocks), **_tally(log, op),
            "probe_lowest": float(pvals[0]), "coarse": coarse}
    return vals, _samples(spec, vecs), info


def _tally(log: list, op) -> dict:
    """The SolveStats counts of the lobpcg calls in log, (iterations, warned) each, on op."""
    return {"iterations": tuple(its for its, _ in log),
            "unconverged": sum(warned for _, warned in log), "matvecs": op.matvecs}


def _bracketed(op, pre, dim: int, k: int, rng, tol: float, tol_zero: float, log: list):
    """Lowest blocks from k columns (at least 4), doubled until one value is above tol_zero.

    The half-grid start's solve.  Each larger block starts from the vectors
    the last one found; at most min(dim - 4, 600) columns, past which
    EigenFailure is raised.  Returns the last block's pairs and sizes tried.
    """
    cap = min(dim - 4, 600)
    k, blocks, start = min(max(4, k), cap), [], None
    while True:
        blocks.append(k)
        vals, vecs = _lobpcg_lowest(op, pre, dim, k, rng, tol, log, start)
        if vals[-1] > tol_zero:
            return vals, vecs, blocks
        if k >= cap:
            raise EigenFailure(
                f"negative spectrum not bracketed with {k} vectors "
                f"(largest found {vals[-1]:.6e}, tol_zero {tol_zero:.1e})"
            )
        k, start = min(2 * k, cap), vecs


def _coarse_start(spec: HamiltonianSpec, tol_zero: float, rng):
    """Start block and warm probe vector for spec from the same operator on N / 2.

    V and A are sampled at every other point.  The coarse blocks start
    at the predicted block and grow until they bracket tol_zero, solved to
    COARSE_LOBPCG_TOL times the coarse operator scale; the vectors of its
    values <= tol_zero, zero-padded to N, are the start block (maybe empty),
    and that of its first value above tol_zero, zero-padded, is the warm
    vector.  Returns both, on coefficients, and the coarse solve's SolveStats.
    """
    g = spec.grid
    half = GridSpec(d=g.d, N=g.N // 2, L=g.L)

    def sampled(f):
        return None if f is None else type(f)(half, f.data[(...,) + (slice(None, None, 2),) * g.d])

    coarse = replace(spec, grid=half, A=sampled(spec.A), V=sampled(spec.V))
    op, log = _plane_wave_operator(coarse), []
    vals, vecs, blocks = _bracketed(op, _kinetic_inverse(coarse), coarse.dim,
                                    _predicted_block(coarse), rng,
                                    COARSE_LOBPCG_TOL * _operator_scale(coarse), tol_zero, log)
    m = np.count_nonzero(vals <= tol_zero)  # vals ascend: the kept, then the first above
    padded = _columns(_zero_pad(_block(coarse, vecs[:, :m + 1]), g.N, g.d))
    stats = SolveStats(dim=coarse.dim, blocks=tuple(blocks), **_tally(log, op))
    return padded[:, :m], padded[:, m], stats


def _zero_pad(c: np.ndarray, N: int, d: int) -> np.ndarray:
    """Unitary coefficients on N per axis of the field whose coefficients on N / 2 are c.

    The last d axes of c hold the wavenumbers -N/4 .. N/4 - 1 of the half
    grid in numpy's fft order; every other wavenumber of the N grid is 0.
    The factor 2^(d/2) keeps norm="ortho" coefficients of the same samples.
    """
    n = c.shape[-1]
    at = np.fft.fftfreq(n, 1.0 / n).astype(int) % N
    out = np.zeros(c.shape[:-d] + (N,) * d, dtype=np.complex128)
    out[(...,) + np.ix_(*[at] * d)] = c * 2.0 ** (d / 2)
    return out


def _plane_wave_operator(spec: HamiltonianSpec):
    """spec's operator on columns of unitary plane-wave coefficients, by _column_blocks.

    op.matvecs counts the columns it applied.  Any (dim, m) array goes in,
    lobpcg's integer identity included.
    """

    def op(X):
        op.matvecs += X.shape[1]
        out = np.empty(X.shape, dtype=np.complex128)
        for at, (C,) in _column_blocks(spec, X):
            out[:, at] = _columns(apply_fourier(spec, C))
        return out

    op.matvecs = 0
    return op


def _kinetic_inverse(spec: HamiltonianSpec):
    """1 / (h^2 (|k|^2 + k_1^2)) on columns of plane-wave coefficients, elementwise.

    k_1 = 2 pi / L is the smallest nonzero lattice wavenumber, so this
    inverts the kinetic energy within a factor of 2 on every nonconstant
    mode, regularized at k = 0: no mode the bound states are made of is
    left unpreconditioned.  The preconditioner of LOBPCG and of sternheimer.
    """
    g = spec.grid
    pre = np.tile((1.0 / (spec.h**2 * (g.k2 + (2 * np.pi / g.L) ** 2))).ravel(), spec.spin)
    column = pre[:, None]
    return lambda R: column * R


def _coefficients(spec: HamiltonianSpec, cols: np.ndarray) -> np.ndarray:
    """Sample columns (dim, m) -> their unitary plane-wave coefficients (dim, m)."""
    return _columns(_fft(_block(spec, cols), spec.grid.d, ORTHO))


def _samples(spec: HamiltonianSpec, coef: np.ndarray) -> np.ndarray:
    """Inverse of _coefficients."""
    return _columns(_ifft(_block(spec, coef), spec.grid.d, ORTHO))


def _lobpcg_lowest(op, pre, dim: int, k: int, rng, tol: float, log: list, start=None, Y=None):
    """Lowest-k block solve from start's columns plus random ones, sorted ascending.

    With Y, the solve is on the orthogonal complement of Y's orthonormal
    columns.  tol is lobpcg's absolute residual target.  Appends (iterations, warned)
    to log, warned being True when lobpcg ended above its target: its
    UserWarnings are recorded rather than shown; other warnings pass on.
    """
    import scipy.sparse.linalg as spla

    X = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    if start is not None:
        X[:, :start.shape[1]] = start
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        out = spla.lobpcg(op, X, M=pre, Y=Y, largest=False, tol=max(tol, 1e-12),
                          maxiter=400, retLambdaHistory=True)
    for w in caught:
        if not issubclass(w.category, UserWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    # a block too large for the problem is solved densely: no history, no warning kept
    iterative = len(out) == 3
    vals, vecs = out[0], out[1]
    warned = iterative and any(issubclass(w.category, UserWarning) for w in caught)
    log.append((len(out[2]) - 1 if iterative else 0, warned))
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


# ---------------------------------------------------------------------------
# Sternheimer solves


# CG target relative to a column's residual at x = 0: the recurrence stalls near 2e-14
# on some problems, and 1e-13 puts the psi-outside gradient within 1e-13 of the full sum.
STERNHEIMER_RTOL = 1e-13
STERNHEIMER_MAXITER = 500  # 20-75 iterations on the tested problems


def sternheimer(ns: NegativeSpectrum, rhs: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """X with (H - shifts_j) x_j = Q rhs_j and x_j in range Q, for every column j.

    H is ns.spec's operator and Q = I - U U^H w the projector off ns's kept
    block U, so x_j = sum over the eigenpairs k above the block of
    u_k <u_k, rhs_j> / (lam_k - shift_j): the Sternheimer equation, positive
    definite on range Q for shift_j <= 0.  Preconditioned conjugate
    gradients (preconditioner Q _kinetic_inverse Q) on unitary plane-wave
    coefficients, every unconverged column in one block; a column stops at
    STERNHEIMER_RTOL times its residual at x = 0, and EigenFailure is raised
    if one has not within STERNHEIMER_MAXITER steps.  rhs and X are samples.
    The CG runs on apply_fourier, which takes no psi: ValueError for a
    localized spectrum, whose ker psi pairs Q could not remove anyway.
    """
    if ns.spec.psi is not None:
        raise ValueError("sternheimer: psi is set; the operator is solved on supp psi only "
                         "and ker psi's pairs are not stored")
    spec, w = ns.spec, ns.spec.grid.weight
    H, M = _plane_wave_operator(spec), _kinetic_inverse(spec)
    U = _coefficients(spec, ns.vectors)

    def project(X):
        return X - U @ (w * (U.conj().T @ X))

    def dot(X, Y):
        return np.real(np.sum(X.conj() * Y, axis=0))

    R = project(_coefficients(spec, rhs))
    X, P, rz = np.zeros_like(R), np.zeros_like(R), np.ones(R.shape[1])
    target = STERNHEIMER_RTOL * np.linalg.norm(R, axis=0)
    active = np.flatnonzero(np.linalg.norm(R, axis=0) > target)
    for _ in range(STERNHEIMER_MAXITER):
        if active.size == 0:
            break
        Z = project(M(R[:, active]))
        rz_new = dot(R[:, active], Z)
        P[:, active] = Z + (rz_new / rz[active]) * P[:, active]  # P = Z on the first step
        rz[active] = rz_new
        p = P[:, active]
        Ap = project(H(p) - shifts[active] * p)
        alpha = rz_new / dot(p, Ap)
        X[:, active] += alpha * p
        R[:, active] -= alpha * Ap
        active = active[np.linalg.norm(R[:, active], axis=0) > target[active]]
    if active.size:
        raise EigenFailure(f"Sternheimer solve: {active.size} of {R.shape[1]} columns above "
                           f"rtol {STERNHEIMER_RTOL:.0e} after {STERNHEIMER_MAXITER} steps")
    return _samples(spec, X)


# ---------------------------------------------------------------------------
# currents


def current(ns: NegativeSpectrum) -> VectorField:
    """Fermi-gas current density of ns's eigenvectors, driving the Maxwell equation.

    Schrodinger: J = -Re sum_j conj(w_j) (D+A) w_j; Pauli routes the momentum
    through sigma(sigma.(D+A)), which adds the spin current.  w_j = psi u_j:
    the first variation of tr[psi T(A) psi]_- is <psi u_j, dT psi u_j>, and
    w_j = u_j without a cutoff.  ker psi's pairs, with w_j = 0, are not
    stored and add nothing.
    """
    spec, g = ns.spec, ns.spec.grid
    J = np.zeros((g.d,) + g.shape)
    for _, (U,) in _column_blocks(spec, ns.vectors):
        if spec.psi is not None:
            U = spec.psi.data * U
        J -= np.real(_current_form(spec, U, U))
    return VectorField(g, J)
