"""
Total-energy functional over vector potentials and its projected-gradient
minimization.

Energies: trace part tr[psi (T_h(A) - V) psi]_- plus beta times a field
energy chosen by variant (full-torus curl energy, ball-restricted gradient
energy, or the psi-outside trace tr psi^2 [H]_- with the ball-gradient
field term).  The descent direction is the constrained gradient
2 beta (field part)' - 2 J_A, kept divergence-free and mean-zero by Leray
projection after every step; the factor 2 between the stationarity
condition beta curl B = J and the first variation was pinned by the
finite-difference identity (see tests).

The line search spends one eigensolve per trial, so its first trial is a
model step that is usually accepted: the minimizer of the field energy's
exact quadratic along -G on the first step (the projection is linear and
both field energies are quadratic forms), the Barzilai-Borwein step from
the last move's gradient change after that.  A rejected trial is replaced
by the quadratic interpolant's minimizer, within [0.1, 0.5] of it.

Each evaluated point keeps the spectrum its trace part read in
parts["spectrum"], for the gradient and the residual there.  For
psi-outside that is the negative spectrum of the operator without psi,
solved like every other; its gradient reaches the eigenpairs above the
kept block through Sternheimer solves (spectral.sternheimer) rather than
a full decomposition.  The variant-ordering check runs the R-independent
global-curl descent once, solves the start shared by it and every
ball-grad descent once, and solves each distinct psi-outside start once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (
    VectorField,
    ball_mask,
    div_rows,
    divfree_mean_zero as _project,
    field_energy_curl,
    field_energy_grad,
    jacobian,
)
from .operators import (
    HamiltonianSpec,
    _column_blocks,
    _current_form,
    dense_matrix,  # noqa: F401  unused here; benchmarks/spans.py traces it on this module
)
from .spectral import (
    NegativeSpectrum,
    current,
    negative_spectrum,
    sternheimer,
)

GLOBAL_CURL = "global-curl"
BALL_GRAD = "ball-grad"
PSI_OUTSIDE = "psi-outside"

KAPPA_J = 2.0  # variational normalization: d(trace)/dA in direction a = -2 int J.a
ARMIJO_C = 1e-4  # sufficient decrease: accept E(A - step G) <= E - ARMIJO_C step |G|^2
MAX_BACKTRACKS = 25  # trials per step before the line search fails


class NonSmoothPoint(RuntimeError):
    """Zero-band eigenvalue: the energy is not differentiable here."""


@dataclass(frozen=True)
class EnergyConfig:
    beta: float
    variant: str = GLOBAL_CURL
    R: float | None = None  # field-energy ball radius for localized variants

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.variant not in (GLOBAL_CURL, BALL_GRAD, PSI_OUTSIDE):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in (BALL_GRAD, PSI_OUTSIDE) and self.R is None:
            raise ValueError("localized variants need the ball radius R")

    def region(self, grid):
        """The field-energy ball, always centered in the box (None: whole torus)."""
        if self.variant == GLOBAL_CURL:
            return None
        return ball_mask(grid, (grid.L / 2,) * grid.d, self.R)


def _field_energy(A: VectorField, cfg: EnergyConfig) -> float:
    if cfg.variant == GLOBAL_CURL:
        return field_energy_curl(A)
    return field_energy_grad(A, cfg.region(A.grid))


def _trace(sA: HamiltonianSpec, cfg: EnergyConfig, seed: int,
           spectrum: NegativeSpectrum | None) -> tuple[float, NegativeSpectrum]:
    """The variant's trace part at sA and the spectrum it read: the one given, else solved.

    For psi-outside that is tr psi^2 [H]_- off the spectrum of the operator
    without psi.
    """
    if spectrum is not None and spectrum.spec.A is not sA.A:
        raise ValueError("spectrum was solved at a different vector potential")
    if cfg.variant != PSI_OUTSIDE:
        ns = negative_spectrum(sA, seed=seed) if spectrum is None else spectrum
        return ns.sum, ns
    if sA.psi is None:
        raise ValueError("psi-outside variant needs the localization cutoff")
    ns = negative_spectrum(replace(sA, psi=None), seed=seed) if spectrum is None else spectrum
    weights = ns.expectations(sA.psi.data ** 2)  # <u_j, psi^2 u_j>
    return float(np.minimum(ns.eigenvalues, 0.0) @ weights), ns


def total_energy(A: VectorField | None, spec: HamiltonianSpec, cfg: EnergyConfig,
                 seed: int = 0, spectrum: NegativeSpectrum | None = None):
    """(energy, parts dict) with trace and field contributions itemized.

    parts["spectrum"] is the NegativeSpectrum the trace part read, which the
    gradient and the residual at this A can reuse: that of spec.with_A(A),
    or for psi-outside that of the operator without psi.  spectrum: that
    NegativeSpectrum if already solved, as in energy_gradient.
    """
    tr, ns = _trace(spec.with_A(A), cfg, seed, spectrum)
    fe = _field_energy(A, cfg) if A is not None else 0.0
    total = tr + cfg.beta * fe
    parts = {
        "trace": tr,
        "field": fe,
        "beta_field": cfg.beta * fe,
        "zero_band": ns.zero_band,
        "spectrum": ns,
    }
    return total, parts


# ---------------------------------------------------------------------------
# gradients


def _field_gradient(A: VectorField, cfg: EnergyConfig) -> VectorField:
    """First variation of the field energy: d/dt at t=0 is <grad, a> * 1.

    Both field energies are int sum_ij M_ij J_ij in the Jacobian J_ij =
    d_i A_j, with M = J - J^T (global-curl, 1/2 |J - J^T|^2) or region J
    (ball-grad, region |J|^2), so the gradient is -2 sum_i d_i M_ij.
    """
    g = A.grid
    J = jacobian(A.data, g)
    M = J - np.swapaxes(J, 0, 1) if cfg.variant == GLOBAL_CURL else cfg.region(g) * J
    return VectorField(g, -2.0 * div_rows(M, g))


def _trace_gradient_psi_outside(spec: HamiltonianSpec, spectrum: NegativeSpectrum) -> VectorField:
    """Gradient of tr psi^2 [H]_- from the kept block and Sternheimer solves.

    First-order perturbation of sum_j min(lam_j, 0) <u_j, psi^2 u_j>,
    including the eigenvector response across the spectral gap at 0:

      dT = sum_{j<=0} w_j <u_j, dH u_j>
         + sum_{j<=0, k<=0, k!=j} Re[conj(c_kj) S_kj]
         + sum_{j<=0, k>0} 2 lam_j / (lam_j - lam_k) Re[conj(c_kj) S_kj]

    with c_kj = <u_k, dH u_j>, S_kj = <u_k, psi^2 u_j>, w_j = S_jj.  With
    W_kj the weight of Re[conj(c_kj)] and Y_j = sum_k W_kj u_k, the pair
    densities sum to Re[Pi(Y_j, u_j) + Pi(u_j, Y_j)] over j <= 0, Pi the
    current form.  The k above the kept block (lam_k > tol_zero) sum to
    -2 lam_j (H - lam_j)^-1 Q psi^2 u_j, Q the projector off the block,
    which spectral.sternheimer solves; spectrum: _trace's at spec's A.
    """
    g = spec.grid
    vals, vecs = spectrum.eigenvalues, spectrum.vectors
    m = int(np.count_nonzero(vals <= 0.0))  # sorted ascending
    psi2_u = np.tile(spec.psi.data.ravel() ** 2, spec.spin)[:, None] * vecs[:, :m]
    S = vecs.conj().T @ psi2_u * g.weight
    lam = vals[:m]
    above = vals[:, None] > 0.0
    denom = np.where(above, lam[None, :] - vals[:, None], 1.0)
    coupled = np.abs(S) >= 1e-14
    tiny = 1e-12 * np.abs(vals).max(initial=1.0)  # |lowest| or 1: the rest are below tol_zero
    if np.any(coupled & above & (np.abs(denom) < tiny)):
        raise NonSmoothPoint("degenerate crossing at the Fermi level")
    # k <= 0 pairs are counted once, from the larger index, with factor 2
    later = np.arange(len(vals))[:, None] > np.arange(m)[None, :]
    W = np.where(coupled, np.where(above, 2.0 * lam / denom, 2.0 * later) * S, 0.0)
    W[np.arange(m), np.arange(m)] = np.real(np.diag(S))
    Y = vecs @ W - (2.0 * lam) * sternheimer(spectrum, psi2_u, lam)
    bare, grad = spectrum.spec, np.zeros((g.d,) + g.shape)
    for _, (U_j, Y_j) in _column_blocks(bare, vecs[:, :m], Y):
        grad += np.real(_current_form(bare, Y_j, U_j) + _current_form(bare, U_j, Y_j))
    return VectorField(g, grad)


def _trace_gradient(sA: HamiltonianSpec, cfg: EnergyConfig,
                    ns: NegativeSpectrum) -> VectorField:
    """The variant's trace gradient at sA, ns the spectrum _trace read there."""
    if cfg.variant == PSI_OUTSIDE:
        return _trace_gradient_psi_outside(sA, ns)
    return (-KAPPA_J) * current(ns)


def energy_gradient(A: VectorField, spec: HamiltonianSpec, cfg: EnergyConfig,
                    seed: int = 0, spectrum: NegativeSpectrum | None = None) -> VectorField:
    """Unconstrained gradient field: <grad, a> = d/dt E(A + t a) at t = 0.

    NonSmoothPoint at a zero band of the traced operator (a degenerate
    crossing for psi-outside).  spectrum: total_energy's parts["spectrum"]
    at this A if already solved.
    """
    sA = spec.with_A(A)
    _, ns = _trace(sA, cfg, seed, spectrum)
    if cfg.variant != PSI_OUTSIDE and ns.zero_band:
        raise NonSmoothPoint("eigenvalue in the zero band; derivative undefined")
    return _trace_gradient(sA, cfg, ns) + cfg.beta * _field_gradient(A, cfg)


def el_residual(A: VectorField, spec: HamiltonianSpec, cfg: EnergyConfig,
                seed: int = 0, spectrum: NegativeSpectrum | None = None) -> float:
    """Normalized Maxwell residual: half the energy gradient over its scale.

    Half the first variation of the energy is lhs - J, with lhs half the
    field part's (beta curl B for global-curl) and J the variant's current
    (minus half the trace gradient), so this is ||lhs - J|| / max(||lhs||,
    ||J||) for each variant's own equation.  A zero band is not rejected:
    the trace gradient is read off the kept pairs there.  spectrum as in
    energy_gradient.
    """
    sA = spec.with_A(A)
    _, ns = _trace(sA, cfg, seed, spectrum)
    lhs = (0.5 * cfg.beta) * _field_gradient(A, cfg)
    half = lhs + 0.5 * _trace_gradient(sA, cfg, ns)
    scale = max(lhs.norm(), (lhs - half).norm(), 1e-300)
    return half.norm() / scale


# ---------------------------------------------------------------------------
# minimization


@dataclass(frozen=True)
class Schedule:
    max_iters: int = 50
    grad_tol: float = 1e-6  # on the constrained gradient norm, relative


@dataclass
class MinimizeReport:
    energies: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    trials: list = field(default_factory=list)  # energy evaluations per accepted step
    final_A: VectorField | None = None
    el_residual: float = np.nan
    termination: str = ""
    parts: dict = field(default_factory=dict)

    @property
    def energy(self) -> float:
        return self.energies[-1]


def _first_trial(G: VectorField, gnorm2: float, cfg: EnergyConfig, last) -> float:
    """First trial step along -G, G the projected gradient, gnorm2 = ||G||^2.

    last is (step, G_old) of the previous accepted step, whose move was
    s = -step G_old.  With y = G - G_old and <s, y> > 0 this is the
    Barzilai-Borwein step <s, y> / <y, y>, the inverse curvature that move
    measured, the trace part's included.  Otherwise it minimizes the field
    model E - alpha g + kappa g alpha^2 with kappa = beta fe(G) / g: exact
    for the field part, since the field energies are quadratic forms and
    the projection is linear, and taking the trace part's curvature as 0.
    1 when fe(G) = 0.
    """
    if last is not None:
        step, G_old = last
        y = G - G_old
        sy = -step * G_old.inner(y)
        if sy > 0.0:
            return sy / y.inner(y)
    kappa = cfg.beta * _field_energy(G, cfg) / gnorm2
    return 0.5 / kappa if kappa > 0.0 else 1.0


def _backtrack(step: float, E: float, Et: float, gnorm2: float) -> float:
    """Next trial after step failed Armijo with energy Et.

    The minimizer of the quadratic through E, its slope -gnorm2 and Et,
    kept within [0.1, 0.5] step; half the step when that quadratic has no
    positive curvature.
    """
    denom = 2.0 * (Et - E + step * gnorm2)
    if denom <= 0.0:
        return 0.5 * step
    return float(np.clip(gnorm2 * step**2 / denom, 0.1 * step, 0.5 * step))


def _start(A0: VectorField | None, grid) -> VectorField:
    """The descent's start point: A0 projected, or the zero field."""
    return _project(A0) if A0 is not None else VectorField.zero(grid)


def minimize(A0: VectorField | None, spec: HamiltonianSpec, cfg: EnergyConfig,
             schedule: Schedule | None = None, seed: int = 0,
             spectrum: NegativeSpectrum | None = None) -> MinimizeReport:
    """Projected gradient descent with a model-step Armijo line search.

    Each step's first trial is _first_trial's model step, and a trial that
    fails Armijo is replaced by _backtrack's.  Every iterate is
    Leray-projected and mean-zero, and the accepted trial's spectrum
    serves the next gradient.

    spectrum: the start point's spectrum if already solved, as in
    energy_gradient.  It was solved at A0, so the descent then starts at A0
    itself, which must already be a start point (_start), not at A0
    projected once more.

    The energy trace is non-increasing by construction; termination is by
    gradient tolerance, iteration budget, a zero-band non-smooth point, or
    MAX_BACKTRACKS failed trials.
    """
    if schedule is None:
        schedule = Schedule()
    A = A0 if spectrum is not None else _start(A0, spec.grid)
    rep = MinimizeReport()
    E, parts = total_energy(A, spec, cfg, seed=seed, spectrum=spectrum)
    rep.energies.append(E)
    scale = max(abs(E), 1e-12)
    last = None  # (step, projected gradient) of the last accepted step
    termination = "max_iters"

    for _ in range(schedule.max_iters):
        try:
            grad = energy_gradient(A, spec, cfg, seed=seed, spectrum=parts["spectrum"])
        except NonSmoothPoint:
            termination = "non-smooth point"
            break
        G = _project(grad)
        gnorm2 = G.inner(G)
        if np.sqrt(gnorm2) <= schedule.grad_tol * scale:
            termination = "gradient tolerance"
            break
        step = _first_trial(G, gnorm2, cfg, last)
        accepted = False
        for trial_no in range(1, MAX_BACKTRACKS + 1):
            trial = _project(A - step * G)
            Et, parts_t = total_energy(trial, spec, cfg, seed=seed)
            if Et <= E - ARMIJO_C * step * gnorm2:
                A, E, parts, last = trial, Et, parts_t, (step, G)
                rep.energies.append(E)
                rep.steps.append(step)
                rep.trials.append(trial_no)
                accepted = True
                break
            step = _backtrack(step, E, Et, gnorm2)
        if not accepted:
            termination = (
                "non-smooth point" if parts.get("zero_band") else "line-search failure"
            )
            break

    rep.final_A = A
    rep.termination = termination
    # the report keeps no spectrum: its eigenvectors would outlive the descent
    try:
        rep.el_residual = el_residual(A, spec, cfg, seed=seed, spectrum=parts.pop("spectrum"))
    except NonSmoothPoint:
        pass  # no first variation here, so the residual stays NaN
    rep.parts = parts
    return rep


# ---------------------------------------------------------------------------
# variant ordering (Lemma-style comparison of localized energies)


def ordering_radii(r: float, radii) -> list:
    """radii as floats; ValueError unless the hypothesis 0 < r <= R/2 holds for every R."""
    if not radii or not all(0 < r <= R / 2 for R in radii):
        raise ValueError(f"hypothesis requires 0 < r <= R/2 for every R; r={r}, radii={radii}")
    return [float(R) for R in radii]


def variant_ordering_check(spec: HamiltonianSpec, r: float, radii, beta: float,
                           A0: VectorField | None = None,
                           schedule: Schedule | None = None, seed: int = 0) -> list:
    """Minimize under each variant and report the energy orderings, one row per R.

    For each field-energy ball radius R in radii a row holds the achieved
    energies E_prime (psi outside), E_ball (ball-grad) and E_global
    (full-space curl), the measured beta-inflation factor, and an
    'ordering_ok' flag up to optimizer tolerance.  E_ball is the lower of
    the ball-grad descent's end and the ball energy at the global-curl end,
    and E_prime <= E_ball holds with no tolerance: the psi-outside descent
    starts at whichever of the two fields gave E_ball (the pointwise
    inequality tr psi^2 [H]_- <= tr [psi H psi]_- holds for every A).

    Each distinct operator is solved once: the global-curl descent does not
    depend on R and runs once, and it and every ball-grad descent start at
    the same field, where both trace psi (T_h(A) - V) psi, so that start is
    solved once for all of them.  Rows whose psi-outside descents start at
    the same field share that start's solve.  Every radius is checked
    before any solve.
    """
    radii = ordering_radii(r, radii)
    if spec.psi is None:
        from .builders import cutoff_ball

        spec = replace(spec, psi=cutoff_ball(spec.grid, r))

    A = _start(A0, spec.grid)
    start = negative_spectrum(spec.with_A(A), seed=seed)
    cfg_global = EnergyConfig(beta=beta, variant=GLOBAL_CURL)
    rep_global = minimize(A, spec, cfg_global, schedule, seed=seed, spectrum=start)
    tol_opt = 1e-6 * max(abs(rep_global.energies[0]), 1.0)
    # measured inflation: how much of the global minimizer's gradient energy
    # the ball misses; 1 + this plays the role of the (1 + C0 (r/R)^3) factor
    probe = rep_global.final_A
    full = field_energy_grad(probe)

    rows, prime_start = [], None
    for R in radii:
        cfg_ball = EnergyConfig(beta=beta, variant=BALL_GRAD, R=R)
        rep_ball = minimize(A, spec, cfg_ball, schedule, seed=seed, spectrum=start)
        # pointwise certification: at any divergence-free A the ball energy is
        # <= the global one; both variants trace the same operator, so the
        # global run's final trace is the ball energy's trace part there
        e_ball_at_global = (rep_global.parts["trace"]
                            + beta * _field_energy(probe, cfg_ball))
        e_ball = min(rep_ball.energy, e_ball_at_global)
        # the psi-outside descent starts where E_ball was reached, so its
        # energy is already certified against the psi-squared trace there
        A_e_ball = rep_ball.final_A if rep_ball.energy <= e_ball_at_global else probe
        cfg_prime = EnergyConfig(beta=beta, variant=PSI_OUTSIDE, R=R)
        if prime_start is None or prime_start.spec.A is not A_e_ball:
            _, prime_start = _trace(spec.with_A(A_e_ball), cfg_prime, seed, None)
        rep_prime = minimize(A_e_ball, spec, cfg_prime, schedule, seed=seed, spectrum=prime_start)
        e_prime = rep_prime.energy

        inside = field_energy_grad(probe, cfg_ball.region(spec.grid))
        inflation = full / inside if inside > 1e-14 else 1.0

        rows.append({
            "E_prime": e_prime,
            "E_ball": e_ball,
            "E_global": rep_global.energy,
            "tol_opt": tol_opt,
            "inflation": inflation,
            "ordering_ok": (
                e_prime <= e_ball + tol_opt
                and e_ball <= rep_global.energy + tol_opt
            ),
            "reports": {"global": rep_global, "ball": rep_ball, "prime": rep_prime},
        })
    return rows
