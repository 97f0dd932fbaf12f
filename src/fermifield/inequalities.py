"""Checkers for the standalone trace and field-energy inequalities.

Each checker computes its left-hand side with a dense small-grid oracle
(exact up to roundoff, never an iterative estimate) and reports lhs, the
itemized right-hand side, and their ratio.  Pass criteria are either sign
conditions or ratio bounds against empirical envelopes; universal constants
that are not pinned analytically are treated as measured envelopes with
stability criteria rather than asserted absolute values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, field_energy_curl, gradient, jacobian
from .operators import DENSE_LIMIT, PAULI, HamiltonianSpec
from .spectral import negative_spectrum


@dataclass(frozen=True)
class CheckReport:
    name: str
    params: dict
    lhs: float
    rhs_terms: dict
    passed: bool
    notes: str = ""

    @property
    def rhs(self) -> float:
        return float(sum(self.rhs_terms.values()))

    @property
    def ratio(self) -> float:
        r = self.rhs
        if r == 0.0:
            return 0.0 if self.lhs == 0.0 else math.inf
        return self.lhs / r

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs_terms": self.rhs_terms,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "passed": bool(self.passed),
            "notes": self.notes,
        }
        return json.dumps(payload, sort_keys=True)


def write_jsonl(reports, path) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(rep.to_json() + "\n")


# ---------------------------------------------------------------------------
# Lieb-Thirring with self-generated field (d = 3)
# ---------------------------------------------------------------------------


def check_lieb_thirring(
    V: ScalarField,
    A: VectorField | None,
    h: float,
    flavor: str = PAULI,
    digest: dict | None = None,
) -> CheckReport:
    """|sum of negative eigenvalues| against the magnetic bound.

    rhs = h^-3 int [V]_+^{5/2}  +  (h^-2 int B^2)^{3/4} (int [V]_+^4)^{1/4}
    with unit constants.  The ratio is only recorded: the envelope constant
    is measured across a corpus of draws (check-lt's lt_envelope report).
    """
    g = V.grid
    if g.d != 3:
        raise ValueError("the magnetic Lieb-Thirring bound is three-dimensional")
    spec = HamiltonianSpec(grid=g, h=h, flavor=flavor, A=A, V=V)
    ns = negative_spectrum(spec)
    lhs = abs(ns.sum)

    vplus = np.maximum(V.data, 0.0)
    int_v52 = float(np.sum(vplus ** 2.5) * g.weight)
    int_v4 = float(np.sum(vplus ** 4) * g.weight)
    int_b2 = field_energy_curl(A) if A is not None else 0.0

    term_pot = h ** -3 * int_v52
    term_field = (h ** -2 * int_b2) ** 0.75 * int_v4 ** 0.25
    rhs_terms = {"potential": term_pot, "field": term_field}
    rhs = term_pot + term_field
    passed = math.isfinite(lhs) and (lhs == 0.0 or rhs > 0.0)
    params = {"h": h, "flavor": flavor}
    if digest:
        params.update(digest)
    return CheckReport(
        name="lieb_thirring",
        params=params,
        lhs=lhs,
        rhs_terms=rhs_terms,
        passed=passed,
        notes=f"n_negative={int(np.sum(ns.eigenvalues < 0))}",
    )


# ---------------------------------------------------------------------------
# Commutator trace bound (disjoint momentum supports)
# ---------------------------------------------------------------------------


def _multiplier_values(profile, grid: GridSpec, scale: float) -> np.ndarray:
    """Evaluate a radial momentum profile on the scaled dual lattice."""
    return np.asarray(profile(scale * np.sqrt(grid.k2)), dtype=float)


def _sandwich_trace(fv: np.ndarray, power: np.ndarray, gv: np.ndarray) -> float:
    """sum_{m,n} f_m^2 g_n power[m - n] (cyclic), all three on the dual lattice.

    tr[f(D) a g(D) a f(D)] in Fourier space, power = |a_hat|^2: f^2 dotted
    with the cyclic correlation of g against the power.
    """
    conv = np.real(np.fft.ifftn(np.fft.fftn(power) * np.fft.fftn(gv)))
    return float(np.sum(fv ** 2 * conv))


def _grad_norm_l1(profile, pmax: float, d: int) -> float:
    """int |grad f| dp over the momentum box [-pmax, pmax]^d, 512 points an axis."""
    axes = [np.linspace(-pmax, pmax, 512) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(m ** 2 for m in mesh))
    vals = np.asarray(profile(r), dtype=float)
    dp = axes[0][1] - axes[0][0]
    grads = np.gradient(vals, dp)
    if d == 1:
        grads = [grads]
    mag = np.sqrt(sum(gr ** 2 for gr in grads))
    return float(np.sum(mag) * dp ** d)


def check_comm2(f, g, a, h: float, digest: dict | None = None) -> CheckReport:
    """tr[f(D) a g(D) a f(D)] <= h^-2 |f|_inf |g|_inf |grad f|_1 |a|_2 |grad a|_2.

    f and g are radial momentum profiles with f*g = 0 on the scaled dual
    lattice (checked).  a may be a ScalarField (the lemma's statement) or a
    VectorField (the componentwise use); the note records which.
    """
    grid = a.grid
    if grid.size > DENSE_LIMIT:
        raise ValueError("comm2 checker requires a dense-size grid")
    fv = _multiplier_values(f, grid, h)
    gv = _multiplier_values(g, grid, h)
    if float(np.max(np.abs(fv * gv))) > 1e-14:
        raise ValueError("momentum supports of f and g overlap on the dual lattice")

    # the power of a vector a is summed over its components
    ahat = np.fft.fftn(a.data, axes=tuple(range(-grid.d, 0))) / grid.size
    pw = np.sum(np.abs(ahat) ** 2, axis=tuple(range(a.data.ndim - grid.d)))
    lhs = _sandwich_trace(fv, pw, gv)
    if lhs < -1e-12:
        raise AssertionError("comm2 trace must be nonnegative")
    lhs = max(lhs, 0.0)

    norm_a = a.norm()
    grad_a = math.sqrt(float(np.sum(np.abs(jacobian(a.data, grid)) ** 2) * grid.weight))
    which = "scalar statement" if isinstance(a, ScalarField) else "componentwise vector use"

    pmax = h * math.sqrt(float(np.max(grid.k2))) * 1.25 + 1e-9
    rhs = (
        h ** -2
        * float(np.max(np.abs(fv)))
        * float(np.max(np.abs(gv)))
        * _grad_norm_l1(f, pmax, grid.d)
        * norm_a
        * grad_a
    )
    params = {"h": h, "d": grid.d, "N": grid.N}
    if digest:
        params.update(digest)
    return CheckReport(
        name="comm2",
        params=params,
        lhs=lhs,
        rhs_terms={"bound": rhs},
        passed=lhs <= rhs + 1e-12,
        notes=which,
    )


# ---------------------------------------------------------------------------
# Hilbert-Schmidt momentum separation
# ---------------------------------------------------------------------------


def check_momentum_separation(
    f,
    g,
    eta0,
    ell: float,
    L: float,
    d_sep: float,
    N: int,
) -> CheckReport:
    """|f(-i ell grad) eta g(-i ell grad)|_HS with supports separated by d_sep, in d = 1.

    eta(x) = eta0(x / L) lives on a periodic box of side 4L; the HS norm is
    computed densely in Fourier space.  The reference scale recorded as rhs is
      (ell / (d_sep L))^3 (L / ell) |f|_2 |g|_2,
    so a super-cubic decay shows up as the ratio lhs/rhs shrinking along an
    ell-halving sweep.
    """
    if ell > L * d_sep:
        raise ValueError("need ell <= L * d_sep")
    box = 4.0 * L
    grid = GridSpec(d=1, N=N, L=box)
    kk = np.sqrt(grid.k2)
    fv = _multiplier_values(f, grid, ell)
    gv = _multiplier_values(g, grid, ell)

    fsupp = kk[np.abs(fv) > 0]
    gsupp = kk[np.abs(gv) > 0]
    if fsupp.size and gsupp.size:
        gap = float(np.min(np.abs(ell * fsupp[:, None] - ell * gsupp[None, :])))
        if gap < 0.5 * d_sep:
            raise ValueError("grid does not resolve the momentum separation")
    dk = 2.0 * math.pi / box
    if ell * dk > 0.5 * d_sep:
        raise ValueError("dual lattice too coarse for the separation scale")

    # eta centered in the box; the HS norm squared takes g^2
    eta = np.asarray(eta0(np.abs(grid.coords[0] - box / 2.0) / L), dtype=float)
    ehat = np.fft.fftn(eta) / grid.size
    lhs = math.sqrt(max(_sandwich_trace(fv, np.abs(ehat) ** 2, gv ** 2), 0.0))

    # L^2 norms of the profiles in the momentum variable u = ell k
    norm_f = math.sqrt(float(np.sum(fv ** 2)) * (ell * dk))
    norm_g = math.sqrt(float(np.sum(gv ** 2)) * (ell * dk))
    ref = (ell / (d_sep * L)) ** 3 * (L / ell) * norm_f * norm_g
    return CheckReport(
        name="momentum_separation",
        params={"ell": ell, "L": L, "d_sep": d_sep, "N": N, "dims": 1},
        lhs=lhs,
        rhs_terms={"cubic_reference": ref},
        passed=math.isfinite(lhs),
        notes="pass criterion lives in the ell-halving sweep",
    )


def separation_sweep(f, g, eta0, L, d_sep, N, halvings=3, ell0=None) -> CheckReport:
    """Halve ell and require faster-than-cubic decay of the HS norm."""
    ell0 = L * d_sep / 4.0 if ell0 is None else ell0
    ells, values = [], []
    for i in range(halvings + 1):
        ell = ell0 * 0.5 ** i
        rep = check_momentum_separation(f, g, eta0, ell, L, d_sep, N)
        ells.append(ell)
        values.append(rep.lhs)
    ratios = [values[i + 1] / values[i] for i in range(halvings) if values[i] > 0]
    passed = bool(ratios) and all(r <= 0.5 ** 3 for r in ratios)
    return CheckReport(
        name="separation_sweep",
        params={"L": L, "d_sep": d_sep, "N": N, "dims": 1, "ells": ells,
                "values": values},
        lhs=values[-1],
        rhs_terms={"first_value": values[0]},
        passed=passed,
        notes=f"halving ratios {['%.3e' % r for r in ratios]}",
    )


# ---------------------------------------------------------------------------
# Dirichlet energies of harmonic extensions (exterior vs truncated annulus)
# ---------------------------------------------------------------------------


def harmonic_energy_ratio(l: int, R: float) -> tuple[float, float]:
    """Per-mode energy ratio of the exterior minimizer over the annulus one.

    For boundary data in the degree-l spherical harmonic (l >= 1, so the
    average over the sphere vanishes), the harmonic minimizer on the annulus
    1 < r < R with a Neumann condition at R mixes r^l and r^{-l-1}; the
    unconstrained exterior minimizer is the pure decaying power.  The ratio
    of their Dirichlet energies is

        ratio = (1 + (l+1)/l * R^{-2l-1}) / (1 - R^{-2l-1})

    and is bounded by (1 - 3 R^{-3})^{-1} uniformly in l.
    """
    if l < 1:
        raise ValueError("need l >= 1 (mean-zero boundary data)")
    if R <= 1.0:
        raise ValueError("need R > 1")
    q = R ** (-2 * l - 1)
    ratio = (1.0 + (l + 1) / l * q) / (1.0 - q)
    bound = 1.0 / (1.0 - 3.0 * R ** -3)
    return ratio, bound


HARMONIC_RADII = (1.5, 2.0, 4.0, 10.0)  # outer radii R of the annulus 1 < r < R


def check_harmonic_ratio(l_max: int = 50) -> CheckReport:
    worst = 0.0
    ok = True
    for R in HARMONIC_RADII:
        bound = 1.0 / (1.0 - 3.0 * R ** -3)
        for l in range(1, l_max + 1):
            ratio, _ = harmonic_energy_ratio(l, R)
            ok &= 1.0 - 1e-14 <= ratio <= bound + 1e-14
            worst = max(worst, ratio / bound)
    return CheckReport(
        name="harmonic_ratio",
        params={"l_max": l_max, "R_values": list(HARMONIC_RADII)},
        lhs=worst,
        rhs_terms={"bound_fraction": 1.0},
        passed=ok,
        notes="ratio in [1, (1-3R^-3)^-1] across all modes",
    )


# ---------------------------------------------------------------------------
# Variational sandwich for the localized negative trace
# ---------------------------------------------------------------------------


SANDWICH_SLACK = 1e-10  # each side's slack, times max(|tr_inside|, |tr_outside|, 1)


def check_variational_sandwich(spec: HamiltonianSpec, psi: ScalarField) -> CheckReport:
    """tr[psi H psi]_- between tr psi^2 [H]_- and that plus h^2 tr (grad psi)^2 gamma.

    Both sides are computed on the dense path so the comparison is exact up
    to roundoff; the eigenpairs of psi H psi and of H are residual-checked
    as every negative spectrum's are.  The lower inequality is the
    variational principle; the upper one uses the IMS-style commutator
    remainder.
    """
    if spec.dim > DENSE_LIMIT:
        raise ValueError("sandwich checker requires the dense path")
    g = spec.grid
    inside = replace(spec, psi=psi)
    tr_inside = negative_spectrum(inside, tol_zero=0.0).sum

    outside = negative_spectrum(replace(spec, psi=None), tol_zero=0.0)
    gpsi2 = np.sum(np.abs(gradient(psi).data) ** 2, axis=0)
    tr_outside = float(outside.eigenvalues @ outside.expectations(psi.data ** 2))
    correction = spec.h ** 2 * float(np.sum(outside.expectations(gpsi2)))

    scale = max(abs(tr_inside), abs(tr_outside), 1.0)
    lower_ok = tr_inside >= tr_outside - SANDWICH_SLACK * scale
    upper_ok = tr_inside <= tr_outside + correction + SANDWICH_SLACK * scale
    return CheckReport(
        name="variational_sandwich",
        params={"h": spec.h, "d": g.d, "N": g.N, "flavor": spec.flavor},
        lhs=tr_inside,
        rhs_terms={"outside": tr_outside, "kink": correction},
        passed=bool(lower_ok and upper_ok),
        notes=f"lower_ok={lower_ok} upper_ok={upper_ok}",
    )
