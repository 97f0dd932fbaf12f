"""
Closed-form semiclassical (Weyl) functionals and convergence-exponent fits.

The momentum integral is always evaluated analytically,
int [p^2 - V]_- dp = -c_d [V]_+^{1+d/2} with c_d = sigma_{d-1} * 2/(d(d+2)),
so the Weyl term is exactly -spin (2 pi h)^{-d} c_d int w [V]_+^{1+d/2}.
A vector potential added inside (p + A(q))^2 drops out by translating p,
so no A argument appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField


def momentum_constant(d: int) -> float:
    """c_d with int_{R^d} [p^2 - 1]_- dp = -c_d (unit-ball shell integral)."""
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    return surface * 2.0 / (d * (d + 2))


def weyl_term(w: ScalarField | None, V: ScalarField, h: float, spin: int = 1) -> float:
    """Phase-space value spin (2 pi h)^{-d} iint w(q) [p^2 - V(q)]_- dp dq."""
    if h <= 0:
        raise ValueError("h must be positive")
    g = V.grid
    d = g.d
    integrand = np.maximum(V.data, 0.0) ** (1.0 + d / 2.0)
    if w is not None:
        if w.grid != g:
            raise ValueError("weight grid mismatch")
        integrand = integrand * w.data
    c_d = momentum_constant(d)
    return float(-spin * (2.0 * np.pi * h) ** (-d) * c_d * integrand.sum() * g.weight)


@dataclass(frozen=True)
class WeylReport:
    h: float
    N: int
    quantum: float
    weyl: float
    certificate: float  # relative change of the quantum value under N-doubling

    @property
    def abs_err(self) -> float:
        return abs(self.quantum - self.weyl)

    @property
    def rel_err(self) -> float:
        return self.abs_err / abs(self.weyl) if self.weyl != 0 else np.inf


def convergence_study(
    problem,
    h_list,
    certify: bool = True,
    certificate_threshold: float = 1e-3,
    seed: int = 0,
):
    """Quantum-vs-Weyl error across an h sweep: (reports, resolved).

    problem(h) and problem(h, double=True) return the HamiltonianSpec at h,
    the second on the N-doubled grid; the Weyl term is unweighted.  Each h gets a WeylReport; when certify is set, the quantum value is
    recomputed on the N-doubled grid and h values whose certificate exceeds
    the threshold are flagged (resolved=False), to be left out of a fit.
    """
    from .spectral import negative_spectrum

    reports, resolved = [], []
    for h in h_list:
        spec = problem(h)
        quantum = negative_spectrum(spec, seed=seed).sum
        cert = 0.0
        if certify:
            q2 = negative_spectrum(problem(h, double=True), seed=seed).sum
            cert = abs(q2 - quantum) / max(abs(q2), 1e-300)
        wv = weyl_term(None, spec.V, h, spin=spec.spin)
        reports.append(WeylReport(h=h, N=spec.grid.N, quantum=quantum, weyl=wv, certificate=cert))
        resolved.append((not certify) or cert <= certificate_threshold)
    return reports, resolved


class FitRejected(RuntimeError):
    """Error sequence unusable for an exponent fit (with a diagnostic)."""


MAX_DROP = 2  # largest-h points a fit may drop to reach a monotone error


def fit_error_exponent(reports: list[WeylReport]):
    """Least-squares slope s of log(rel_err) against log h.

    The relative error scales like h^s when |quantum - weyl| ~ h^{-d+s},
    since the Weyl term itself grows like h^{-d}.  The largest-h points may
    be dropped (up to MAX_DROP) until the retained errors decrease
    monotonically as h decreases; otherwise the fit is rejected with a
    'non-monotone error' diagnostic.
    """
    reports = sorted(reports, key=lambda r: -r.h)  # big h first
    errs = np.array([r.rel_err for r in reports])
    hs = np.array([r.h for r in reports])
    if np.any(errs <= 0):
        raise FitRejected("zero error encountered; nothing to fit")

    for drop in range(MAX_DROP + 1):
        e = errs[drop:]
        if len(e) < 3:
            break
        if np.all(np.diff(e) < 0):
            x = np.log(hs[drop:])
            y = np.log(e)
            slope, intercept = np.polyfit(x, y, 1)
            resid = y - (slope * x + intercept)
            n = len(x)
            denom = np.sum((x - x.mean()) ** 2)
            se = np.sqrt(np.sum(resid**2) / max(n - 2, 1) / denom)
            return float(slope), float(2.0 * se), drop
    raise FitRejected("non-monotone error: no admissible point subset")
