"""Weyl terms, convergence studies, and error-exponent fits."""

import numpy as np
import pytest

from fermifield.builders import bump_potential, constant_potential
from fermifield.grid import GridSpec, ScalarField
from fermifield.operators import HamiltonianSpec
from fermifield.weyl import (
    FitRejected,
    WeylReport,
    convergence_study,
    fit_error_exponent,
    momentum_constant,
    weyl_term,
)


def test_momentum_constant_closed_forms():
    # int [p^2 - 1]_- dp over R^d: -4/3, -pi/2 ... from the shell integral
    assert momentum_constant(1) == pytest.approx(4.0 / 3.0)
    assert momentum_constant(2) == pytest.approx(np.pi / 2.0)
    assert momentum_constant(3) == pytest.approx(8.0 * np.pi / 15.0)


def test_weyl_closed_form_3d_spin2():
    g = GridSpec(d=3, N=8, L=1.0)
    val = weyl_term(None, constant_potential(g, 1.0), h=1.0, spin=2)
    assert val == pytest.approx(-2.0 / (15.0 * np.pi**2), rel=1e-12)


def test_weyl_spin1_is_half_of_spin2():
    g = GridSpec(d=3, N=8, L=1.0)
    v1 = weyl_term(None, constant_potential(g, 1.0), h=1.0, spin=1)
    v2 = weyl_term(None, constant_potential(g, 1.0), h=1.0, spin=2)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-14)


def test_weyl_h_scaling():
    g = GridSpec(d=2, N=8, L=1.0)
    V = constant_potential(g, 1.0)
    assert weyl_term(None, V, h=0.5) == pytest.approx(4.0 * weyl_term(None, V, h=1.0))


def test_weyl_negative_potential_contributes_nothing():
    g = GridSpec(d=1, N=16, L=2.0)
    assert weyl_term(None, constant_potential(g, -3.0), h=0.3) == 0.0


def test_weyl_weight_localizes():
    g = GridSpec(d=1, N=64, L=2.0)
    V = constant_potential(g, 1.0)
    left = ScalarField(g, (g.axis < g.L / 2).astype(float))
    full = weyl_term(None, V, h=0.2)
    half = weyl_term(left, V, h=0.2)
    assert half == pytest.approx(0.5 * full, rel=1e-12)


def test_weyl_rejects_bad_h(grid1d):
    with pytest.raises(ValueError):
        weyl_term(None, constant_potential(grid1d, 1.0), h=0.0)


def test_convergence_study_1d_is_monotone():
    def problem(h, double=False):
        g = GridSpec(d=1, N=128 if double else 64, L=4.0)
        return HamiltonianSpec(grid=g, h=h,
                               V=bump_potential(g, amplitude=12.0, radius=1.2))

    reports, resolved = convergence_study(problem, [0.8, 0.4, 0.2, 0.1])
    assert all(resolved)
    errs = [r.rel_err for r in reports]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    slope, stderr, dropped = fit_error_exponent(reports)
    assert dropped == 0
    assert 1.0 <= slope <= 2.5


def test_fit_error_exponent_recovers_synthetic_slope():
    hs = [0.8, 0.4, 0.2, 0.1, 0.05]
    reports = [
        WeylReport(h=h, N=64, quantum=-(1.0 + h**1.7) / h, weyl=-1.0 / h,
                   certificate=0.0)
        for h in hs
    ]
    slope, stderr, dropped = fit_error_exponent(reports)
    assert slope == pytest.approx(1.7, abs=1e-10)
    assert dropped == 0


def test_fit_error_exponent_drops_unresolved_head():
    # corrupt the largest-h point; the fit must drop it, not die
    reports = [
        WeylReport(h=h, N=64, quantum=-(1.0 + h**2) / h, weyl=-1.0 / h,
                   certificate=0.0)
        for h in [0.4, 0.2, 0.1, 0.05]
    ]
    bad = WeylReport(h=0.8, N=64, quantum=-1.0001 / 0.8, weyl=-1.0 / 0.8,
                     certificate=0.0)
    slope, stderr, dropped = fit_error_exponent([bad] + reports)
    assert dropped == 1
    assert slope == pytest.approx(2.0, abs=1e-8)


def test_fit_error_exponent_rejects_noise():
    rng = np.random.default_rng(0)
    reports = [
        WeylReport(h=h, N=64, quantum=-1.0 / h * (1 + 0.1 * rng.standard_normal()),
                   weyl=-1.0 / h, certificate=0.0)
        for h in [0.8, 0.4, 0.2, 0.1, 0.05, 0.025]
    ]
    with pytest.raises(FitRejected):
        fit_error_exponent(reports)
