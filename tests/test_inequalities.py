"""Tests for the standalone trace and field-energy inequality checkers."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fermifield.builders import bump_potential, cutoff_ball, random_divfree_potential
from fermifield.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    ball_mask,
    field_energy_grad,
    gradient,
)
from fermifield.inequalities import (
    CheckReport,
    check_comm2,
    check_harmonic_ratio,
    check_lieb_thirring,
    check_momentum_separation,
    check_variational_sandwich,
    harmonic_energy_ratio,
    separation_sweep,
    write_jsonl,
)
from fermifield.operators import PAULI, SCHRODINGER, HamiltonianSpec
from fermifield.profiles import bump, plateau_bump, smooth_step


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_rhs_ratio_and_json_roundtrip(tmp_path):
    rep = CheckReport(
        name="demo",
        params={"h": 0.5},
        lhs=3.0,
        rhs_terms={"a": 2.0, "b": 4.0},
        passed=True,
        notes="x",
    )
    assert rep.rhs == 6.0
    assert rep.ratio == pytest.approx(0.5)
    payload = json.loads(rep.to_json())
    assert payload["name"] == "demo"
    assert payload["ratio"] == pytest.approx(0.5)
    assert payload["passed"] is True

    path = tmp_path / "reports.jsonl"
    write_jsonl([rep, rep], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["lhs"] == 3.0


def test_report_zero_rhs_ratio():
    rep = CheckReport("z", {}, 0.0, {"a": 0.0}, True)
    assert rep.ratio == 0.0
    rep2 = CheckReport("z", {}, 1.0, {"a": 0.0}, False)
    assert rep2.ratio == math.inf


# ---------------------------------------------------------------------------
# commutator trace bound
# ---------------------------------------------------------------------------


def _comm2_profiles(kmax, lo=0.25, hi=0.6):
    f = lambda p: plateau_bump(np.asarray(p) / (lo * kmax))
    g = lambda p: smooth_step((np.asarray(p) - hi * kmax) / (0.2 * kmax))
    return f, g


def _random_trig(grid, rng, terms=3):
    data = np.zeros(grid.shape)
    for _ in range(terms):
        kvec = rng.integers(-3, 4, size=grid.d)
        phase = sum(
            2 * math.pi * kvec[j] * grid.coords[j] / grid.L for j in range(grid.d)
        )
        data = data + float(rng.normal()) * np.cos(
            phase + float(rng.uniform(0, 2 * math.pi))
        )
    return ScalarField(grid, data)


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
def test_comm2_random_draws_pass(d, N):
    rng = np.random.default_rng(11)
    grid = GridSpec(d=d, N=N, L=2.0)
    for h in (1.0, 0.5):
        kmax = h * math.sqrt(float(np.max(np.real(grid.k2))))
        f, g = _comm2_profiles(kmax)
        a = _random_trig(grid, rng)
        rep = check_comm2(f, g, a, h)
        assert rep.passed
        assert rep.lhs >= 0.0
        assert rep.lhs <= rep.rhs + 1e-12


def test_comm2_vector_field_componentwise():
    grid = GridSpec(d=2, N=16, L=2.0)
    A = random_divfree_potential(grid, seed=3, amplitude=0.5)
    h = 0.7
    kmax = h * math.sqrt(float(np.max(np.real(grid.k2))))
    f, g = _comm2_profiles(kmax)
    rep = check_comm2(f, g, A, h)
    assert rep.passed
    assert "vector" in rep.notes


def test_comm2_rejects_overlapping_supports():
    grid = GridSpec(d=1, N=32, L=2.0)
    a = ScalarField(grid, np.cos(2 * math.pi * grid.coords[0] / grid.L))
    kmax = math.sqrt(float(np.max(np.real(grid.k2))))
    f = lambda p: plateau_bump(np.asarray(p) / kmax)
    g = lambda p: plateau_bump(np.asarray(p) / kmax)
    with pytest.raises(ValueError, match="overlap"):
        check_comm2(f, g, a, 1.0)


def test_comm2_rejects_large_grids():
    grid = GridSpec(d=3, N=32, L=2.0)
    a = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match="dense"):
        check_comm2(lambda p: p, lambda p: p, a, 1.0)


# ---------------------------------------------------------------------------
# momentum separation
# ---------------------------------------------------------------------------


def _sep_profiles(d_sep):
    f = lambda u: plateau_bump(np.asarray(u) / 0.5)
    g = lambda u: smooth_step((np.asarray(u) - (0.5 + d_sep)) / 0.5)
    eta0 = lambda s: bump(np.asarray(s) / 2.0)
    return f, g, eta0


def test_separation_sweep_supercubic():
    f, g, eta0 = _sep_profiles(1.0)
    rep = separation_sweep(f, g, eta0, 1.0, 1.0, 256, halvings=3, ell0=1.0 / 8.0)
    assert rep.passed
    # every halving of ell shrinks the HS norm by more than 2^3
    assert rep.lhs < rep.rhs_terms["first_value"] / 8.0 ** 3


def test_separation_single_check_fields():
    f, g, eta0 = _sep_profiles(1.0)
    rep = check_momentum_separation(f, g, eta0, 0.125, 1.0, 1.0, 256)
    assert rep.passed
    assert rep.lhs >= 0.0
    assert rep.rhs_terms["cubic_reference"] > 0.0


def test_separation_rejects_large_ell():
    f, g, eta0 = _sep_profiles(1.0)
    with pytest.raises(ValueError, match="ell"):
        check_momentum_separation(f, g, eta0, 2.0, 1.0, 1.0, 256)


# ---------------------------------------------------------------------------
# harmonic extension energies
# ---------------------------------------------------------------------------


def test_harmonic_ratio_closed_form():
    ratio, bound = harmonic_energy_ratio(1, 2.0)
    assert ratio == pytest.approx(10.0 / 7.0, rel=1e-14)
    assert bound == pytest.approx(1.0 / (1.0 - 3.0 / 8.0), rel=1e-14)


def test_harmonic_ratio_within_bound_all_modes():
    for R in (1.5, 2.0, 4.0, 10.0):
        bound = 1.0 / (1.0 - 3.0 * R ** -3)
        for l in range(1, 51):
            ratio, b = harmonic_energy_ratio(l, R)
            assert b == bound
            assert 1.0 - 1e-14 <= ratio <= bound + 1e-14


def test_harmonic_ratio_decreases_in_l_and_R():
    ratios_l = [harmonic_energy_ratio(l, 2.0)[0] for l in range(1, 10)]
    assert all(a > b for a, b in zip(ratios_l, ratios_l[1:]))
    ratios_R = [harmonic_energy_ratio(1, R)[0] for R in (1.5, 2.0, 4.0, 10.0)]
    assert all(a > b for a, b in zip(ratios_R, ratios_R[1:]))


def test_harmonic_ratio_validation():
    with pytest.raises(ValueError):
        harmonic_energy_ratio(0, 2.0)
    with pytest.raises(ValueError):
        harmonic_energy_ratio(1, 1.0)


def test_check_harmonic_ratio_report():
    rep = check_harmonic_ratio(l_max=20)
    assert rep.passed
    assert rep.lhs <= 1.0 + 1e-14


# ---------------------------------------------------------------------------
# Poincare on a ball
# ---------------------------------------------------------------------------


def _poincare_sides(A, center, rho):
    """int_B |A - mean_B A|^2 and rho^2 int_B |grad (A - mean_B A)|^2 on the ball B."""
    g, mask = A.grid, ball_mask(A.grid, center, rho)
    mean = np.sum(A.data * mask, axis=tuple(range(1, g.d + 1))) / np.count_nonzero(mask)
    a0 = A.data - mean.reshape((g.d,) + (1,) * g.d)
    lhs = float(np.sum(mask * np.sum(a0 ** 2, axis=0)) * g.weight)
    return lhs, rho ** 2 * field_energy_grad(VectorField(g, a0), mask)


def test_poincare_ball_measured_constant():
    grid = GridSpec(d=2, N=32, L=2.0)
    center = [grid.L / 2] * grid.d
    ratios = []
    for seed in range(5):
        A = random_divfree_potential(grid, seed=seed, amplitude=1.0)
        lhs, rhs = _poincare_sides(A, center, 0.6)
        assert lhs == 0.0 or rhs > 0.0
        if rhs > 0:
            ratios.append(lhs / rhs)
    c_emp = max(ratios)
    # re-check with the measured envelope supplied
    lhs, rhs = _poincare_sides(random_divfree_potential(grid, seed=0, amplitude=1.0), center, 0.6)
    assert lhs <= c_emp * rhs + 1e-12


# ---------------------------------------------------------------------------
# Lieb-Thirring with self-generated field
# ---------------------------------------------------------------------------


def test_lieb_thirring_small_case():
    grid = GridSpec(d=3, N=8, L=2.0)
    V = bump_potential(grid, amplitude=2.0, radius=0.7)
    A = random_divfree_potential(grid, seed=2, amplitude=0.3)
    rep = check_lieb_thirring(V, A, 1.0, flavor=PAULI)
    assert rep.passed
    assert rep.lhs >= 0.0
    assert rep.rhs_terms["potential"] > 0.0
    assert rep.rhs_terms["field"] > 0.0


def test_lieb_thirring_rejects_wrong_dimension():
    grid = GridSpec(d=2, N=8, L=2.0)
    V = bump_potential(grid, amplitude=2.0, radius=0.7)
    with pytest.raises(ValueError, match="three-dimensional"):
        check_lieb_thirring(V, None, 1.0)


# ---------------------------------------------------------------------------
# variational sandwich
# ---------------------------------------------------------------------------


def test_sandwich_1d_dense():
    grid = GridSpec(d=1, N=64, L=2.0)
    V = bump_potential(grid, amplitude=3.0, radius=0.7)
    psi = cutoff_ball(grid, 0.8)
    spec = HamiltonianSpec(grid=grid, h=0.5, flavor=SCHRODINGER, V=V)
    rep = check_variational_sandwich(spec, psi)
    assert rep.passed
    # the localized trace sits inside the stated bracket
    outside = rep.rhs_terms["outside"]
    kink = rep.rhs_terms["kink"]
    assert outside - 1e-8 <= rep.lhs <= outside + kink + 1e-8


def _sandwich_outside_loop(spec, psi):
    """Reference: a raw dense solve of H without psi, then one loop step per column."""
    from fermifield.operators import dense_matrix
    from fermifield.spectral import dense_eigh

    g = spec.grid
    vals, vecs = dense_eigh(dense_matrix(replace(spec, psi=None)), upper=0.0)
    vecs = vecs / math.sqrt(g.weight)
    psi2 = np.real(psi.data) ** 2
    gpsi2 = np.sum(np.abs(gradient(psi).data) ** 2, axis=0)
    outside = kink = 0.0
    for j in range(len(vals)):
        dens = np.sum(np.abs(vecs[:, j].reshape((spec.spin,) + g.shape)) ** 2, axis=0)
        outside += vals[j] * float(np.sum(psi2 * dens) * g.weight)
        kink += float(np.sum(gpsi2 * dens) * g.weight)
    return outside, spec.h ** 2 * kink


@pytest.mark.parametrize("d, h, amp", [(1, 0.2, 3.0), (3, 0.3, 10.0)])
def test_sandwich_reuses_one_certified_solve(d, h, amp, monkeypatch):
    import fermifield.spectral as spectral

    grid = GridSpec(d=d, N=64 if d == 1 else 8, L=2.0)
    A = random_divfree_potential(grid, seed=4, amplitude=0.3) if d == 3 else None
    spec = HamiltonianSpec(grid=grid, h=h, flavor=SCHRODINGER, A=A,
                           V=bump_potential(grid, amplitude=amp, radius=0.7))
    psi = cutoff_ball(grid, 0.8)
    checked = []
    check = spectral._residual_check

    def counted(sp, *args):
        checked.append(sp)
        return check(sp, *args)

    monkeypatch.setattr(spectral, "_residual_check", counted)
    rep = check_variational_sandwich(spec, psi)
    # two certified solves: psi H psi for the inside trace, H once for both outside terms
    assert len(checked) == 2 and checked[0].psi is psi and checked[0].A is A
    assert checked[1].psi is None and checked[1].A is A
    outside, kink = _sandwich_outside_loop(spec, psi)
    assert outside < 0.0 and kink > 0.0
    assert rep.rhs_terms["outside"] == pytest.approx(outside, rel=1e-13, abs=0.0)
    assert rep.rhs_terms["kink"] == pytest.approx(kink, rel=1e-13, abs=0.0)
    assert rep.passed


def test_sandwich_rejects_large_problems():
    grid = GridSpec(d=3, N=32, L=2.0)
    V = bump_potential(grid, amplitude=3.0, radius=0.7)
    psi = cutoff_ball(grid, 0.8)
    spec = HamiltonianSpec(grid=grid, h=0.5, flavor=SCHRODINGER, V=V)
    with pytest.raises(ValueError, match="dense"):
        check_variational_sandwich(spec, psi)
