"""Acceptance suite: the contract-level checks for the whole package.

Each test pins one advertised guarantee at its stated tolerance.  Oracles are
independent of the code under test: closed forms, exact lattice enumeration,
finite differences, or gauge/variational identities.  The field-optimization
and 3D eigenvalue sweeps run for minutes; everything else is seconds.
"""

import math
from itertools import product

import numpy as np
import pytest

from fermifield.builders import (
    bump_potential,
    constant_potential,
    flux_quantized_constant_b,
    random_divfree_potential,
    rough_divfree_potential,
)
from fermifield.cli import run_check_comm2, run_check_sandwich
from fermifield.field_opt import (
    GLOBAL_CURL,
    EnergyConfig,
    Schedule,
    energy_gradient,
    minimize,
    total_energy,
    variant_ordering_check,
)
from fermifield.grid import GridSpec, SpinorField, VectorField, divergence
from fermifield.inequalities import (
    check_lieb_thirring,
    harmonic_energy_ratio,
    separation_sweep,
)
from fermifield.multiscale import (
    DEFAULT_ALPHA,
    PartitionSpec,
    dyadic_build,
    partition_defect,
    partition_from_potential,
    smoothing_constants,
)
from fermifield.operators import PAULI, SCHRODINGER, HamiltonianSpec, apply
from fermifield.profiles import bump, plateau_bump, smooth_step
from fermifield.spectral import negative_spectrum
from fermifield.weyl import convergence_study, fit_error_exponent, weyl_term


# ---------------------------------------------------------------------------
# 1. Weyl closed form
# ---------------------------------------------------------------------------


def test_weyl_closed_form_unit_volume():
    grid = GridSpec(d=3, N=4, L=1.0)
    V = constant_potential(grid, 1.0)
    w2 = weyl_term(None, V, h=1.0, spin=2)
    assert w2 == pytest.approx(-2.0 / (15.0 * math.pi**2), rel=1e-12)
    w1 = weyl_term(None, V, h=1.0, spin=1)
    assert w1 == 0.5 * w2  # exact halving, not approximate


# ---------------------------------------------------------------------------
# 2. Exact-spectrum oracle on constant-V tori
# ---------------------------------------------------------------------------


def _free_lattice_sum(d, N, L, h, v0, spin):
    """Independent enumeration: eigenvalues h^2|k|^2 - v0 on the dual lattice."""
    freqs = 2.0 * math.pi * np.fft.fftfreq(N, d=L / N)
    total = 0.0
    for kvec in product(freqs, repeat=d):
        lam = h**2 * sum(k**2 for k in kvec) - v0
        total += min(lam, 0.0)
    return spin * total


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16), (3, 8)])
def test_constant_potential_matches_lattice_enumeration(d, N):
    grid = GridSpec(d=d, N=N, L=2.0)
    v0 = 5.0
    spec = HamiltonianSpec(grid=grid, h=1.0, flavor=SCHRODINGER,
                           V=constant_potential(grid, v0))
    got = negative_spectrum(spec).sum
    want = _free_lattice_sum(d, N, 2.0, 1.0, v0, spin=1)
    assert got == pytest.approx(want, rel=1e-10)


def test_constant_potential_pauli_doubles_lattice_enumeration():
    grid = GridSpec(d=3, N=8, L=2.0)
    v0 = 5.0
    spec = HamiltonianSpec(grid=grid, h=1.0, flavor=PAULI,
                           V=constant_potential(grid, v0))
    got = negative_spectrum(spec).sum
    want = _free_lattice_sum(3, 8, 2.0, 1.0, v0, spin=2)
    assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# 3. Weyl convergence under h-refinement
# ---------------------------------------------------------------------------


def test_weyl_convergence_1d_dense_certified():
    def problem(h, double=False):
        grid = GridSpec(d=1, N=128 if double else 64, L=4.0)
        V = bump_potential(grid, amplitude=12.0, radius=1.2)
        return HamiltonianSpec(grid=grid, h=h, flavor=SCHRODINGER, V=V)

    reports, resolved = convergence_study(
        problem, [0.8, 0.4, 0.2, 0.1], certify=True,
        certificate_threshold=1e-3,
    )
    assert all(resolved), "grid-doubling certificates must pass at every h"
    errs = [r.rel_err for r in reports]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    slope, _se, dropped = fit_error_exponent(reports)
    assert dropped == 0
    assert 1.0 <= slope <= 2.5, slope


def test_weyl_convergence_3d_iterative_sweep():
    grid = GridSpec(d=3, N=32, L=2.0)
    V = bump_potential(grid, amplitude=25.0, radius=0.7)
    errs = []
    for h in (0.8, 0.6, 0.45, 0.34):
        spec = HamiltonianSpec(grid=grid, h=h, flavor=SCHRODINGER, V=V)
        quantum = negative_spectrum(spec).sum
        weyl = weyl_term(None, V, h)
        errs.append(abs(quantum - weyl) / abs(weyl))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


# ---------------------------------------------------------------------------
# 4. Gauge invariance of the total energy
# ---------------------------------------------------------------------------


def test_gauge_invariance_constant_shift():
    rng = np.random.default_rng(42)
    grid = GridSpec(d=2, N=32, L=2.0)
    for draw in range(10):
        h = float(rng.uniform(0.4, 1.0))
        V = bump_potential(grid, amplitude=float(rng.uniform(1.0, 4.0)),
                           radius=float(rng.uniform(0.5, 0.8)))
        A = random_divfree_potential(grid, seed=100 + draw, amplitude=0.3)
        spec = HamiltonianSpec(grid=grid, h=h, flavor=SCHRODINGER, V=V)
        cfg = EnergyConfig(beta=float(rng.uniform(0.5, 3.0)), variant=GLOBAL_CURL)
        E1, _ = total_energy(A, spec, cfg)
        # admissible shift: each component a multiple of 2 pi h / L
        unit = 2.0 * math.pi * h / grid.L
        m = rng.integers(-2, 3, size=2)
        while not m.any():
            m = rng.integers(-2, 3, size=2)
        const = np.stack([np.full(grid.shape, m[j] * unit) for j in range(2)])
        E2, _ = total_energy(VectorField(grid, A.data + const), spec, cfg)
        assert abs(E2 - E1) <= 1e-10 * abs(E1), (draw, h, E1, E2)


# ---------------------------------------------------------------------------
# 5. Current/gradient identity against central finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flavor,d,N", [(SCHRODINGER, 2, 8), (PAULI, 3, 4)])
def test_directional_derivative_matches_finite_differences(flavor, d, N):
    grid = GridSpec(d=d, N=N, L=2.0)
    spec = HamiltonianSpec(grid=grid, h=0.6, flavor=flavor,
                           V=bump_potential(grid, amplitude=8.0, radius=0.7))
    cfg = EnergyConfig(beta=2.0, variant=GLOBAL_CURL)
    A = random_divfree_potential(grid, seed=2, kmax=1, amplitude=0.3)
    eps = 1e-5
    for j in range(5):
        a = random_divfree_potential(grid, seed=20 + j, kmax=1, amplitude=1.0)
        dd = energy_gradient(A, spec, cfg).inner(a).real
        Ep, _ = total_energy(A + eps * a, spec, cfg)
        Em, _ = total_energy(A - eps * a, spec, cfg)
        fd = (Ep - Em) / (2.0 * eps)
        assert dd == pytest.approx(fd, rel=1e-5), (flavor, j)


# ---------------------------------------------------------------------------
# 6. Minimization contracts and the flux-quantized zero mode
# ---------------------------------------------------------------------------


def test_minimize_contracts_and_beta_monotonicity():
    grid = GridSpec(d=3, N=8, L=2.0)
    spec = HamiltonianSpec(grid=grid, h=0.6, flavor=SCHRODINGER,
                           V=bump_potential(grid, amplitude=6.0, radius=0.7))
    reps = {}
    for beta in (1.5, 3.0):
        cfg = EnergyConfig(beta=beta, variant=GLOBAL_CURL)
        rep = minimize(None, spec, cfg, Schedule(max_iters=6))
        assert all(b <= a + 1e-12 for a, b in zip(rep.energies, rep.energies[1:]))
        assert divergence(rep.final_A).norm() <= 1e-10
        assert max(abs(rep.final_A.data[j].mean()) for j in range(3)) <= 1e-12
        base, _ = total_energy(None, spec, cfg)
        assert rep.energy <= base + 1e-10
        reps[beta] = rep
    # doubling beta cannot lower the achieved minimum; certify the beta=1.5
    # value by also evaluating the beta=3 minimizer at beta=1.5
    cfg_lo = EnergyConfig(beta=1.5, variant=GLOBAL_CURL)
    e_lo = min(reps[1.5].energy, total_energy(reps[3.0].final_A, spec, cfg_lo)[0])
    tol_opt = 1e-6 * max(abs(reps[1.5].energies[0]), 1.0)
    assert e_lo <= reps[3.0].energy + tol_opt


def test_pauli_zero_mode_on_flux_quantized_torus():
    grid = GridSpec(d=3, N=32, L=2.0)
    h = 0.5
    A, _Bz, phi = flux_quantized_constant_b(grid, h, n_flux=1)
    spec = HamiltonianSpec(grid=grid, h=h, flavor=PAULI, A=A)
    # the Aharonov-Casher zero mode: e^{phi/h} spin up, normalized
    data = np.zeros((2,) + grid.shape, dtype=complex)
    data[0] = np.exp(phi.data / h)
    u = SpinorField(grid, data)
    u = (1.0 / u.norm()) * u
    # the Pauli operator is a square, hence >= 0; for a normalized u the
    # residual norm ||H u|| bounds the distance of 0 to the spectrum
    residual = apply(spec, u).norm()
    assert residual <= 1e-8, residual


# ---------------------------------------------------------------------------
# 7. Localized-energy ordering and beta inflation
# ---------------------------------------------------------------------------


def test_localized_energy_ordering_and_inflation_trend():
    grid = GridSpec(d=3, N=8, L=4.0)
    spec = HamiltonianSpec(grid=grid, h=0.6, flavor=SCHRODINGER,
                           V=bump_potential(grid, amplitude=8.0, radius=1.2))
    A0 = random_divfree_potential(grid, seed=0, amplitude=0.2)
    r = 0.5
    inflations = []
    ratios = (2, 4, 8)
    rows = variant_ordering_check(spec, r, [r * ratio for ratio in ratios], beta=2.0, A0=A0,
                                  schedule=Schedule(max_iters=4))
    for ratio, res in zip(ratios, rows):
        assert res["ordering_ok"], (ratio, res)
        assert res["E_prime"] <= res["E_ball"] + res["tol_opt"]
        assert res["E_ball"] <= res["E_global"] + res["tol_opt"]
        inflations.append(res["inflation"])
    # enlarging the field ball captures more of the probe's gradient energy
    assert all(b <= a + 1e-12 for a, b in zip(inflations, inflations[1:])), inflations


# ---------------------------------------------------------------------------
# 8. Partition-of-unity defect
# ---------------------------------------------------------------------------


def test_partition_defect_constant_and_variable_scale():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2.0, 2.0, size=(24, 1))
    const = PartitionSpec.constant(1, 0.2)
    assert partition_defect(const, xs) <= 1e-10
    var, _K, _repaired = partition_from_potential(
        1,
        lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1)),
        lambda x: -2.0 * np.asarray(x)
        * np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))[..., None],
        h=0.1, K=8.0, alpha=DEFAULT_ALPHA,
    )
    assert partition_defect(var, xs) <= 1e-6


# ---------------------------------------------------------------------------
# 9. Dyadic Fermi-shell family
# ---------------------------------------------------------------------------


def test_dyadic_partition_support_and_floor_index():
    fam = dyadic_build(W=1.0, w=0.125, h=0.1)
    u = np.linspace(0.0, 4.0, 10_000)
    t = fam.t(u**2)  # covers the physical range t >= -1/w
    np.testing.assert_allclose(fam.sum_f_sq(t), 1.0, atol=1e-12)

    tt = np.linspace(-1.0 / fam.w, float(t.max()), 10_000)
    shells = {i: fam.f(i, tt) for i in range(-fam.i0 - 2, 9)}
    for i in shells:
        for j in shells:
            if abs(i - j) >= 2:
                assert float(np.max(shells[i] * shells[j])) == 0.0
    # shells vanish identically below the floor index and not at it
    assert not np.any(shells[-fam.i0 - 1])
    assert np.any(shells[-fam.i0] > 0)
    for w in (0.5, 0.25, 0.125, 0.1):
        assert dyadic_build(1.0, w).i0 == int(math.floor(math.log2(1.0 / w))) + 1


# ---------------------------------------------------------------------------
# 10. Mollification constants across octaves
# ---------------------------------------------------------------------------


def test_mollification_constants_stable_over_octaves():
    grid = GridSpec(d=3, N=128, L=2.0)
    radii = [0.2 * 0.5**i for i in range(4)]
    draws = (rough_divfree_potential(grid, seed=draw) for draw in range(20))
    for draw, series in enumerate(smoothing_constants(grid, draws, radii)):
        for name, vals in series.items():
            for v1, v2 in zip(vals, vals[1:]):
                assert v2 <= 2.0 * v1 and v1 <= 2.0 * v2, (draw, name, vals)


# ---------------------------------------------------------------------------
# 11. Trace inequalities: commutator, separation, sandwich, Lieb-Thirring
# ---------------------------------------------------------------------------


def test_comm2_twenty_random_triples():
    # the check-comm2 corpus at its defaults and seed 7: one report per triple
    _, _, reports = run_check_comm2({"draws": 20, "n": 32, "box": 2.0}, seed=7)
    assert len(reports) == 20
    assert all(rep.passed for rep in reports), [(r.lhs, r.rhs) for r in reports]


def test_momentum_separation_supercubic_decay():
    f = lambda u: plateau_bump(np.asarray(u) / 0.5)
    g = lambda u: smooth_step((np.asarray(u) - 1.5) / 0.5)
    eta0 = lambda s: bump(np.asarray(s) / 2.0)
    rep = separation_sweep(f, g, eta0, L=1.0, d_sep=1.0, N=256,
                           halvings=3, ell0=1.0 / 8.0)
    assert rep.passed, rep.notes


def test_variational_sandwich_ten_dense_cases():
    # the check-sandwich corpus at its defaults and seed 13
    _, _, reports = run_check_sandwich({"draws": 10, "n": 64, "box": 2.0}, seed=13)
    assert len(reports) == 10
    assert all(rep.passed for rep in reports), [r.notes for r in reports]


def test_lieb_thirring_envelope_stable_across_corpora():
    grid = GridSpec(d=3, N=8, L=2.0)
    V = bump_potential(grid, amplitude=2.0, radius=0.7)
    ratios = []
    for draw in range(20):
        A = random_divfree_potential(grid, seed=500 + draw, amplitude=0.3)
        rep = check_lieb_thirring(V, A, h=0.5, flavor=PAULI)
        assert rep.passed and rep.lhs > 0.0
        ratios.append(rep.ratio)
    env1, env2 = max(ratios[:10]), max(ratios[10:])
    envelope = max(env1, env2)
    assert abs(env1 - env2) <= 0.2 * envelope, (env1, env2)
    assert all(r <= envelope for r in ratios)


# ---------------------------------------------------------------------------
# 12. Harmonic-extension energy ratio
# ---------------------------------------------------------------------------


def test_harmonic_ratio_closed_form_and_uniform_bound():
    ratio, _ = harmonic_energy_ratio(1, 2.0)
    assert ratio == pytest.approx(10.0 / 7.0, rel=1e-12)
    for R in np.linspace(1.5, 10.0, 18):
        bound = 1.0 / (1.0 - 3.0 * R**-3)
        for l in range(1, 51):
            r, b = harmonic_energy_ratio(l, float(R))
            assert b == pytest.approx(bound, rel=1e-14)
            assert r <= bound + 1e-14
