"""Energy functionals, current-coupled gradients, and field minimization."""

from dataclasses import replace

import numpy as np
import pytest

from fermifield.builders import (
    bump_potential,
    cutoff_ball,
    random_divfree_potential,
)
from fermifield.field_opt import (
    BALL_GRAD,
    GLOBAL_CURL,
    PSI_OUTSIDE,
    EnergyConfig,
    Schedule,
    energy_gradient,
    minimize,
    total_energy,
    variant_ordering_check,
)
from fermifield.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    divergence,
    field_energy_grad,
)
from fermifield.operators import HamiltonianSpec


def test_energy_config_validation():
    with pytest.raises(ValueError):
        EnergyConfig(beta=-1.0)
    with pytest.raises(ValueError):
        EnergyConfig(beta=1.0, variant="nope")
    with pytest.raises(ValueError):
        EnergyConfig(beta=1.0, variant=BALL_GRAD)  # missing R


def test_total_energy_parts_add_up(spec3d):
    A = random_divfree_potential(spec3d.grid, seed=1, kmax=2, amplitude=0.2)
    cfg = EnergyConfig(beta=2.0, variant=GLOBAL_CURL)
    E, parts = total_energy(A, spec3d, cfg)
    assert E == pytest.approx(parts["trace"] + parts["beta_field"])
    assert parts["field"] >= 0.0
    assert parts["beta_field"] == pytest.approx(2.0 * parts["field"])


def test_zero_field_energy_has_no_field_part(spec3d):
    cfg = EnergyConfig(beta=5.0, variant=GLOBAL_CURL)
    E, parts = total_energy(None, spec3d, cfg)
    assert parts["field"] == 0.0
    assert E == pytest.approx(parts["trace"])


# the psi cases use a cutoff that vanishes nowhere, whose current is that of psi u
@pytest.mark.parametrize("flavor,d,N,variant,cutoff", [
    pytest.param("schrodinger", 2, 8, GLOBAL_CURL, False, id="schrodinger-2-8"),
    pytest.param("pauli", 3, 4, GLOBAL_CURL, False, id="pauli-3-4"),
    pytest.param("schrodinger", 3, 4, GLOBAL_CURL, True, id="schrodinger-3-4-psi"),
    pytest.param("pauli", 3, 4, GLOBAL_CURL, True, id="pauli-3-4-psi"),
    pytest.param("pauli", 3, 4, BALL_GRAD, True, id="pauli-3-4-psi-ball"),
])
def test_gradient_matches_finite_differences(flavor, d, N, variant, cutoff):
    g = GridSpec(d=d, N=N, L=2.0)
    psi = None
    if cutoff:
        psi = ScalarField(g, np.broadcast_to(0.6 + 0.3 * np.cos(2 * np.pi * g.coords[0] / g.L),
                                             g.shape))
    spec = HamiltonianSpec(grid=g, h=0.6, flavor=flavor, psi=psi,
                           V=bump_potential(g, amplitude=8.0, radius=0.7))
    cfg = EnergyConfig(beta=2.0, variant=variant, R=0.8)
    A = random_divfree_potential(g, seed=2, kmax=1, amplitude=0.3)
    a = random_divfree_potential(g, seed=9, kmax=1, amplitude=1.0)
    dd = energy_gradient(A, spec, cfg).inner(a).real
    eps = 1e-5
    Ep, _ = total_energy(A + eps * a, spec, cfg)
    Em, _ = total_energy(A - eps * a, spec, cfg)
    fd = (Ep - Em) / (2 * eps)
    assert dd == pytest.approx(fd, rel=1e-5)


def test_psi_outside_gradient_matches_finite_differences(spec3d):

    spec = replace(spec3d, psi=cutoff_ball(spec3d.grid, 0.3))
    cfg = EnergyConfig(beta=2.0, variant=PSI_OUTSIDE, R=0.8)
    A = random_divfree_potential(spec.grid, seed=3, kmax=2, amplitude=0.15)
    a = random_divfree_potential(spec.grid, seed=7, kmax=2, amplitude=1.0)
    dd = energy_gradient(A, spec, cfg).inner(a).real
    eps = 1e-5
    Ep, _ = total_energy(A + eps * a, spec, cfg)
    Em, _ = total_energy(A - eps * a, spec, cfg)
    fd = (Ep - Em) / (2 * eps)
    assert dd == pytest.approx(fd, rel=1e-6)


def test_psi_outside_trace_matches_eigenvector_loop(spec3d):
    from fermifield.spectral import negative_spectrum

    spec = replace(spec3d, psi=cutoff_ball(spec3d.grid, 0.6))
    cfg = EnergyConfig(beta=2.0, variant=PSI_OUTSIDE, R=1.2)
    A = random_divfree_potential(spec.grid, seed=3, kmax=2, amplitude=0.15)
    _, parts = total_energy(A, spec, cfg)
    ns = negative_spectrum(replace(spec.with_A(A), psi=None))
    psi2 = np.real(spec.psi.data) ** 2
    ref = 0.0
    for lam, u in zip(ns.eigenvalues, ns.eigenvectors):
        if lam <= 0.0:
            ref += lam * float(np.sum(psi2 * np.sum(np.abs(u.data) ** 2, axis=0))
                               * spec.grid.weight)
    assert ref < 0.0
    assert parts["trace"] == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_psi_outside_trace_is_zero_without_negative_spectrum(spec3d):
    # T - V with V = -1 is positive, so no eigenvalue lies at or below tol_zero
    g = spec3d.grid
    spec = replace(spec3d, V=ScalarField(g, -np.ones(g.shape)), psi=cutoff_ball(g, 0.6))
    cfg = EnergyConfig(beta=2.0, variant=PSI_OUTSIDE, R=1.2)
    A = random_divfree_potential(g, seed=3, kmax=2, amplitude=0.15)
    for a in (None, A):
        E, parts = total_energy(a, spec, cfg)
        assert parts["trace"] == 0.0
        assert E == parts["beta_field"]


def _psi_outside_gradient_loop(spec):
    """Reference: the pair-density double loop over (j <= 0, every k)."""
    import scipy.linalg

    from fermifield.operators import dense_matrix

    g = spec.grid
    vals, vecs = scipy.linalg.eigh(dense_matrix(replace(spec, psi=None)))
    vecs = vecs / np.sqrt(g.weight)
    U = [vecs[:, k].reshape((spec.spin,) + g.shape) for k in range(len(vals))]
    axes = tuple(range(1, g.d + 1))

    def momenta(u):  # (D_j + A_j) u for each j
        uh = np.fft.fftn(u, axes=axes)
        return [np.fft.ifftn(spec.h * kj * uh, axes=axes) + spec.A.data[j] * u
                for j, kj in enumerate(g.k)]

    P = [momenta(u) for u in U]
    if spec.flavor == "pauli":
        sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        Vs = [np.einsum("jst,jt...->s...", sigma, np.stack(p)) for p in P]

        def pair(k, j):
            return sum(np.einsum("s...,ist,t...->i...", np.conj(a), sigma, b)
                       for a, b in ((U[k], Vs[j]), (Vs[k], U[j])))
    else:

        def pair(k, j):
            return np.stack([np.sum(np.conj(P[k][i]) * U[j] + np.conj(U[k]) * P[j][i], axis=0)
                             for i in range(g.d)])

    psi2 = np.real(spec.psi.data) ** 2
    S = np.array([[np.vdot(a, psi2 * b) * g.weight for b in U] for a in U])
    grad = np.zeros((g.d,) + g.shape)
    for j in np.nonzero(vals <= 0.0)[0]:
        grad += np.real(S[j, j]) * np.real(pair(j, j))
        for k in range(len(vals)):
            if k == j or abs(S[k, j]) < 1e-14 or (vals[k] <= 0.0 and k < j):
                continue
            coeff = 2.0 if vals[k] <= 0.0 else 2.0 * vals[j] / (vals[j] - vals[k])
            grad += coeff * np.real(np.conj(pair(k, j)) * S[k, j])
    return grad


# amplitudes chosen so that several eigenvalues are negative and the
# in-band pair terms contribute
@pytest.mark.parametrize("flavor,d,N,amp", [("schrodinger", 2, 8, 20.0), ("pauli", 3, 4, 8.0)])
def test_psi_outside_gradient_matches_pair_density_loop(flavor, d, N, amp):
    from fermifield.field_opt import _trace_gradient_psi_outside
    from fermifield.spectral import negative_spectrum

    g = GridSpec(d=d, N=N, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, flavor=flavor, psi=cutoff_ball(g, 0.6),
                           V=bump_potential(g, amplitude=amp, radius=0.7),
                           A=random_divfree_potential(g, seed=3, kmax=1, amplitude=0.3))
    ref = _psi_outside_gradient_loop(spec)
    got = _trace_gradient_psi_outside(spec, negative_spectrum(replace(spec, psi=None))).data
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


# N = 8 for Pauli: the probe route starts from the half grid, and N = 4 has none
@pytest.mark.parametrize("flavor,d,N,amp", [("schrodinger", 2, 8, 20.0), ("pauli", 3, 8, 8.0)])
def test_psi_outside_gradient_on_the_lobpcg_path(flavor, d, N, amp, monkeypatch):
    import fermifield.spectral as spectral
    from fermifield.field_opt import _trace_gradient_psi_outside

    g = GridSpec(d=d, N=N, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, flavor=flavor, psi=cutoff_ball(g, 0.6),
                           V=bump_potential(g, amplitude=amp, radius=0.7),
                           A=random_divfree_potential(g, seed=3, kmax=1, amplitude=0.3))
    bare = replace(spec, psi=None)
    dense = spectral.negative_spectrum(bare)
    ref = _trace_gradient_psi_outside(spec, dense).data
    monkeypatch.setattr(spectral, "DENSE_LIMIT", bare.dim - 1)
    ns = spectral.negative_spectrum(bare, seed=1)
    assert ns.stats.certificate == "probe" and len(ns.eigenvalues) == len(dense.eigenvalues)
    got = _trace_gradient_psi_outside(spec, ns).data
    # The n LOBPCG pairs are exact eigenpairs of H + E with ||E|| <= 2 sqrt(n)
    # times their largest residual, and the Sternheimer solve projects off
    # exactly their span, so the gradient is that of H + E.  To first order
    # it moves by ||E|| / gap relative to its size, gap the spectral gap
    # across 0 (from the first eigenvalue above 0 to the last one below).
    vals = np.linalg.eigvalsh(spectral.dense_matrix(bare))
    gap = vals[vals > 0.0][0] - vals[vals <= 0.0][-1]
    n = len(ns.eigenvalues)
    tol = 2.0 * np.sqrt(n) * ns.stats.worst_residual / gap
    assert tol < 1e-7
    np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.max(np.abs(ref)))


@pytest.mark.parametrize("flavor,d,N,amp", [("schrodinger", 2, 8, 20.0), ("pauli", 3, 4, 8.0)])
def test_psi_outside_point_decomposes_once(flavor, d, N, amp, monkeypatch):
    # one negative_spectrum of the operator without psi per point, and the
    # gradient there solves no spectrum again
    import fermifield.field_opt as field_opt
    import fermifield.spectral as spectral
    from fermifield.field_opt import _field_gradient, _trace_gradient_psi_outside

    g = GridSpec(d=d, N=N, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, flavor=flavor, psi=cutoff_ball(g, 0.6),
                           V=bump_potential(g, amplitude=amp, radius=0.7))
    cfg = EnergyConfig(beta=1.0, variant=PSI_OUTSIDE, R=1.2)
    A = random_divfree_potential(g, seed=3, kmax=1, amplitude=0.3)
    solves, eighs = [], []
    solve, eigh = field_opt.negative_spectrum, spectral.dense_eigh

    def counted_solve(sp, *args, **kwargs):
        solves.append(sp)
        return solve(sp, *args, **kwargs)

    def counted_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(field_opt, "negative_spectrum", counted_solve)
    monkeypatch.setattr(spectral, "dense_eigh", counted_eigh)
    _, parts = total_energy(A, spec, cfg)
    ns = parts["spectrum"]
    assert len(solves) == len(eighs) == 1
    assert solves[0].psi is None and solves[0].A is A and ns.spec is solves[0]
    grad = energy_gradient(A, spec, cfg, spectrum=ns)
    assert len(solves) == len(eighs) == 1
    monkeypatch.undo()

    # oracle: the trace through the eigenvector fields of the operator without psi
    U = np.stack([u.data for u in ns.eigenvectors])
    weights = np.sum(np.abs(U) ** 2, axis=1).reshape(len(U), -1) @ (
        np.real(spec.psi.data) ** 2).ravel() * g.weight
    ref = float(np.minimum(ns.eigenvalues, 0.0) @ weights)
    assert ref < 0.0
    assert parts["trace"] == pytest.approx(ref, rel=1e-12, abs=0.0)

    # the gradient read that spectrum: bit-identical to solving again
    sA = spec.with_A(A)
    fresh = _trace_gradient_psi_outside(sA, spectral.negative_spectrum(replace(sA, psi=None)))
    np.testing.assert_array_equal(grad.data, (fresh + cfg.beta * _field_gradient(A, cfg)).data)


def test_minimize_contracts(spec3d):
    cfg = EnergyConfig(beta=2.0, variant=GLOBAL_CURL)
    rep = minimize(None, spec3d, cfg, Schedule(max_iters=3))
    assert all(b <= a + 1e-12 for a, b in zip(rep.energies, rep.energies[1:]))
    assert divergence(rep.final_A).norm() < 1e-10
    for j in range(3):
        assert abs(rep.final_A.data[j].mean()) < 1e-12
    base, _ = total_energy(None, spec3d, cfg)
    assert rep.energy <= base + 1e-10


def test_minimize_descends_from_random_start(spec3d):
    cfg = EnergyConfig(beta=2.0, variant=GLOBAL_CURL)
    A0 = random_divfree_potential(spec3d.grid, seed=11, kmax=2, amplitude=0.3)
    rep = minimize(A0, spec3d, cfg, Schedule(max_iters=3))
    assert rep.energy < rep.energies[0]
    assert all(b <= a + 1e-12 for a, b in zip(rep.energies, rep.energies[1:]))


def test_variant_ordering_check_hypothesis():
    g = GridSpec(d=3, N=4, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.6, V=bump_potential(g, amplitude=8.0))
    with pytest.raises(ValueError):
        variant_ordering_check(spec, 0.5, (0.6,), beta=1.0)


def test_variant_ordering_small():
    g = GridSpec(d=3, N=4, L=4.0)
    spec = HamiltonianSpec(grid=g, h=0.6,
                           V=bump_potential(g, amplitude=8.0, radius=1.2))
    A0 = random_divfree_potential(g, seed=0, kmax=1, amplitude=0.2)
    [res] = variant_ordering_check(spec, 0.5, (1.0,), beta=2.0, A0=A0,
                                   schedule=Schedule(max_iters=2))
    assert res["ordering_ok"]
    assert res["E_prime"] <= res["E_ball"] + res["tol_opt"]
    assert res["E_ball"] <= res["E_global"] + res["tol_opt"]


def _counting_solves(monkeypatch):
    """Log the spec of every negative_spectrum field_opt solves."""
    import fermifield.field_opt as field_opt

    calls = []
    solve = field_opt.negative_spectrum

    def counted_solve(spec, *args, **kwargs):
        calls.append(spec)
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(field_opt, "negative_spectrum", counted_solve)
    return calls


def _ordering_spec():
    g = GridSpec(d=3, N=4, L=4.0)
    spec = HamiltonianSpec(grid=g, h=0.6,
                           V=bump_potential(g, amplitude=8.0, radius=1.2))
    return spec, random_divfree_potential(g, seed=0, kmax=1, amplitude=0.2)


def _ordering_reference(spec, A0, r, R, beta, sched):
    """One radius as each was checked before: three descents, each solving its own start.

    The psi-outside descent starts at the field that gave E_ball: the
    ball-grad end unless the global-curl end has the lower ball energy.
    """
    spec = replace(spec, psi=cutoff_ball(spec.grid, r))
    cfgs = [EnergyConfig(beta=beta, variant=v, R=R)
            for v in (GLOBAL_CURL, BALL_GRAD, PSI_OUTSIDE)]
    rep_global = minimize(A0, spec, cfgs[0], sched)
    rep_ball = minimize(A0, spec, cfgs[1], sched)
    e_ball_at_global, _ = total_energy(rep_global.final_A, spec, cfgs[1])
    at_ball = rep_ball.energy <= e_ball_at_global
    A_e_ball = rep_ball.final_A if at_ball else rep_global.final_A
    e_prime_at_start, _ = total_energy(A_e_ball, spec, cfgs[2])
    rep_prime = minimize(A_e_ball, spec, cfgs[2], sched)
    full = field_energy_grad(rep_global.final_A)
    inside = field_energy_grad(rep_global.final_A, cfgs[1].region(spec.grid))
    return {"E_global": rep_global.energy,
            "E_ball": min(rep_ball.energy, e_ball_at_global),
            "E_prime": min(rep_prime.energy, e_prime_at_start),
            "inflation": full / inside if inside > 1e-14 else 1.0}


def test_variant_ordering_reuses_the_runs_it_certifies(monkeypatch):
    spec, A0 = _ordering_spec()
    r, R, beta, sched = 0.5, 1.0, 2.0, Schedule(max_iters=2)
    calls = _counting_solves(monkeypatch)
    [res] = variant_ordering_check(spec, r, (R,), beta, A0=A0, schedule=sched)
    reused = len(calls)

    # reference: certify E_ball and E_prime with fresh solves at both points
    calls.clear()
    ref = _ordering_reference(spec, A0, r, R, beta, sched)
    # the shared start, e_ball_at_global and e_prime_at_start
    assert reused == len(calls) - 3
    assert res["E_ball"] == ref["E_ball"]
    assert res["E_prime"] == pytest.approx(ref["E_prime"], rel=1e-14, abs=0.0)
    assert res["E_global"] == ref["E_global"]


def test_variant_ordering_solves_each_operator_once(monkeypatch):
    import fermifield.field_opt as field_opt

    spec, A0 = _ordering_spec()
    r, radii, beta, sched = 0.5, (1.0, 2.0), 2.0, Schedule(max_iters=2)
    calls = _counting_solves(monkeypatch)
    descents, points = [], []
    descend, energy = field_opt.minimize, field_opt.total_energy

    def counted_minimize(A0, spec, cfg, *args, **kwargs):
        descents.append(cfg.variant)
        return descend(A0, spec, cfg, *args, **kwargs)

    def counted_energy(A, spec, cfg, *args, **kwargs):
        points.append(cfg.variant)
        return energy(A, spec, cfg, *args, **kwargs)

    monkeypatch.setattr(field_opt, "minimize", counted_minimize)
    monkeypatch.setattr(field_opt, "total_energy", counted_energy)
    rows = variant_ordering_check(spec, r, radii, beta, A0=A0, schedule=sched)
    monkeypatch.undo()

    assert len(rows) == 2
    assert descents == [GLOBAL_CURL, BALL_GRAD, PSI_OUTSIDE, BALL_GRAD, PSI_OUTSIDE]
    # psi (T - V) psi: one negative_spectrum at the shared start, then one per
    # accepted or rejected trial of the global-curl and ball-grad descents
    solves = [sp for sp in calls if sp.psi is not None]
    start = solves[0].A
    assert sum(sp.A is start for sp in solves) == 1
    reports = [row["reports"] for row in rows]
    trials = sum(reports[0]["global"].trials) + sum(sum(rep["ball"].trials) for rep in reports)
    assert len(solves) == 1 + trials
    # the operator without psi: one negative_spectrum per psi-outside point,
    # except that rows whose psi-outside descents start at the same field
    # share that start's solve; gradients and residuals solve nothing again.
    # A row's psi-outside start is the field that gave its E_ball.
    bare = [sp for sp in calls if sp.psi is None]
    starts = [rep["ball"].final_A if row["E_ball"] == rep["ball"].energy
              else rep["global"].final_A for row, rep in zip(rows, reports)]
    assert len(bare) == points.count(PSI_OUTSIDE) - (starts[0] is starts[1]) > 0
    # no two solves of the operator without psi see the same field
    assert len({sp.A.data.tobytes() for sp in bare}) == len(bare)

    for R, res in zip(radii, rows):
        ref = _ordering_reference(spec, A0, r, R, beta, sched)
        assert res["E_global"] == ref["E_global"]
        assert res["E_ball"] == ref["E_ball"]
        assert res["inflation"] == ref["inflation"]
        assert res["E_prime"] == pytest.approx(ref["E_prime"], rel=1e-12, abs=0.0)


def test_psi_outside_starts_where_e_ball_was_reached():
    # variant_order.cfg's operator with a psi that vanishes nowhere, so every
    # descent moves; E_ball comes from the global-curl end in both rows
    g = GridSpec(d=3, N=8, L=4.0)
    psi = ScalarField(g, 0.3 + 0.7 * cutoff_ball(g, 1.5).data)
    spec = HamiltonianSpec(grid=g, h=0.6, V=bump_potential(g, amplitude=8.0, radius=1.2),
                           psi=psi)
    A0 = random_divfree_potential(g, seed=0, amplitude=0.2)
    rows = variant_ordering_check(spec, 0.5, (1.0, 2.0), beta=2.0, A0=A0,
                                  schedule=Schedule(max_iters=4))
    for res in rows:
        assert res["E_ball"] < res["reports"]["ball"].energy
        assert res["E_prime"] <= res["E_ball"]  # no tolerance: certified by construction


@pytest.mark.parametrize("radii", [(0.6,), (0.6, 1.0), (1.0, 0.6), (1.0, 2.0, -2.0), ()])
def test_variant_ordering_checks_every_radius_before_solving(radii, monkeypatch):
    import fermifield.field_opt as field_opt

    spec, A0 = _ordering_spec()
    ran = []
    monkeypatch.setattr(field_opt, "minimize", lambda *a, **k: ran.append("minimize"))
    monkeypatch.setattr(field_opt, "negative_spectrum",
                        lambda *a, **k: ran.append("negative_spectrum"))
    with pytest.raises(ValueError):
        variant_ordering_check(spec, 0.5, radii, beta=2.0, A0=A0)
    assert ran == []


@pytest.mark.parametrize("variant", [GLOBAL_CURL, BALL_GRAD])
def test_minimize_reuses_the_accepted_spectrum(spec3d, variant, monkeypatch):
    import fermifield.field_opt as field_opt

    cfg = EnergyConfig(beta=2.0, variant=variant, R=0.8)
    A0 = random_divfree_potential(spec3d.grid, seed=11, kmax=2, amplitude=0.3)
    calls = []
    solve = field_opt.negative_spectrum

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(field_opt, "negative_spectrum", counted)
    rep = minimize(A0, spec3d, cfg, Schedule(max_iters=2))
    reused = len(calls)

    # reference: every gradient and the residual solve their point again
    energy = field_opt.total_energy

    def no_spectrum(*args, **kwargs):
        E, parts = energy(*args, **kwargs)
        return E, {**parts, "spectrum": None}

    monkeypatch.setattr(field_opt, "total_energy", no_spectrum)
    calls.clear()
    ref = minimize(A0, spec3d, cfg, Schedule(max_iters=2))
    assert rep.energies == ref.energies
    assert rep.el_residual == ref.el_residual
    assert len(rep.steps) == 2
    assert reused == len(calls) - 3  # two gradients and the residual
    assert "spectrum" not in rep.parts  # the report does not pin eigenvectors


def test_el_residual_of_psi_outside_is_its_own_equation(spec3d):
    from fermifield.field_opt import (
        _field_gradient,
        _trace_gradient_psi_outside,
        el_residual,
    )
    from fermifield.spectral import negative_spectrum

    spec = replace(spec3d, psi=cutoff_ball(spec3d.grid, 0.6))
    cfg = EnergyConfig(beta=2.0, variant=PSI_OUTSIDE, R=1.2)
    A = random_divfree_potential(spec.grid, seed=3, kmax=2, amplitude=0.15)
    lhs = (0.5 * cfg.beta) * _field_gradient(A, cfg)
    sA = spec.with_A(A)
    J = -0.5 * _trace_gradient_psi_outside(sA, negative_spectrum(replace(sA, psi=None)))
    ref = (lhs - J).norm() / max(lhs.norm(), J.norm())
    assert el_residual(A, spec, cfg) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("variant", [GLOBAL_CURL, BALL_GRAD])
def test_el_residual_is_the_maxwell_residual(spec3d, variant):
    from fermifield.field_opt import _field_gradient, el_residual
    from fermifield.spectral import current, negative_spectrum

    cfg = EnergyConfig(beta=2.0, variant=variant, R=0.8)
    A = random_divfree_potential(spec3d.grid, seed=3, kmax=2, amplitude=0.15)
    J = current(negative_spectrum(spec3d.with_A(A)))
    lhs = (0.5 * cfg.beta) * _field_gradient(A, cfg)  # beta curl B for global-curl
    ref = (lhs - J).norm() / max(lhs.norm(), J.norm())
    assert el_residual(A, spec3d, cfg) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("variant", [GLOBAL_CURL, BALL_GRAD])
def test_zero_band_point_has_no_gradient_but_a_residual(variant):
    # psi (T - V) psi with psi vanishing outside a small ball: ker psi puts
    # eigenvalues at 0, so the trace is not differentiable there
    from fermifield.field_opt import NonSmoothPoint, _field_gradient, el_residual
    from fermifield.spectral import current, negative_spectrum

    spec, A0 = _ordering_spec()
    spec = replace(spec, psi=cutoff_ball(spec.grid, 0.5))
    cfg = EnergyConfig(beta=2.0, variant=variant, R=1.0)
    ns = negative_spectrum(spec.with_A(A0))
    assert ns.stats.kernel > 0 and ns.zero_band
    with pytest.raises(NonSmoothPoint):
        energy_gradient(A0, spec, cfg)

    rep = minimize(A0, spec, cfg, Schedule(max_iters=3), spectrum=ns)
    assert rep.steps == [] and rep.termination == "non-smooth point"
    # the residual still reads the trace's current there
    J = current(ns)
    lhs = (0.5 * cfg.beta) * _field_gradient(A0, cfg)
    ref = (lhs - J).norm() / max(lhs.norm(), J.norm())
    assert np.isfinite(ref)
    assert el_residual(A0, spec, cfg) == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert rep.el_residual == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_el_residual_at_a_non_smooth_final_point_is_nan(spec3d, monkeypatch):
    import fermifield.field_opt as field_opt

    trace_gradient, calls = field_opt._trace_gradient, []

    def non_smooth_residual(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:  # the one step's gradient, then el_residual's own call
            raise field_opt.NonSmoothPoint("patched")
        return trace_gradient(*args, **kwargs)

    monkeypatch.setattr(field_opt, "_trace_gradient", non_smooth_residual)
    rep = minimize(None, spec3d, EnergyConfig(beta=2.0, variant=GLOBAL_CURL),
                   Schedule(max_iters=1))
    assert len(calls) == 2
    assert len(rep.steps) == 1
    assert np.isnan(rep.el_residual)


@pytest.mark.parametrize("variant", [GLOBAL_CURL, BALL_GRAD, PSI_OUTSIDE])
def test_minimize_report_field_part_is_the_final_field_energy(spec3d, variant):
    from fermifield.field_opt import _field_energy

    spec = spec3d
    if variant == PSI_OUTSIDE:  # the only variant that traces psi^2 [H]_-
        spec = replace(spec3d, psi=cutoff_ball(spec3d.grid, 0.6))
    cfg = EnergyConfig(beta=2.0, variant=variant, R=0.8)
    A0 = random_divfree_potential(spec.grid, seed=3, kmax=2, amplitude=0.15)
    rep = minimize(A0, spec, cfg, Schedule(max_iters=2))
    assert rep.steps  # the descent moved, so final_A is not A0
    assert rep.parts["field"] == pytest.approx(_field_energy(rep.final_A, cfg),
                                               rel=1e-12, abs=0.0)
    assert rep.parts["beta_field"] == pytest.approx(cfg.beta * rep.parts["field"])


def test_el_residual_is_finite_in_two_dimensions():
    g = GridSpec(d=2, N=8, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.6, V=bump_potential(g, amplitude=8.0, radius=0.7))
    A0 = random_divfree_potential(g, seed=2, kmax=1, amplitude=0.3)
    rep = minimize(A0, spec, EnergyConfig(beta=2.0, variant=GLOBAL_CURL), Schedule(max_iters=2))
    assert np.isfinite(rep.el_residual)
    assert 0.0 <= rep.el_residual


# ---------------------------------------------------------------------------
# the line search's quadratic model


@pytest.mark.parametrize("variant,d", [(GLOBAL_CURL, 2), (GLOBAL_CURL, 3), (BALL_GRAD, 3)])
def test_field_energy_is_exact_quadratic_along_a_line(variant, d):
    from fermifield.field_opt import _field_energy, _field_gradient

    g = GridSpec(d=d, N=8, L=2.0)
    cfg = EnergyConfig(beta=1.0, variant=variant, R=0.8)
    A = random_divfree_potential(g, seed=4, kmax=2, amplitude=0.5)
    G = random_divfree_potential(g, seed=5, kmax=2, amplitude=0.5)
    slope = float(np.real(_field_gradient(A, cfg).inner(G)))
    for alpha in (0.3, 1.7):
        lhs = _field_energy(A - alpha * G, cfg)
        rhs = _field_energy(A, cfg) - alpha * slope + alpha**2 * _field_energy(G, cfg)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def _counting_total_energy(monkeypatch, reject_with=None):
    """Wrap field_opt.total_energy; log every evaluated field and energy.

    With reject_with = f, the first trial (second call) returns
    E_start + f alpha g in place of its energy, alpha and g read off the
    trial -alpha G of a descent started at A = 0.
    """
    import fermifield.field_opt as field_opt

    energy, log = field_opt.total_energy, []

    def wrapped(A, spec, cfg, seed=0, spectrum=None):
        E, parts = energy(A, spec, cfg, seed=seed, spectrum=spectrum)
        if reject_with is not None and len(log) == 1:
            norm2 = A.norm() ** 2  # alpha^2 g
            alpha = norm2 / (2.0 * cfg.beta * field_opt._field_energy(A, cfg))
            E = log[0][1] + reject_with * norm2 / alpha
        log.append((A, E))
        return E, parts

    monkeypatch.setattr(field_opt, "total_energy", wrapped)
    return log


def test_minimize_accepts_the_model_step_from_zero(spec3d, monkeypatch):
    log = _counting_total_energy(monkeypatch)
    rep = minimize(None, spec3d, EnergyConfig(beta=2.0, variant=GLOBAL_CURL),
                   Schedule(max_iters=4))
    assert len(rep.steps) == 4
    assert len(log) == len(rep.steps) + 1
    assert rep.trials == [1, 1, 1, 1]


@pytest.mark.parametrize("f,ratio", [(0.0, 0.5), (1.0, 0.25), (1e3, 0.1)])
def test_rejected_trial_backtracks_to_the_interpolated_step(spec3d, monkeypatch, f, ratio):
    log = _counting_total_energy(monkeypatch, reject_with=f)
    rep = minimize(None, spec3d, EnergyConfig(beta=2.0, variant=GLOBAL_CURL),
                   Schedule(max_iters=1))
    first, second = log[1][0].norm(), log[2][0].norm()  # trial norms scale with alpha
    assert 0.1 * first <= second * (1 + 1e-12) and second <= 0.5 * first * (1 + 1e-12)
    assert second / first == pytest.approx(ratio, rel=1e-9)
    assert rep.trials == [2]


def test_descent_iterate_and_gradient_are_float64(spec3d):
    cfg = EnergyConfig(beta=2.0, variant=GLOBAL_CURL)
    rep = minimize(None, spec3d, cfg, Schedule(max_iters=1))
    assert rep.steps and rep.final_A.data.dtype == np.float64
    assert energy_gradient(rep.final_A, spec3d, cfg).data.dtype == np.float64


def test_second_step_is_the_barzilai_borwein_step(spec3d):
    from fermifield.field_opt import _project, energy_gradient

    cfg = EnergyConfig(beta=2.0, variant=GLOBAL_CURL)
    rep = minimize(None, spec3d, cfg, Schedule(max_iters=2))
    assert rep.trials == [1, 1]
    A0 = VectorField.zero(spec3d.grid)
    G0 = _project(energy_gradient(A0, spec3d, cfg))
    A1 = _project(A0 - rep.steps[0] * G0)
    G1 = _project(energy_gradient(A1, spec3d, cfg))
    s, y = A1 - A0, G1 - G0
    bb = float(np.real(s.inner(y))) / float(np.real(y.inner(y)))
    assert rep.steps[1] == pytest.approx(bb, rel=1e-9)


# ---------------------------------------------------------------------------
# the Jacobian kernel against the per-case formulas it replaced


def _d(f, g, axis):
    """Spectral derivative along one axis, Nyquist mode zeroed, over the last d axes."""
    k = 2 * np.pi * np.fft.fftfreq(g.N, d=g.L / g.N)
    k[g.N // 2] = 0.0
    k = k.reshape((1,) * axis + (g.N,) + (1,) * (g.d - 1 - axis))
    axes = tuple(range(-g.d, 0))
    return np.fft.ifftn(1j * k * np.fft.fftn(f, axes=axes), axes=axes)


def _old_curl_energy_and_gradient(A, region):
    """|curl A|^2 and 2 curl curl A in d = 3; |w|^2 and (2 d_y w, -2 d_x w) in d = 2."""
    g, a = A.grid, A.data
    if g.d == 2:
        w = _d(a[1], g, 0) - _d(a[0], g, 1)
        return np.abs(w) ** 2 * region, np.stack([2 * _d(w, g, 1), -2 * _d(w, g, 0)])

    def curl(v):
        return np.stack([_d(v[(i + 2) % 3], g, (i + 1) % 3) - _d(v[(i + 1) % 3], g, (i + 2) % 3)
                         for i in range(3)])

    B = curl(a)
    return np.sum(np.abs(B) ** 2, axis=0) * region, 2 * curl(B)


def _old_grad_energy_and_gradient(A, region):
    """The d^2 loop: region |d_i A_j|^2 and -2 sum_i d_i (region d_i A_j)."""
    g, a = A.grid, A.data
    dens, grad = np.zeros(g.shape), np.zeros_like(a, dtype=complex)
    for j in range(g.d):
        for i in range(g.d):
            dija = _d(a[j], g, i)
            dens += np.abs(dija) ** 2 * region
            grad[j] -= 2 * _d(region * dija, g, i)
    return dens, grad


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
@pytest.mark.parametrize("ball", [False, True])
def test_field_calculus_matches_the_per_case_formulas(d, N, ball):
    from fermifield.field_opt import _field_gradient
    from fermifield.grid import ball_mask, field_energy_curl

    g = GridSpec(d=d, N=N, L=2.0)
    A = random_divfree_potential(g, seed=5, kmax=2, amplitude=0.4)
    A = A + VectorField(g, np.random.default_rng(6).standard_normal((d,) + g.shape))
    region = ball_mask(g, (1.0,) * d, 0.7) if ball else None
    weight = np.ones(g.shape) if region is None else region
    # the curl energy is always over the torus, the gradient energy over the region
    cases = [(field_energy_curl, _old_curl_energy_and_gradient, GLOBAL_CURL, np.ones(g.shape)),
             (lambda A: field_energy_grad(A, region), _old_grad_energy_and_gradient, BALL_GRAD,
              weight)]
    for energy, old, variant, where in cases:
        dens, grad = old(A, where)
        assert energy(A) == pytest.approx(float(np.sum(dens)) * g.weight, rel=1e-12)
        # the field gradients: global-curl over the torus, ball-grad over its ball
        if (variant == BALL_GRAD) == ball:
            cfg = EnergyConfig(beta=1.0, variant=variant, R=0.7)
            if ball:  # EnergyConfig's ball is centered in the box, as this one
                np.testing.assert_array_equal(cfg.region(g), region)
            got = _field_gradient(A, cfg).data
            np.testing.assert_allclose(got, grad, rtol=0, atol=1e-12 * np.max(np.abs(grad)))


def test_curl_energy_and_its_gradient_vanish_in_one_dimension():
    from fermifield.field_opt import _field_gradient
    from fermifield.grid import field_energy_curl

    g = GridSpec(d=1, N=32, L=2.0)
    A = VectorField(g, np.random.default_rng(7).standard_normal((1,) + g.shape))
    assert field_energy_curl(A) == 0.0
    grad = _field_gradient(A, EnergyConfig(beta=1.0, variant=GLOBAL_CURL))
    assert not np.any(grad.data)
