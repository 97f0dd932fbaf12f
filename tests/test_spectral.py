"""Negative-spectrum solver and the gauge current of its eigenvectors."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import fermifield.operators as operators
import fermifield.spectral as spectral
from fermifield.builders import bump_potential, constant_potential
from fermifield.grid import GridSpec, SpinorField
from fermifield.operators import HamiltonianSpec, apply
from fermifield.spectral import (
    current,
    default_tol_zero,
    dense_eigh,
    negative_spectrum,
)


def _lattice_oracle(g, h, v0, spin=1):
    """Independent enumeration of eigenvalues h^2 k^2 - v0 on the dual lattice."""
    k1 = 2 * np.pi * np.fft.fftfreq(g.N, d=g.mesh)
    grids = np.meshgrid(*([k1] * g.d), indexing="ij")
    k2 = sum(kk**2 for kk in grids)
    return spin * float(np.minimum(h**2 * k2 - v0, 0.0).sum())


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16), (3, 8)])
def test_dense_path_matches_lattice_oracle(d, N):
    g = GridSpec(d=d, N=N, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.8, V=constant_potential(g, 2.0))
    ns = negative_spectrum(spec)
    exact = _lattice_oracle(g, 0.8, 2.0)
    assert ns.sum == pytest.approx(exact, rel=1e-12)


def test_pauli_dense_path_doubles_constant_oracle():
    g = GridSpec(d=3, N=8, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.8, V=constant_potential(g, 2.0), flavor="pauli")
    ns = negative_spectrum(spec)
    exact = _lattice_oracle(g, 0.8, 2.0, spin=2)
    assert ns.sum == pytest.approx(exact, rel=1e-12)


def test_iterative_path_matches_dense(monkeypatch):
    # shrink the dense cutoff so the preconditioned LOBPCG branch is exercised
    g = GridSpec(d=1, N=64, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.4, V=bump_potential(g, amplitude=5.0))
    dense_sum = negative_spectrum(spec).sum
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    iter_ns = negative_spectrum(spec, seed=3)
    assert iter_ns.sum == pytest.approx(dense_sum, rel=1e-8)


def test_eigenvectors_are_quadrature_normalized(spec1d):
    ns = negative_spectrum(spec1d)
    assert len(ns.eigenvalues) > 0
    for u in ns.eigenvectors:
        assert u.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("path", ["dense", "lobpcg", "spin-copies"])
def test_vectors_are_one_read_only_normalized_block(spec1d, spec3d, path, monkeypatch):
    spec = replace(spec3d, flavor="pauli") if path == "spin-copies" else spec1d
    if path == "lobpcg":
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    ns = negative_spectrum(spec, seed=1)
    m = len(ns.eigenvalues)
    assert m > 0 and ns.stats.certificate == ("probe" if path == "lobpcg" else "lapack")
    assert ns.vectors.shape == (spec.dim, m)
    assert not ns.vectors.flags.writeable
    with pytest.raises(ValueError):
        ns.vectors[0, 0] = 0.0
    np.testing.assert_allclose(
        np.sum(np.abs(ns.vectors) ** 2, axis=0) * spec.grid.weight, 1.0, rtol=1e-12)
    fields = ns.eigenvectors
    assert len(fields) == m
    for j, u in enumerate(fields):
        np.testing.assert_array_equal(
            u.data, ns.vectors[:, j].reshape((spec.spin,) + spec.grid.shape))


def test_lobpcg_vectors_of_a_real_operator_are_real(monkeypatch):
    # a cubic-symmetric bump: the kept space holds degenerate triplets, whose
    # complex LOBPCG vectors are not each a phase times a real vector
    g = GridSpec(d=3, N=8, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.3, V=bump_potential(g, amplitude=10.0, radius=0.7))
    vals, vecs = dense_eigh(spectral.dense_matrix(spec), upper=default_tol_zero(spec))
    vecs /= np.sqrt(g.weight)
    assert np.any(np.diff(vals) < 1e-9) and vals.size >= 4
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    ns = negative_spectrum(spec, seed=1)
    assert ns.stats.certificate == "probe" and ns.vectors.dtype == np.float64
    np.testing.assert_allclose(ns.eigenvalues, vals, rtol=0,
                               atol=1e-9 * spectral._operator_scale(spec))
    w = g.weight
    np.testing.assert_allclose(ns.vectors @ ns.vectors.T * w, vecs @ vecs.T * w,
                               rtol=0, atol=1e-8)


def test_expectations_match_field_inner_products(spec3d, rng):
    spec = replace(spec3d, flavor="pauli")
    g = spec.grid
    ns = negative_spectrum(spec)
    f = rng.uniform(0.5, 2.0, g.shape)
    ref = [np.real(u.inner(SpinorField(g, f * u.data))) for u in ns.eigenvectors]
    np.testing.assert_allclose(ns.expectations(f), ref, rtol=1e-13, atol=0.0)
    empty = negative_spectrum(HamiltonianSpec(grid=g, h=1.0, V=constant_potential(g, -1.0)))
    assert empty.vectors.shape == (g.size, 0)
    assert empty.expectations(f).shape == (0,)


def test_no_negative_spectrum_for_positive_operator():
    g = GridSpec(d=1, N=32, L=2.0)
    spec = HamiltonianSpec(grid=g, h=1.0, V=constant_potential(g, -1.0))
    ns = negative_spectrum(spec)
    assert len(ns.eigenvalues) == 0
    assert ns.sum == 0.0


def test_zero_band_flag():
    # free particle: the k = 0 eigenvalue sits exactly in the zero band
    g = GridSpec(d=1, N=16, L=2.0)
    spec = HamiltonianSpec(grid=g, h=1.0, V=constant_potential(g, 0.0))
    ns = negative_spectrum(spec)
    assert ns.zero_band


def test_default_tol_zero_scales():
    g = GridSpec(d=1, N=32, L=2.0)
    lo = default_tol_zero(HamiltonianSpec(grid=g, h=0.1, V=constant_potential(g, 1.0)))
    hi = default_tol_zero(HamiltonianSpec(grid=g, h=1.0, V=constant_potential(g, 1.0)))
    assert 0 < lo < hi


def test_dense_eigh_agrees_with_numpy(rng):
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    M = M + M.conj().T
    ref = np.linalg.eigvalsh(M)
    vals, vecs = dense_eigh(M.copy(), upper=ref[-1] + 1.0)  # every eigenpair
    assert vals.shape == (40,)
    np.testing.assert_allclose(vals, ref, atol=1e-10)
    resid = M @ vecs - vecs * vals
    assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(vals))


def test_current_vanishes_without_field():
    # real eigenfunctions at A = 0 carry no paramagnetic current; the
    # residual is the eigenfunction's Nyquist content, so it dies out fast
    # as the grid is refined
    sizes, norms = (32, 64, 128), []
    for N in sizes:
        g = GridSpec(d=1, N=N, L=2.0)
        spec = HamiltonianSpec(grid=g, h=0.5, V=bump_potential(g, amplitude=3.0))
        ns = negative_spectrum(spec)
        J = current(ns)
        norms.append(J.norm())
    assert norms[0] < 1e-3
    assert norms[1] < norms[0] / 10
    assert norms[2] < 1e-7


def test_current_reacts_to_field():
    from fermifield.builders import random_divfree_potential

    g = GridSpec(d=3, N=8, L=2.0)
    A = random_divfree_potential(g, seed=4, kmax=2, amplitude=0.2)
    spec = HamiltonianSpec(grid=g, h=0.6, A=A,
                           V=bump_potential(g, amplitude=10.0, radius=0.7))
    ns = negative_spectrum(spec)
    assert len(ns.eigenvalues) > 0
    J = current(ns)
    assert J.norm() > 1e-6


@pytest.mark.parametrize("flavor", ["schrodinger", "pauli"])
def test_current_of_a_constant_cutoff_scales_by_its_square(flavor):
    # psi = c: c (T - V) c has the eigenvectors of T - V, so the current of
    # psi u is c^2 times the bare current; a current that dropped psi would
    # not see c at all
    from fermifield.builders import random_divfree_potential
    from fermifield.grid import ScalarField

    g = GridSpec(d=3, N=8, L=2.0)
    A = random_divfree_potential(g, seed=4, kmax=2, amplitude=0.2)
    bare = HamiltonianSpec(grid=g, h=0.6, A=A, flavor=flavor,
                           V=bump_potential(g, amplitude=10.0, radius=0.7))
    c = 0.8
    local = replace(bare, psi=ScalarField(g, np.full(g.shape, c)))
    ns_bare, ns_local = negative_spectrum(bare), negative_spectrum(local)
    assert len(ns_local.eigenvalues) == len(ns_bare.eigenvalues) > 0
    J_bare, J_local = current(ns_bare), current(ns_local)
    assert J_bare.norm() > 1e-6
    assert (J_local - c**2 * J_bare).norm() <= 1e-9 * J_bare.norm()


def test_iterative_block_operators_match_columns(spec3d, rng):
    from fermifield.builders import random_divfree_potential
    from fermifield.grid import _fft

    spec = spec3d.with_A(random_divfree_potential(spec3d.grid, seed=2, amplitude=0.3))
    op, minv = spectral._plane_wave_operator(spec), spectral._kinetic_inverse(spec)
    X = rng.standard_normal((spec.dim, 6)) + 1j * rng.standard_normal((spec.dim, 6))
    for lin in (op, minv):
        block = lin(X)
        cols = np.concatenate([lin(X[:, i:i + 1]) for i in range(6)], axis=1)
        np.testing.assert_allclose(block, cols, rtol=0, atol=1e-13 * np.max(np.abs(cols)))
    # column i holds the unitary plane-wave coefficients of the field u_i
    shape = (spec.spin,) + spec.grid.shape
    fields = [spectral._samples(spec, X[:, i:i + 1]).reshape(shape) for i in range(6)]
    by_field = np.stack([_fft(apply(spec, SpinorField(spec.grid, u)).data, 3, "ortho").ravel()
                         for u in fields], axis=1)
    np.testing.assert_allclose(op(X), by_field, rtol=0, atol=1e-13 * np.max(np.abs(by_field)))


def test_residual_check_catches_one_bad_vector_in_a_block(spec1d, monkeypatch):
    # blocks of 3 columns: the perturbed vector sits in the last, partial block
    monkeypatch.setattr(operators, "COLUMN_BLOCK_BYTES", 3 * 16 * spec1d.dim)
    import scipy.linalg

    vals, vecs = scipy.linalg.eigh(spectral.dense_matrix(spec1d))
    vals, vecs = vals[:7], vecs[:, :7] / np.sqrt(spec1d.grid.weight)
    spectral._residual_check(spec1d, vals, vecs)
    bad = vecs.copy()
    bad[:, 6] += 1e-3 * bad[:, 0]
    with pytest.raises(spectral.EigenFailure):
        spectral._residual_check(spec1d, vals, bad)


def _full_matrix(spec):
    """Reference: psi (T - V) psi on every point, whatever supp psi; dense_matrix's assembly."""
    H = spectral.dense_matrix(replace(spec, psi=None))
    if spec.psi is not None:
        psi = np.tile(spec.psi.data.ravel(), spec.spin)
        H *= psi[:, None]
        H *= psi
    return H


def _full_eigh_kept(spec, tol_zero):
    """Reference: every eigenvalue of the whole dense matrix, then the <= tol_zero filter."""
    vals = np.linalg.eigvalsh(_full_matrix(spec))
    return vals[vals <= tol_zero]


def _with_kernel(ns):
    """ns's stored eigenvalues and its stats.kernel * stats.copies counted zeros, ascending."""
    return np.sort(np.concatenate([ns.eigenvalues, np.zeros(ns.stats.kernel * ns.stats.copies)]))


def _subset_cases():
    from fermifield.builders import cutoff_ball, random_divfree_potential

    g1 = GridSpec(d=1, N=32, L=2.0)
    g3 = GridSpec(d=3, N=4, L=2.0)
    A3 = random_divfree_potential(g3, seed=3, kmax=1, amplitude=0.3)
    return {
        "schrodinger-1d": HamiltonianSpec(grid=g1, h=0.5, V=bump_potential(g1, amplitude=3.0)),
        "pauli-A": HamiltonianSpec(grid=g3, h=0.6, flavor="pauli", A=A3,
                                   V=bump_potential(g3, amplitude=10.0, radius=0.7)),
        "empty": HamiltonianSpec(grid=g1, h=1.0, V=constant_potential(g1, -1.0)),
        "psi-zero-band": HamiltonianSpec(grid=g3, h=0.6, A=A3, psi=cutoff_ball(g3, 0.6),
                                         V=bump_potential(g3, amplitude=8.0, radius=0.7)),
    }


@pytest.mark.parametrize("case", ["schrodinger-1d", "pauli-A", "empty", "psi-zero-band"])
def test_dense_subset_equals_full_eigh_filtered(case):
    spec = _subset_cases()[case]
    ns = negative_spectrum(spec)
    ref = _full_eigh_kept(spec, ns.tol_zero)
    assert len(_with_kernel(ns)) == len(ref)
    np.testing.assert_allclose(_with_kernel(ns), ref, rtol=0, atol=1e-12)
    assert len(ns.eigenvectors) == len(ns.eigenvalues)
    if case == "empty":
        assert ns.sum == 0.0 and not ns.zero_band
    if case == "psi-zero-band":
        # psi (T - V) psi vanishes outside supp psi: a whole band sits at 0, every
        # kept pair in ker psi, counted and not stored
        assert ns.zero_band and ns.stats.kernel > 1 and len(ns.eigenvalues) == 0
        assert np.count_nonzero(np.abs(ref) <= ns.tol_zero) > 1
        full = _full_dense_spectrum(spec, ns.tol_zero)
        assert full.zero_band
        # the reference's kept columns lie in ker psi up to round-off: against the
        # current of the same operator without psi, theirs is round-off too
        assert not np.any(current(ns).data)
        bare = current(negative_spectrum(replace(spec, psi=None)))
        assert current(full).norm() <= 1e-12 * bare.norm()


def test_dense_eigh_subset_matches_full(rng):
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    M = M + M.conj().T
    full_vals = np.linalg.eigvalsh(M)
    for H in (M.copy(), np.asfortranarray(M)):  # C order goes in as conj(H)
        vals, vecs = dense_eigh(H, upper=0.0)
        np.testing.assert_allclose(vals, full_vals[full_vals <= 0.0], atol=1e-12)
        np.testing.assert_allclose(M @ vecs, vecs * vals,
                                   atol=1e-12 * np.max(np.abs(vals)))
    none, empty = dense_eigh(M.copy(), upper=full_vals[0] - 1.0)
    assert none.shape == (0,) and empty.shape == (40, 0)


# ---------------------------------------------------------------------------
# spin reduction, Weyl-sized start block, grown blocks, lobpcg bookkeeping


def _spin_cases():
    from fermifield.grid import ScalarField, VectorField

    g3 = GridSpec(d=3, N=8, L=2.0)
    V3 = bump_potential(g3, amplitude=10.0, radius=0.7)
    psi = ScalarField(g3, 0.5 + 0.5 * bump_potential(g3, amplitude=1.0, radius=0.8).data)
    return {
        "pauli-A-none": HamiltonianSpec(grid=g3, h=0.6, flavor="pauli", V=V3),
        "pauli-A-zero": HamiltonianSpec(grid=g3, h=0.6, flavor="pauli", V=V3,
                                        A=VectorField.zero(g3)),
        "pauli-psi": HamiltonianSpec(grid=g3, h=0.6, flavor="pauli", V=V3, psi=psi),
    }


@pytest.mark.parametrize("iterative", [False, True])
@pytest.mark.parametrize("case", ["pauli-A-none", "pauli-A-zero", "pauli-psi"])
def test_spin_reduction_matches_full_dense(case, iterative, monkeypatch):
    spec = _spin_cases()[case]
    if iterative:
        # the full problem is above the limit, the reduced one below it
        monkeypatch.setattr(spectral, "DENSE_LIMIT", spec.dim - 1)
    ns = negative_spectrum(spec, seed=1)
    ref = _full_eigh_kept(spec, ns.tol_zero)
    scale = spectral._operator_scale(spec)
    assert len(ref) > 0 and len(ns.eigenvalues) == len(ref)
    np.testing.assert_allclose(ns.eigenvalues, ref, rtol=0, atol=1e-10 * scale)
    np.testing.assert_array_equal(ns.eigenvalues[0::2], ns.eigenvalues[1::2])
    assert ns.stats.copies == 2 and ns.stats.dim == spec.dim // 2
    # a localized spec stays dense at any DENSE_LIMIT
    assert ns.stats.certificate == ("probe" if iterative and spec.psi is None else "lapack")
    assert ns.spec is spec


def test_spin_reduction_skipped_with_field(spec3d):
    from fermifield.builders import random_divfree_potential

    g = spec3d.grid
    spec = HamiltonianSpec(grid=g, h=0.6, flavor="pauli", V=spec3d.V,
                           A=random_divfree_potential(g, seed=2, kmax=1, amplitude=0.3))
    ns = negative_spectrum(spec)
    assert ns.stats.copies == 1 and ns.stats.dim == spec.dim


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16), (3, 8)])
def test_weyl_count_constant_potential(d, N):
    g = GridSpec(d=d, N=N, L=2.0)
    h, v0, L = 0.3, 4.0, 2.0
    closed = {  # |B_d| v0^{d/2} L^d / (2 pi h)^d
        1: L * np.sqrt(v0) / (np.pi * h),
        2: v0 * L**2 / (4 * np.pi * h**2),
        3: v0**1.5 * L**3 / (6 * np.pi**2 * h**3),
    }[d]
    spec = HamiltonianSpec(grid=g, h=h, V=constant_potential(g, v0))
    assert spectral._weyl_count(spec) == pytest.approx(closed, rel=1e-12)
    if d == 3:  # two spin components
        pauli = replace(spec, flavor="pauli")
        assert spectral._weyl_count(pauli) == pytest.approx(2 * closed, rel=1e-12)


def _recording_lobpcg(monkeypatch, calls, warn=False):
    """Wrap lobpcg where spectral looks it up; record (X, tol, vals, vecs) per call."""
    import scipy.sparse.linalg as spla

    original = spla.lobpcg

    def wrapped(A, X, *args, **kwargs):
        if warn:
            warnings.warn("not reaching the requested tolerance", UserWarning)
        start = X.copy()  # lobpcg orthonormalizes X in place
        out = original(A, X, *args, **kwargs)
        calls.append((start, kwargs["tol"], out[0], out[1]))
        return out

    monkeypatch.setattr(spla, "lobpcg", wrapped)


def test_grown_block_starts_from_previous_vectors(monkeypatch):
    g = GridSpec(d=1, N=128, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.15, V=bump_potential(g, amplitude=20.0))
    dense = negative_spectrum(spec)
    assert len(dense.eigenvalues) >= 6
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    monkeypatch.setattr(spectral, "_weyl_count", lambda s: 0.0)
    calls = []
    _recording_lobpcg(monkeypatch, calls)
    ns = negative_spectrum(spec, seed=2)
    assert ns.sum == pytest.approx(dense.sum, rel=1e-8)
    # the blocks grow from 4 on N / 2, the half-grid start
    grown = ns.stats.coarse.blocks
    assert len(grown) >= 2 and grown[0] == 4
    assert len(calls) == len(grown) + len(ns.stats.blocks) + 1  # the probe comes last
    chain = calls[:len(grown)]
    for (_, _, vals, vecs), (X_next, _, _, _) in zip(chain, chain[1:]):
        prev = vecs[:, np.argsort(vals)]
        np.testing.assert_array_equal(X_next[:, :prev.shape[1]], prev)


# d = 3, N / 2 = 8: one coarse call, then the fine block and the probe
@pytest.mark.parametrize("d,N,h", [(3, 16, 0.6), (2, 32, 0.3)])
def test_lobpcg_tolerance_is_scaled(d, N, h, monkeypatch):
    g = GridSpec(d=d, N=N, L=2.0)
    spec = HamiltonianSpec(grid=g, h=h, V=bump_potential(g, amplitude=6.0, radius=0.7))
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    calls = []
    _recording_lobpcg(monkeypatch, calls)
    ns = negative_spectrum(spec)
    scale = spectral._operator_scale(spec)
    assert default_tol_zero(spec) == pytest.approx(1e-8 * scale, rel=1e-15)
    coarse = ns.stats.coarse
    n_coarse = len(coarse.blocks)
    assert n_coarse >= 1
    g_half = GridSpec(d=d, N=N // 2, L=2.0)
    half = replace(spec, grid=g_half, V=bump_potential(g_half, amplitude=6.0, radius=0.7))
    coarse_scale = spectral._operator_scale(half)
    assert [tol for _, tol, _, _ in calls[:n_coarse]] == [
        pytest.approx(1e-4 * coarse_scale)] * n_coarse
    assert len(coarse.iterations) == n_coarse
    assert [tol for _, tol, _, _ in calls[n_coarse:-1]] == [pytest.approx(1e-10 * scale)] * len(
        ns.stats.blocks)
    assert calls[-1][1] == pytest.approx(1e-8 * scale)
    assert ns.stats.worst_residual <= 1e-7 * scale
    assert len(ns.stats.iterations) == len(calls) - n_coarse
    assert max(ns.stats.iterations) < 400


def test_lobpcg_warning_is_counted_not_shown(spec1d, monkeypatch, capsys):
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    quiet = negative_spectrum(spec1d)
    calls = []
    _recording_lobpcg(monkeypatch, calls, warn=True)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        ns = negative_spectrum(spec1d)
    assert shown == []
    assert capsys.readouterr() == ("", "")
    # N = 32: the half-grid call counts apart from the fine ones, and lobpcg
    # solves its dimension of 16 densely, with no iterations to warn about
    assert ns.stats.coarse.iterations == (0,) and ns.stats.coarse.unconverged == 0
    assert ns.stats.unconverged == len(ns.stats.iterations) == len(calls) - 1
    assert ns.stats.unconverged > quiet.stats.unconverged
    assert ns.sum == quiet.sum


def test_first_block_is_weyl_sized_with_two_guards_and_probe_is_one_column(monkeypatch):
    # the Weyl-sized block is the half grid's
    g = GridSpec(d=3, N=16, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.4, V=bump_potential(g, amplitude=10.0, radius=0.7))
    half = GridSpec(d=3, N=8, L=2.0)
    weyl = spectral._weyl_count(replace(spec, grid=half, V=bump_potential(half, 10.0, 0.7)))
    first = max(4, int(np.ceil(1.25 * weyl)) + 2)
    assert first == 6  # Weyl count 2.52: the formula, not the floor of 4
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    calls = []
    _recording_lobpcg(monkeypatch, calls)
    ns = negative_spectrum(spec, seed=3)
    st = ns.stats
    assert st.coarse.blocks == (first,)
    assert calls[0][0].shape == (half.size, first)
    X_probe, tol, _, _ = calls[-1]
    assert X_probe.shape == (spec.dim, 1)
    assert tol == pytest.approx(1e-8 * spectral._operator_scale(spec))
    # drawn independently: not one of the main block's columns, nor near their span
    X_main, _, _, vecs = next(c for c in calls if c[0].shape[0] == spec.dim)  # orthonormal
    assert not np.any(np.all(X_main == X_probe, axis=0))
    p = X_probe[:, 0]
    assert np.linalg.norm(vecs.conj().T @ p) < 0.5 * np.linalg.norm(p)


def test_preconditioner_inverts_kinetic_energy_on_plane_waves():
    g = GridSpec(d=3, N=8, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.6, flavor="pauli",
                           V=bump_potential(g, amplitude=6.0, radius=0.7))
    minv = spectral._kinetic_inverse(spec)
    k1 = 2 * np.pi / g.L
    x = np.meshgrid(*([g.axis] * 3), indexing="ij")
    for m, s in [((0, 0, 0), 0), ((1, 0, 0), 1), ((2, -1, 3), 0), ((-4, 1, 0), 1)]:
        k = [k1 * mj for mj in m]
        e = np.zeros((2,) + g.shape, dtype=complex)
        e[s] = np.exp(1j * sum(kj * xj for kj, xj in zip(k, x)))
        want = e / (spec.h**2 * (sum(kj**2 for kj in k) + k1**2))
        got = spectral._samples(spec, minv(spectral._coefficients(spec, e.reshape(-1, 1))))
        np.testing.assert_allclose(got[:, 0], want.ravel(), rtol=0, atol=1e-12)


def test_matvecs_count_every_operator_column_lobpcg_applies(monkeypatch):
    N = 16  # a half-grid start on N = 8
    g = GridSpec(d=3, N=N, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.6, V=bump_potential(g, amplitude=6.0, radius=0.7))
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    applied, columns = [], {}
    real_apply, fourier_apply = spectral.apply, spectral.apply_fourier

    def counted(spec, U):
        applied.append(U.shape[1])
        return real_apply(spec, U)

    def counted_fourier(spec, C):
        columns[spec.grid.N] = columns.get(spec.grid.N, 0) + C.shape[1]
        return fourier_apply(spec, C)

    monkeypatch.setattr(spectral, "apply", counted)
    monkeypatch.setattr(spectral, "apply_fourier", counted_fourier)
    ns = negative_spectrum(spec)
    # lobpcg applies the operator on coefficients; on samples, this real
    # operator's Rayleigh-Ritz step and the residual check apply each kept
    # vector once
    assert sum(applied) == 2 * len(ns.eigenvalues)
    assert ns.stats.matvecs == columns[N] > 0
    coarse = ns.stats.coarse
    assert (coarse.dim, coarse.matvecs) == (spec.dim // 8, columns[N // 2])
    assert len(columns) == 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zero_padding_reproduces_a_band_limited_field(d, rng):
    N = 16
    fine, half = GridSpec(d=d, N=N, L=2.0), GridSpec(d=d, N=N // 2, L=2.0)
    spec = HamiltonianSpec(grid=fine, h=0.5)
    m = np.arange(-N // 4, N // 4)  # every wavenumber the half grid holds
    coeff = rng.standard_normal((len(m),) * d) + 1j * rng.standard_normal((len(m),) * d)

    def samples(g):  # sum_m coeff_m exp(i k_m . x), one axis contracted at a time
        wave = np.exp(2j * np.pi * m[:, None] * g.axis[None, :] / g.L)
        out = coeff
        for _ in range(d):
            out = np.tensordot(out, wave, axes=([0], [0]))
        return out

    u_fine, u_half = samples(fine), samples(half)
    c_half = _fft_ortho(u_half[None, None], d)
    padded = spectral._zero_pad(c_half, N, d)
    back = spectral._samples(spec, spectral._columns(padded))[:, 0].reshape(fine.shape)
    np.testing.assert_allclose(back, u_fine, rtol=0, atol=1e-14 * np.abs(u_fine).max())


def _fft_ortho(a, d):
    from fermifield.grid import _fft

    return _fft(a, d, "ortho")


def _half_grid_cases():
    from fermifield.builders import random_divfree_potential

    g1, g2 = GridSpec(d=1, N=128, L=2.0), GridSpec(d=2, N=32, L=2.0)
    return {
        "schrodinger-1d": HamiltonianSpec(grid=g1, h=0.15, V=bump_potential(g1, amplitude=20.0)),
        "schrodinger-2d-A": HamiltonianSpec(
            grid=g2, h=0.2, V=bump_potential(g2, 5.0, 0.6),
            A=random_divfree_potential(g2, seed=1, amplitude=0.3)),
        # no Weyl estimate: the coarse block grows from 4 before the fine solve
        "grows-on-the-half-grid": HamiltonianSpec(grid=g1, h=0.15,
                                                  V=bump_potential(g1, amplitude=20.0)),
    }


def _half_grid(spec):
    """spec on N / 2 with V and A sampled at every other point, as the probe route starts."""
    g = spec.grid
    half = GridSpec(d=g.d, N=g.N // 2, L=g.L)
    at = (...,) + (slice(None, None, 2),) * g.d

    def sampled(f):
        return None if f is None else type(f)(half, f.data[at])

    return replace(spec, grid=half, V=sampled(spec.V), A=sampled(spec.A))


@pytest.mark.parametrize("case", list(_half_grid_cases()))
def test_half_grid_start_matches_dense(case, monkeypatch):
    spec = _half_grid_cases()[case]
    dense, _ = dense_eigh(spectral.dense_matrix(spec), upper=default_tol_zero(spec))
    assert len(dense) >= 4
    coarse_kept, _ = dense_eigh(spectral.dense_matrix(_half_grid(spec)),
                                upper=default_tol_zero(spec))
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    if case == "grows-on-the-half-grid":
        monkeypatch.setattr(spectral, "_weyl_count", lambda s: 0.0)
    ns = negative_spectrum(spec, seed=1)
    st = ns.stats
    assert (st.certificate, st.coarse.dim) == ("probe", spec.dim // 2**spec.grid.d)
    # the fine block is the half grid's kept vectors, and its probe certifies the count
    assert st.blocks[0] == len(coarse_kept) and st.probe_lowest > ns.tol_zero
    if case == "grows-on-the-half-grid":
        assert st.coarse.blocks[0] == 4 and len(st.coarse.blocks) >= 2
    assert len(ns.eigenvalues) == len(dense)
    assert ns.sum == pytest.approx(np.minimum(dense, 0.0).sum(), rel=1e-10)


def test_probe_regrows_a_block_that_misses_a_kept_vector(monkeypatch):
    spec = _half_grid_cases()["schrodinger-2d-A"]
    dense, _ = dense_eigh(spectral.dense_matrix(spec), upper=default_tol_zero(spec))
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    original = spectral._coarse_start

    def missing_one(*args):  # the start block lacks an interior kept vector
        start, warm, coarse = original(*args)
        assert start.shape[1] == len(dense) >= 3
        return np.delete(start, 1, axis=1), warm, coarse

    monkeypatch.setattr(spectral, "_coarse_start", missing_one)
    ns = negative_spectrum(spec, seed=1)
    st = ns.stats
    # the first probe finds the missed eigenvalue, joins the block, and the
    # second probe certifies the regrown block's count
    assert st.blocks == (len(dense) - 1, len(dense)) and len(st.iterations) == 4
    assert st.probe_lowest > ns.tol_zero
    assert len(ns.eigenvalues) == len(dense)
    assert ns.sum == pytest.approx(np.minimum(dense, 0.0).sum(), rel=1e-10)


def test_warm_probe_cannot_hide_a_missed_vector(monkeypatch):
    spec = _half_grid_cases()["schrodinger-2d-A"]
    every, vecs = dense_eigh(spectral.dense_matrix(spec), upper=np.inf)
    dense = every[every <= default_tol_zero(spec)]
    # an exact eigenvector above the block: alone it would hold the probe there
    above = spectral._coefficients(spec, vecs[:, len(dense):len(dense) + 1])[:, 0]
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    original = spectral._coarse_start

    def missing_one_warm_above(*args):
        start, _, coarse = original(*args)
        return np.delete(start, 1, axis=1), above, coarse

    monkeypatch.setattr(spectral, "_coarse_start", missing_one_warm_above)
    ns = negative_spectrum(spec, seed=1)
    st = ns.stats
    assert st.blocks == (len(dense) - 1, len(dense)) and st.probe_lowest > ns.tol_zero
    assert len(ns.eigenvalues) == len(dense)
    assert ns.sum == pytest.approx(np.minimum(dense, 0.0).sum(), rel=1e-10)


@pytest.mark.parametrize("case", ["schrodinger-1d", "schrodinger-2d-A"])
def test_warm_vector_is_the_padded_first_coarse_vector_above_tol_zero(case):
    spec = _half_grid_cases()[case]
    tol_zero, g = default_tol_zero(spec), spec.grid
    start, warm, _ = spectral._coarse_start(spec, tol_zero, np.random.default_rng(1))
    half = _half_grid(spec)
    vals, vecs = dense_eigh(spectral.dense_matrix(half), upper=np.inf)
    m = np.count_nonzero(vals <= tol_zero)
    assert start.shape == (spec.dim, m) and warm.shape == (spec.dim,)
    assert vals[m + 1] - vals[m] > 0.1  # simple: its vector is fixed up to phase
    want = spectral._columns(spectral._zero_pad(
        spectral._block(half, spectral._coefficients(half, vecs[:, m:m + 1])), g.N, g.d))[:, 0]
    overlap = abs(np.vdot(want, warm)) / (np.linalg.norm(want) * np.linalg.norm(warm))
    assert overlap > 1 - 1e-6
    # nothing outside the half grid's wavenumbers
    assert np.count_nonzero(warm) <= half.dim


def test_block_past_the_cap_raises_eigen_failure(spec1d, monkeypatch):
    # lobpcg refuses a probe's Y with fewer than 5 dimensions left over
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)

    def too_wide(spec, tol_zero, rng):
        return rng.standard_normal((spec.dim, spec.dim - 4)) + 0j, None, spectral.SolveStats()

    monkeypatch.setattr(spectral, "_coarse_start", too_wide)
    with pytest.raises(spectral.EigenFailure, match="more than 27 vectors"):
        negative_spectrum(spec1d)


def test_probe_start_is_outside_the_span_of_the_main_start(monkeypatch):
    # the main block starts from the half grid
    g = GridSpec(d=3, N=16, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.45, V=bump_potential(g, amplitude=6.0, radius=0.7))
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    calls = []
    _recording_lobpcg(monkeypatch, calls)
    ns = negative_spectrum(spec, seed=3)
    assert ns.stats.coarse is not None
    fine = [c for c in calls if c[0].shape[0] == spec.dim]
    X_main, X_probe = fine[0][0], fine[-1][0]
    assert X_main.shape[1] == ns.stats.blocks[0] and X_probe.shape[1] == 1
    Q, _ = np.linalg.qr(X_main)
    p = X_probe[:, 0]
    assert np.linalg.norm(p - Q @ (Q.conj().T @ p)) > 0.9 * np.linalg.norm(p)
    # the probe's vector lies on the complement of the kept ones (lobpcg's Y)
    (_, _, vals, vecs), (_, _, _, probe) = fine[-2:]
    kept = vecs[:, vals <= ns.tol_zero]
    assert kept.shape[1] == len(ns.eigenvalues) > 0
    assert np.linalg.norm(kept.conj().T @ probe) <= 1e-10 * np.linalg.norm(probe)


def test_probe_lowest_is_the_probe_value_above_the_floor(spec3d, monkeypatch):
    dense = negative_spectrum(spec3d).stats
    assert (dense.certificate, dense.probe_lowest, dense.inertia) == ("lapack", None, None)
    assert dense.coarse is None and dense.matvecs == 0
    g2 = GridSpec(d=2, N=32, L=2.0)
    inertia = negative_spectrum(HamiltonianSpec(grid=g2, h=0.3, V=bump_potential(g2, 5.0, 0.6)),
                                seed=1).stats
    assert (inertia.certificate, inertia.probe_lowest, inertia.coarse) == ("inertia", None, None)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
    calls = []
    _recording_lobpcg(monkeypatch, calls)
    ns = negative_spectrum(spec3d)
    assert (ns.stats.certificate, ns.stats.inertia) == ("probe", None)
    assert ns.stats.probe_lowest == calls[-1][2].min() > ns.tol_zero
    # on the complement of the kept block: the first eigenvalue above it
    every, _ = dense_eigh(spectral.dense_matrix(spec3d), upper=np.inf)
    above = every[len(ns.eigenvalues)]
    assert abs(ns.stats.probe_lowest - above) <= 1e-6 * spectral._operator_scale(spec3d)
    # the half-grid start's own record, on N / 2 = 4
    coarse = ns.stats.coarse
    assert isinstance(coarse, spectral.SolveStats)
    assert coarse.dim == ns.stats.dim // 2**spec3d.grid.d
    assert coarse.coarse is None and coarse.matvecs > 0


# ---------------------------------------------------------------------------
# inertia route


def _inertia_cases():
    g1, g2, g3 = GridSpec(d=1, N=32, L=2.0), GridSpec(d=2, N=16, L=2.0), GridSpec(d=3, N=8, L=2.0)
    from fermifield.builders import cutoff_ball, random_divfree_potential

    A = random_divfree_potential(g3, seed=2, kmax=1, amplitude=0.3)
    return {
        "schrodinger-1d": HamiltonianSpec(grid=g1, h=0.3, V=bump_potential(g1, 5.0, 0.6)),
        "schrodinger-2d": HamiltonianSpec(grid=g2, h=0.4, V=bump_potential(g2, 5.0, 0.6)),
        "schrodinger-3d": HamiltonianSpec(grid=g3, h=0.6, V=bump_potential(g3, 6.0, 0.7)),
        "pauli-with-A": HamiltonianSpec(grid=g3, h=0.5, flavor="pauli", A=A,
                                        V=bump_potential(g3, 10.0, 0.7)),
        # psi vanishes off a ball: ker psi is a band of exact zeros below tol_zero
        "psi-zero-band": HamiltonianSpec(grid=g3, h=0.6, psi=cutoff_ball(g3, 0.6),
                                         V=bump_potential(g3, 6.0, 0.7)),
    }


@pytest.mark.parametrize("case", list(_inertia_cases()))
def test_inertia_count_equals_dense_count(case):
    spec = _inertia_cases()[case]
    tol = default_tol_zero(spec)
    vals, _ = dense_eigh(_full_matrix(spec), upper=tol)
    assert spectral._inertia(_full_matrix(spec), tol) == len(vals) > 0
    if case == "psi-zero-band":
        assert np.sum(np.abs(vals) <= tol) > spec.dim // 2


@pytest.mark.parametrize("dtype", [float, complex])
def test_inertia_counts_two_by_two_pivots(dtype, rng):
    # [[0, B], [B^H, 0]] has eigenvalues +-sigma(B) and a zero diagonal, which
    # forces Bunch-Kaufman into 2x2 pivots; the diagonal shift moves the count
    n = 40
    B = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if dtype is complex else 0)
    H = np.block([[np.zeros((n, n)), B], [B.conj().T, np.zeros((n, n))]]).astype(dtype)
    H[np.arange(2 * n), np.arange(2 * n)] += 0.05 * rng.standard_normal(2 * n)
    from scipy.linalg import lapack

    trf = lapack.zhetrf if dtype is complex else lapack.dsytrf
    assert np.any(trf(H)[1] < 0)  # 2x2 pivots are exercised
    ev = np.linalg.eigvalsh(H)
    for shift in (ev[0] - 1.0, -0.3, 0.0, 0.7, ev[-1] + 1.0):
        assert spectral._inertia(H.copy(), shift) == np.count_nonzero(ev < shift)


def _dense_reference(spec):
    vals, vecs = dense_eigh(spectral.dense_matrix(spec), upper=default_tol_zero(spec))
    return vals, vecs / np.sqrt(spec.grid.weight)


@pytest.mark.parametrize("flavor", ["schrodinger", "pauli"])
def test_inertia_route_matches_dense(flavor):
    from fermifield.builders import random_divfree_potential

    if flavor == "pauli":  # complex ?hetrf
        g = GridSpec(d=3, N=8, L=2.0)
        spec = HamiltonianSpec(grid=g, h=0.6, flavor="pauli", V=bump_potential(g, 6.0, 0.7),
                               A=random_divfree_potential(g, seed=1, amplitude=0.3))
    else:  # A = None: real ?sytrf
        g = GridSpec(d=2, N=32, L=2.0)
        spec = HamiltonianSpec(grid=g, h=0.3, V=bump_potential(g, 5.0, 0.6))
    ns = negative_spectrum(spec, seed=1)
    vals, vecs = _dense_reference(spec)
    st = ns.stats
    assert (st.certificate, st.inertia, st.fallback) == ("inertia", len(vals), False)
    assert st.blocks == (len(vals),) and st.probe_lowest is None and st.matvecs > 0
    np.testing.assert_allclose(ns.eigenvalues, vals, rtol=1e-12, atol=0)
    w = g.weight
    np.testing.assert_allclose(ns.vectors @ ns.vectors.conj().T * w, vecs @ vecs.conj().T * w,
                               rtol=0, atol=1e-10)


def test_inertia_route_falls_back_to_dense_when_lobpcg_misses(monkeypatch):
    g = GridSpec(d=2, N=32, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.3, V=bump_potential(g, 5.0, 0.6))
    original = spectral._lobpcg_lowest

    def drop_lowest(*args, **kwargs):
        vals, vecs = original(*args, **kwargs)
        return vals[1:], vecs[:, 1:]

    monkeypatch.setattr(spectral, "_lobpcg_lowest", drop_lowest)
    ns = negative_spectrum(spec, seed=1)
    vals, _ = _dense_reference(spec)
    st = ns.stats
    assert (st.certificate, st.inertia, st.fallback) == ("lapack", len(vals), True)
    assert st.probe_lowest is None and len(st.iterations) == 1
    np.testing.assert_array_equal(ns.eigenvalues, vals)


def test_inertia_route_with_nothing_below_tol_zero_runs_no_lobpcg():
    g = GridSpec(d=2, N=32, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.3, V=constant_potential(g, -1.0))
    ns = negative_spectrum(spec, seed=1)
    st = ns.stats
    assert (st.certificate, st.inertia, st.fallback) == ("inertia", 0, False)
    assert (st.blocks, st.iterations, st.matvecs) == ((), (), 0)
    assert ns.eigenvalues.shape == (0,) and ns.vectors.shape == (spec.dim, 0)


# ---------------------------------------------------------------------------
# Sternheimer solves


def _sternheimer_case(spec, rng):
    """Spectrum, random right-hand sides and the kept nonpositive eigenvalues as shifts."""
    ns = negative_spectrum(spec)
    shifts = ns.eigenvalues[ns.eigenvalues <= 0.0]
    assert shifts.size > 0
    rhs = rng.standard_normal((spec.dim, shifts.size)) + 1j * rng.standard_normal(
        (spec.dim, shifts.size))
    return ns, rhs, shifts


@pytest.mark.parametrize("flavor", ["schrodinger", "pauli"])
def test_sternheimer_sums_the_eigenpairs_above_the_block(spec3d, flavor, rng):
    import scipy.linalg

    from fermifield.builders import random_divfree_potential

    g = spec3d.grid
    spec = replace(spec3d, flavor=flavor, V=bump_potential(g, amplitude=10.0, radius=0.7),
                   A=random_divfree_potential(g, seed=2, kmax=1, amplitude=0.3))
    ns, rhs, shifts = _sternheimer_case(spec, rng)
    vals, vecs = scipy.linalg.eigh(spectral.dense_matrix(spec))
    vecs /= np.sqrt(spec.grid.weight)
    above = vals > ns.tol_zero
    U, lam = vecs[:, above], vals[above]
    coeff = (U.conj().T @ rhs) * spec.grid.weight / (lam[:, None] - shifts[None, :])
    ref = U @ coeff
    X = spectral.sternheimer(ns, rhs, shifts)
    np.testing.assert_allclose(X, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_sternheimer_takes_a_real_block_and_real_columns(spec3d, rng):
    ns = negative_spectrum(spec3d)  # A = None: real dense eigenvectors
    assert ns.vectors.dtype == np.float64
    rhs = rng.standard_normal((spec3d.dim, 3))
    shifts = np.repeat(ns.eigenvalues[0], 3)
    ref = spectral.sternheimer(ns, rhs.astype(complex), shifts)
    np.testing.assert_allclose(spectral.sternheimer(ns, rhs, shifts), ref,
                               rtol=0, atol=1e-13 * np.abs(ref).max())


def test_sternheimer_capped_below_convergence_raises(spec1d, rng, monkeypatch):
    ns, rhs, shifts = _sternheimer_case(spec1d, rng)
    spectral.sternheimer(ns, rhs, shifts)
    monkeypatch.setattr(spectral, "STERNHEIMER_MAXITER", 2)
    with pytest.raises(spectral.EigenFailure, match="Sternheimer"):
        spectral.sternheimer(ns, rhs, shifts)


def test_sternheimer_refuses_a_spectrum_that_only_counts_ker_psi(rng):
    # Q would leave ker psi's pairs <= tol_zero in its range: they are not stored
    spec = _localized_cases()["schrodinger-3d"]
    ns = negative_spectrum(spec)
    assert ns.stats.kernel > 0 and len(ns.eigenvalues) > 0
    rhs = rng.standard_normal((spec.dim, 1))
    with pytest.raises(ValueError, match="ker psi"):
        spectral.sternheimer(ns, rhs, ns.eigenvalues[:1])


# ---------------------------------------------------------------------------
# a localized operator solved on supp psi, with ker psi counted, not stored


def _localized_cases():
    from fermifield.builders import cutoff_ball, random_divfree_potential

    cases = {}
    for name, d, N, flavor, with_a in [("schrodinger-1d", 1, 32, "schrodinger", True),
                                       ("schrodinger-2d", 2, 16, "schrodinger", True),
                                       ("schrodinger-3d", 3, 8, "schrodinger", True),
                                       ("pauli-A", 3, 8, "pauli", True),
                                       ("pauli", 3, 8, "pauli", False)]:
        g = GridSpec(d=d, N=N, L=2.0)
        A = random_divfree_potential(g, seed=3, kmax=1, amplitude=0.3) if with_a else None
        cases[name] = HamiltonianSpec(grid=g, h=0.3, flavor=flavor, A=A,
                                      V=bump_potential(g, amplitude=10.0, radius=0.7),
                                      psi=cutoff_ball(g, 0.6))
    return cases


def _full_dense_spectrum(spec, tol_zero):
    """Reference: evr on the whole matrix of spec, columns quadrature-normalized."""
    vals, vecs = dense_eigh(_full_matrix(spec), upper=tol_zero)
    vecs /= np.sqrt(np.sum(np.abs(vecs) ** 2, axis=0) * spec.grid.weight)
    return spectral.NegativeSpectrum(spec, vals, vecs, tol_zero)


@pytest.mark.parametrize("case", list(_localized_cases()))
def test_localized_solve_on_the_support_matches_the_full_matrix(case, monkeypatch):
    spec = _localized_cases()[case]
    shapes, checked, eigh, check = [], [], spectral.dense_eigh, spectral._residual_check

    def recorded_eigh(H, upper):
        shapes.append(H.shape)
        return eigh(H, upper)

    def recorded_check(spec, vals, vecs):
        checked.append(vecs.shape[1])
        return check(spec, vals, vecs)

    monkeypatch.setattr(spectral, "dense_eigh", recorded_eigh)
    monkeypatch.setattr(spectral, "_residual_check", recorded_check)
    ns = negative_spectrum(spec)
    monkeypatch.undo()
    ref = _full_dense_spectrum(spec, ns.tol_zero)

    solved = spectral._spin_reduced(spec)
    support = np.count_nonzero(spec.psi.data) * solved.spin
    assert 0 < support < solved.dim
    assert shapes == [(support, support)] and ns.stats.dim == support
    assert checked == [len(ns.eigenvalues)]  # every stored pair, and only those
    if ns.stats.copies == 1:  # evr's columns, F-ordered: _block views them at spin 1
        assert ns.vectors.flags.f_contiguous
    # every stored column is felt by psi; ker psi is a count
    weighted = np.tile(spec.psi.data.ravel(), spec.spin)[:, None] * ns.vectors
    assert np.all(np.any(weighted != 0.0, axis=0))
    assert ns.stats.kernel * ns.stats.copies == spec.dim - support * ns.stats.copies
    below = ns.eigenvalues[ns.eigenvalues < -ns.tol_zero]
    ref_below = ref.eigenvalues[ref.eigenvalues < -ns.tol_zero]
    assert len(below) == len(ref_below) > 0
    scale = spectral._operator_scale(spec)
    np.testing.assert_allclose(below, ref_below, rtol=0, atol=1e-12 * scale)
    assert len(_with_kernel(ns)) == len(ref.eigenvalues) and ns.zero_band == ref.zero_band
    np.testing.assert_allclose(_with_kernel(ns), ref.eigenvalues, rtol=0, atol=1e-12 * scale)
    J, J_ref = current(ns), current(ref)
    assert J_ref.norm() > 0
    assert (J - J_ref).norm() <= 1e-12 * J_ref.norm()


def test_localized_solve_keeps_the_kernel_at_tol_zero_zero_only():
    spec = _localized_cases()["schrodinger-3d"]
    kernel = spec.dim - np.count_nonzero(spec.psi.data)
    at_zero = negative_spectrum(spec, tol_zero=0.0)  # check_variational_sandwich's cut
    ref = _full_dense_spectrum(spec, 0.0)
    scale = spectral._operator_scale(spec)
    assert at_zero.stats.kernel == kernel and at_zero.zero_band and ref.zero_band
    assert not np.any(at_zero.eigenvalues == 0.0)  # the kernel is counted, not stored
    # the reference's structural zeros sit at round-off on either side of the cut
    neg = at_zero.eigenvalues[at_zero.eigenvalues < 0.0]
    ref_neg = ref.eigenvalues[ref.eigenvalues < -1e-12 * scale]
    np.testing.assert_allclose(neg, ref_neg, rtol=0, atol=1e-12 * scale)
    assert abs(at_zero.sum - ref.sum) <= 1e-12 * scale
    J, J_ref = current(at_zero), current(ref)
    assert J_ref.norm() > 0
    assert (J - J_ref).norm() <= 1e-12 * J_ref.norm()
    below = negative_spectrum(spec, tol_zero=-1e-8 * scale)  # 0 is above the cut
    np.testing.assert_allclose(below.eigenvalues, neg, rtol=0, atol=1e-12 * scale)
    assert below.stats.kernel == 0 and not below.zero_band


@pytest.mark.parametrize("flavor", ["schrodinger", "pauli"])
def test_vanishing_psi_gives_only_kernel_pairs(flavor):
    from fermifield.grid import ScalarField

    g = GridSpec(d=3, N=4, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.6, flavor=flavor, V=bump_potential(g, amplitude=10.0),
                           psi=ScalarField(g, np.zeros(g.shape)))
    ns = negative_spectrum(spec)
    ref = _full_dense_spectrum(spec, ns.tol_zero)  # the zero matrix: dim pairs at 0
    assert ns.stats.dim == 0 and ns.zero_band and ref.zero_band
    assert ns.vectors.shape == (spec.dim, 0)  # every pair is ker psi's, counted
    np.testing.assert_array_equal(_with_kernel(ns), ref.eigenvalues)
    np.testing.assert_array_equal(_with_kernel(ns), np.zeros(spec.dim))
    assert not np.any(current(ns).data) and not np.any(current(ref).data)


def test_psi_nowhere_zero_takes_the_whole_matrix_bit_for_bit():
    from fermifield.builders import random_divfree_potential
    from fermifield.grid import ScalarField

    g = GridSpec(d=3, N=8, L=2.0)
    psi = ScalarField(g, 0.5 + 0.5 * bump_potential(g, amplitude=1.0, radius=0.8).data)
    spec = HamiltonianSpec(grid=g, h=0.6, V=bump_potential(g, amplitude=10.0, radius=0.7),
                           A=random_divfree_potential(g, seed=3, kmax=1, amplitude=0.3),
                           psi=psi)
    ns = negative_spectrum(spec)
    ref = _full_dense_spectrum(spec, ns.tol_zero)
    assert ns.stats.dim == spec.dim
    np.testing.assert_array_equal(ns.eigenvalues, ref.eigenvalues)
    np.testing.assert_array_equal(ns.vectors, ref.vectors)
    U = psi.data * operators._block(spec, ref.vectors)  # one block: m within the budget
    np.testing.assert_array_equal(current(ns).data,
                                  -np.real(operators._current_form(spec, U, U)))


def _variant_order_spec(N, r):
    """configs/variant_order.cfg's operator at A = 0 on N, localized to the ball of radius r."""
    from fermifield.builders import cutoff_ball

    g = GridSpec(d=3, N=N, L=4.0)
    return HamiltonianSpec(grid=g, h=0.6, V=bump_potential(g, amplitude=8.0, radius=1.2),
                           psi=cutoff_ball(g, r))


def test_localized_solve_above_the_dense_limit_takes_the_support_block():
    # dim 32768 > DENSE_LIMIT, but supp psi has 2103 points: one dense block
    spec = _variant_order_spec(32, 1.0)
    support = np.count_nonzero(spec.psi.data)
    assert spec.dim > spectral.DENSE_LIMIT >= support
    ns = negative_spectrum(spec)
    assert (ns.stats.certificate, ns.stats.dim) == ("lapack", support)
    assert ns.stats.kernel == spec.dim - support and ns.vectors.shape[0] == spec.dim
    assert len(ns.eigenvalues) > 0
    assert ns.stats.worst_residual <= 1e-12 * spectral._operator_scale(spec)
    assert ns.sum == pytest.approx(-1.84176, abs=1e-5)


def test_dense_block_above_the_limit_is_refused_naming_the_support():
    spec = _variant_order_spec(64, 1.0)
    support = np.count_nonzero(spec.psi.data)
    assert spec.spin * support > spectral.DENSE_LIMIT
    with pytest.raises(ValueError, match=f"{support} points of supp psi"):
        negative_spectrum(spec)
