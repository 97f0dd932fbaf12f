"""Hamiltonian application, dense assembly, the gauge and IMS identities."""

from dataclasses import replace

import numpy as np
import pytest

from fermifield.builders import (
    bump_potential,
    constant_potential,
    cutoff_ball,
    random_divfree_potential,
)
from fermifield.grid import (
    GridSpec,
    ScalarField,
    SpinorField,
    VectorField,
    divergence,
    gradient,
    jacobian,
)
from fermifield.operators import HamiltonianSpec, apply, apply_fourier, dense_matrix


def _random_spinor(g, spin, rng):
    data = rng.standard_normal((spin,) + g.shape) + 1j * rng.standard_normal(
        (spin,) + g.shape
    )
    return SpinorField(g, data)


def test_spec_rejects_a_complex_field(grid2d):
    # V, A and psi are real; a complex V would make apply non-Hermitian
    V = ScalarField(grid2d, np.ones(grid2d.shape) + 0.5j)
    with pytest.raises(ValueError, match="V must be a real field"):
        HamiltonianSpec(grid=grid2d, h=1.0, V=V)


def test_spec_validation(grid2d, grid3d):
    with pytest.raises(ValueError):
        HamiltonianSpec(grid=grid2d, h=0.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(grid=grid2d, h=1.0, flavor="dirac")
    with pytest.raises(ValueError):
        HamiltonianSpec(grid=grid2d, h=1.0, flavor="pauli")  # needs d = 3
    pauli = HamiltonianSpec(grid=grid3d, h=1.0, flavor="pauli")
    assert pauli.spin == 2
    assert pauli.dim == 2 * grid3d.size


def test_spin_follows_the_flavor(grid3d):
    schrodinger = HamiltonianSpec(grid=grid3d, h=1.0)
    assert schrodinger.spin == 1 and schrodinger.dim == grid3d.size
    assert replace(schrodinger, flavor="pauli").spin == 2
    with pytest.raises(TypeError):  # no longer a field to set
        HamiltonianSpec(grid=grid3d, h=1.0, spin=2)


def test_dense_matrix_is_hermitian(spec3d, rng):
    A = random_divfree_potential(spec3d.grid, seed=5, kmax=2, amplitude=0.4)
    spec = spec3d.with_A(A)
    H = dense_matrix(spec)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12 * np.max(np.abs(H))


def test_dense_matrix_matches_apply(spec1d, rng):
    H = dense_matrix(spec1d)
    u = _random_spinor(spec1d.grid, 1, rng)
    direct = apply(spec1d, u).data.ravel()
    via_matrix = H @ u.data.ravel()
    np.testing.assert_allclose(via_matrix, direct, atol=1e-10)


def test_pauli_factored_matches_expanded(rng):
    # [sigma.(D+A)]^2 applied directly vs (D+A)^2 + h sigma.B, the Schrodinger
    # operator with the same A on each spin component plus the Zeeman term. The two forms
    # agree only below the aliasing threshold, so both A and the spinor are
    # band-limited: second-order products stay inside the dual lattice.
    g = GridSpec(d=3, N=16, L=2.0)
    A = random_divfree_potential(g, seed=2, kmax=2, amplitude=0.5)
    spec = HamiltonianSpec(grid=g, h=0.7, flavor="pauli", A=A)
    uh = np.zeros((2,) + g.shape, dtype=complex)
    uh[:, :3, :3, :3] = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal(
        (2, 3, 3, 3)
    )
    u = SpinorField(g, np.fft.ifftn(uh, axes=(1, 2, 3)))
    lhs = apply(spec, u).data
    kinetic = apply(HamiltonianSpec(grid=g, h=0.7, A=A), u.data[None])[0]  # spin as a batch axis
    J = jacobian(A.data, g)  # J[i, j] = d_i A_j, so B_i = J[j, k] - J[k, j]
    B = [J[j, k] - J[k, j] for j, k in ((1, 2), (2, 0), (0, 1))]
    up, down = u.data
    zeeman = np.stack([B[2] * up + (B[0] - 1j * B[1]) * down,
                       (B[0] + 1j * B[1]) * up - B[2] * down])
    scale = np.max(np.abs(lhs))
    np.testing.assert_allclose(lhs, kinetic + spec.h * zeeman, atol=1e-11 * scale)


def test_localized_apply_sandwiches_psi(spec1d, rng):
    psi = ScalarField(spec1d.grid, np.cos(np.pi * spec1d.grid.axis / spec1d.grid.L) ** 2)
    loc = replace(spec1d, psi=psi)
    u = _random_spinor(spec1d.grid, 1, rng)
    lhs = apply(loc, u).data
    inner = apply(spec1d, SpinorField(spec1d.grid, psi.data * u.data)).data
    np.testing.assert_allclose(lhs, psi.data * inner, atol=1e-10)


def test_free_kinetic_is_minus_h2_div_grad(rng):
    # without A the core multiplies by h^2 |k|^2; on a field with no Nyquist
    # mode that is -h^2 div grad, whose first derivatives zero the Nyquist entry
    g = GridSpec(d=2, N=16, L=3.0)
    fh = np.fft.fft2(rng.standard_normal(g.shape))
    fh[g.N // 2, :] = fh[:, g.N // 2] = 0.0
    f = ScalarField(g, np.fft.ifft2(fh).real)
    spec = HamiltonianSpec(grid=g, h=0.7)
    lhs = apply(spec, SpinorField(g, f.data[None])).data[0]
    rhs = -spec.h**2 * divergence(gradient(f)).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_inadmissible_constant_shift_moves_spectrum():
    # a constant A = a makes the free operator the multiplier (hk + a)^2; unless
    # a is a multiple of 2 pi h / L no lattice relabelling undoes it
    g = GridSpec(d=1, N=32, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5)
    a = 0.123
    shifted = spec.with_A(VectorField(g, np.full((1,) + g.shape, a)))
    evals = np.linalg.eigvalsh(dense_matrix(shifted))
    (k,) = g.k
    np.testing.assert_allclose(evals, np.sort((spec.h * k + a) ** 2), atol=1e-10)
    free = np.linalg.eigvalsh(dense_matrix(spec))
    assert np.max(np.abs(evals - free)) > 0.1 * a**2


def test_gauge_shift_preserves_spectrum():
    from fermifield.spectral import negative_spectrum

    g = GridSpec(d=1, N=64, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, V=bump_potential(g, amplitude=4.0))
    # admissible shift: a multiple of 2 pi h / L, so the gauge phase is periodic
    unit = 2 * np.pi * spec.h / g.L
    shifted = spec.with_A(VectorField(g, np.full((1,) + g.shape, -3 * unit)))
    s0 = negative_spectrum(spec).sum
    s1 = negative_spectrum(shifted).sum
    assert s1 == pytest.approx(s0, rel=1e-10)


def test_ims_identity_is_exact(rng):
    # sum phi H phi = H + h^2 sum |grad phi|^2 for a smooth quadratic partition
    g = GridSpec(d=1, N=32, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, V=bump_potential(g, amplitude=2.0))
    (x,) = g.coords
    theta = 0.25 * np.pi * (1 - np.cos(2 * np.pi * x / g.L))
    cutoffs = [ScalarField(g, np.cos(theta)), ScalarField(g, np.sin(theta))]
    family = [replace(spec, psi=phi) for phi in cutoffs]
    err = spec.h**2 * sum(np.sum(gradient(phi).data ** 2, axis=0) for phi in cutoffs)

    uh = np.zeros(g.N, dtype=complex)
    uh[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u = SpinorField(g, np.fft.ifft(uh)[None, :])
    lhs = sum(np.real(u.inner(apply(loc, u))) for loc in family)
    rhs = np.real(u.inner(apply(spec, u))) + np.real(
        np.sum(np.conj(u.data) * err * u.data) * g.weight
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_constant_potential_shift_identity(rng):
    # adding a constant to V shifts the dense spectrum rigidly
    g = GridSpec(d=1, N=16, L=2.0)
    s0 = HamiltonianSpec(grid=g, h=0.8, V=constant_potential(g, 0.0))
    s1 = HamiltonianSpec(grid=g, h=0.8, V=constant_potential(g, 1.5))
    v0 = np.linalg.eigvalsh(dense_matrix(s0))
    v1 = np.linalg.eigvalsh(dense_matrix(s1))
    np.testing.assert_allclose(v1, v0 - 1.5, atol=1e-10)


_CORE_CASES = [
    # (flavor, d, N, with A); transforms per vector are pinned at d = 3 below
    ("schrodinger", 1, 16, False),
    ("schrodinger", 1, 16, True),
    ("schrodinger", 2, 8, False),
    ("schrodinger", 2, 8, True),
    ("schrodinger", 3, 4, False),
    ("schrodinger", 3, 4, True),
    ("pauli", 3, 4, False),
    ("pauli", 3, 4, True),
]


def _core_spec(flavor, d, N, with_A, with_psi, rng):
    """with_psi: False (unset), True (cos^2, nowhere exactly 0) or "ball" (0 off a ball)."""
    g = GridSpec(d=d, N=N, L=2.0)
    A = VectorField(g, 0.5 * rng.standard_normal((d,) + g.shape)) if with_A else None
    psi = None
    if with_psi == "ball":
        psi = cutoff_ball(g, 0.8)
    elif with_psi:
        psi = ScalarField(g, np.broadcast_to(np.cos(np.pi * g.coords[0] / g.L) ** 2, g.shape))
    return HamiltonianSpec(grid=g, h=0.6, flavor=flavor, A=A, psi=psi,
                           V=bump_potential(g, amplitude=3.0, radius=0.6))


@pytest.mark.parametrize("with_psi", [False, True])
@pytest.mark.parametrize("flavor,d,N,with_A", _CORE_CASES)
def test_block_apply_equals_single_applies(flavor, d, N, with_A, with_psi, rng):
    spec = _core_spec(flavor, d, N, with_A, with_psi, rng)
    g = spec.grid
    block = rng.standard_normal((spec.spin, 5) + g.shape) + 1j * rng.standard_normal(
        (spec.spin, 5) + g.shape
    )
    out = apply(spec, block)
    assert out.shape == block.shape
    for i in range(5):
        single = apply(spec, SpinorField(g, block[:, i])).data
        np.testing.assert_allclose(out[:, i], single, rtol=0,
                                   atol=1e-13 * np.max(np.abs(single)))


@pytest.mark.parametrize("with_psi", [False, True])
@pytest.mark.parametrize("flavor,d,N,with_A", _CORE_CASES)
def test_fourier_entry_is_apply_between_unitary_transforms(flavor, d, N, with_A, with_psi,
                                                           rng):
    spec = _core_spec(flavor, d, N, with_A, with_psi, rng)
    g = spec.grid
    c = rng.standard_normal((spec.spin, 5) + g.shape) + 1j * rng.standard_normal(
        (spec.spin, 5) + g.shape
    )
    if with_psi:
        # a localized operator is solved as dense_matrix's block on supp psi only
        with pytest.raises(ValueError, match="takes no psi"):
            apply_fourier(spec, c)
        return
    axes = tuple(range(-d, 0))
    ref = np.fft.fftn(apply(spec, np.fft.ifftn(c, axes=axes, norm="ortho")), axes=axes,
                      norm="ortho")
    out = apply_fourier(spec, c)
    assert out.shape == c.shape
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("flavor,d,N,with_A,per_vector", [
    ("schrodinger", 3, 4, False, 2),
    ("schrodinger", 3, 4, True, 8),
    ("pauli", 3, 4, False, 4),
    ("pauli", 3, 4, True, 8),
])
def test_transform_count_per_vector(flavor, d, N, with_A, per_vector, rng, monkeypatch):
    import scipy.fft

    volume = []
    for lib, name in [(lib, name) for lib in (np.fft, scipy.fft) for name in ("fftn", "ifftn")]:
        orig = getattr(lib, name)

        def counted(a, *args, _orig=orig, **kwargs):
            volume.append(np.asarray(a).size)
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(lib, name, counted)
    # apply costs the same with and without psi; apply_fourier takes no psi
    for with_psi in (False, True):
        spec = _core_spec(flavor, d, N, with_A, with_psi, rng)
        block = rng.standard_normal((spec.spin, 5) + spec.grid.shape)
        for entry in (apply,) if with_psi else (apply, apply_fourier):
            volume.clear()
            entry(spec, block)
            assert sum(volume) == per_vector * 5 * spec.grid.size, (entry, with_psi)


def test_apply_rejects_mismatched_block(spec1d):
    with pytest.raises(ValueError):
        apply(spec1d, np.zeros((1, 3, spec1d.grid.N // 2)))
    with pytest.raises(ValueError):
        apply(spec1d, np.zeros((2, 3, spec1d.grid.N)))


def _dense_by_columns(spec):
    """Reference: the operator applied to one unit column at a time."""
    shape = (spec.spin, 1) + spec.grid.shape
    H = np.empty((spec.dim, spec.dim), dtype=complex)
    for i in range(spec.dim):
        e = np.zeros(spec.dim, dtype=complex)
        e[i] = 1.0
        H[:, i] = apply(spec, e.reshape(shape)).ravel()
    return H


def _slab_budget(spec, rows, monkeypatch):
    """Set dense_matrix's slab budget to rows of supp psi's k points ("all": one slab)."""
    import fermifield.operators as operators

    k = spec.grid.size if spec.psi is None else np.count_nonzero(spec.psi.data)
    monkeypatch.setattr(operators, "FFT_SLAB_BYTES", 16 * k * (k if rows == "all" else rows))
    return k


@pytest.mark.parametrize("with_psi", [False, True, "ball"])
@pytest.mark.parametrize("flavor,d,N,with_A", _CORE_CASES)
def test_closed_form_dense_matrix_equals_column_assembly(flavor, d, N, with_A, with_psi,
                                                         rng, monkeypatch):
    spec = _core_spec(flavor, d, N, with_A, with_psi, rng)
    _slab_budget(spec, "all", monkeypatch)
    ref = _dense_by_columns(spec)
    H = dense_matrix(spec)
    # the block on supp psi, spin-major: every point unless psi vanishes somewhere
    psi = np.ones(spec.grid.size) if spec.psi is None else spec.psi.data.ravel()
    on = np.tile(psi != 0, spec.spin)
    if with_psi == "ball":
        assert 0 < H.shape[0] < spec.dim
    supp = np.flatnonzero(on)
    assert not np.any(ref[~on]) and not np.any(ref[:, ~on])  # psi H psi is 0 off the block
    np.testing.assert_allclose(H, ref[np.ix_(supp, supp)], rtol=0,
                               atol=1e-13 * np.max(np.abs(ref)))


# 1-row slabs, and two slabs of which the second is shorter (a row count
# that does not divide k): every entry is made by the same operations
@pytest.mark.parametrize("rows", [1, "ragged"])
@pytest.mark.parametrize("with_psi", [False, True, "ball"])
@pytest.mark.parametrize("flavor,d,N,with_A", _CORE_CASES)
def test_dense_matrix_row_slabs_equal_one_slab(flavor, d, N, with_A, with_psi, rows, rng,
                                               monkeypatch):
    spec = _core_spec(flavor, d, N, with_A, with_psi, rng)
    k = _slab_budget(spec, "all", monkeypatch)
    whole = dense_matrix(spec)
    _slab_budget(spec, 1 if rows == 1 else k // 2 + 1, monkeypatch)  # divides no k >= 3
    np.testing.assert_array_equal(dense_matrix(spec), whole)
