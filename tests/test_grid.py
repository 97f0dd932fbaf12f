"""Grids, fields, and the spectral calculus on the periodic box."""

import numpy as np
import pytest

from fermifield.builders import (
    A_BUILDERS,
    V_BUILDERS,
    cutoff_ball,
    flux_quantized_constant_b,
    random_divfree_potential,
    rough_divfree_potential,
)
from fermifield.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    SpinorField,
    ball_mask,
    div_rows,
    divergence,
    field_energy_curl,
    field_energy_grad,
    gradient,
    divfree_mean_zero,
    jacobian,
    periodic_dist2,
)
from fermifield.multiscale import mollify


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(d=4, N=8, L=1.0)
    with pytest.raises(ValueError):
        GridSpec(d=1, N=12, L=1.0)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(d=1, N=16, L=-1.0)


def test_grid_geometry():
    g = GridSpec(d=2, N=16, L=4.0)
    assert g.shape == (16, 16)
    assert g.size == 256
    assert g.mesh == pytest.approx(0.25)
    assert g.weight == pytest.approx(0.25**2)
    assert g.volume == pytest.approx(16.0)


def test_dual_lattice_consistency():
    g = GridSpec(d=1, N=16, L=2.0)
    np.testing.assert_allclose(g.k[0], 2 * np.pi * np.fft.fftfreq(16, d=g.mesh))
    # the derivative lattice only differs at the Nyquist mode
    diff = g.k[0] - g.k_deriv[0]
    assert np.count_nonzero(diff) == 1


def test_gradient_exact_on_plane_wave():
    g = GridSpec(d=2, N=16, L=2.0)
    x, y = g.coords
    kx, ky = 2 * np.pi / g.L * 3, 2 * np.pi / g.L * (-2)
    f = ScalarField(g, np.exp(1j * (kx * x + ky * y)))
    gf = gradient(f)
    np.testing.assert_allclose(gf.data[0], 1j * kx * f.data, atol=1e-12)
    np.testing.assert_allclose(gf.data[1], 1j * ky * f.data, atol=1e-12)


def test_jacobian_of_gradient_is_symmetric():
    # d_i d_j f = d_j d_i f: the curl of a gradient vanishes
    g = GridSpec(d=3, N=8, L=2.0)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.standard_normal(g.shape))
    J = jacobian(gradient(f).data, g)
    antisym = VectorField(g, np.stack([J[i, j] - J[j, i] for i, j in ((1, 2), (2, 0), (0, 1))]))
    assert antisym.norm() < 1e-10


def test_divfree_mean_zero_is_idempotent_and_divergence_free(rng):
    g = GridSpec(d=3, N=8, L=2.0)
    A = VectorField(g, rng.standard_normal((3,) + g.shape))
    P = divfree_mean_zero(A)
    assert divergence(P).norm() < 1e-10
    PP = divfree_mean_zero(P)
    np.testing.assert_allclose(PP.data, P.data, atol=1e-12)


def test_divfree_mean_zero_in_one_dimension_only_removes_the_mean(rng):
    # in d = 1 every field is a gradient: only the constant is divergence-free
    g = GridSpec(d=1, N=16, L=2.0)
    A = VectorField(g, rng.standard_normal((1,) + g.shape) + 3.0)
    np.testing.assert_allclose(divfree_mean_zero(A).data, A.data - A.data.mean(),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_divfree_mean_zero_keeps_the_modes_without_a_derivative(d, rng):
    # where every k_deriv component vanishes (the Nyquist corners) k.A = 0,
    # so the coefficients there are kept; only k = 0 goes
    g = GridSpec(d=d, N=8, L=2.0)
    A = VectorField(g, rng.standard_normal((d,) + g.shape))
    axes = tuple(range(1, d + 1))
    ah = np.fft.fftn(A.data, axes=axes)
    out = np.fft.fftn(divfree_mean_zero(A).data, axes=axes)
    corners = sum(kj**2 for kj in g.k_deriv) == 0.0
    assert np.count_nonzero(corners) == 2**d
    origin = (slice(None),) + (0,) * d
    np.testing.assert_allclose(out[origin], 0.0, rtol=0, atol=1e-12)
    corners[(0,) * d] = False
    np.testing.assert_allclose(out[:, corners], ah[:, corners], rtol=0,
                               atol=1e-12 * np.max(np.abs(ah)))
    assert np.min(np.abs(ah[:, corners])) > 1e-3  # the test field has content there


def _rough_reference(grid, seed):
    """The rough draw built in real space: a real inverse transform per
    component, then divfree_mean_zero, then unit norm."""
    rng = np.random.default_rng(seed)
    kk = np.sqrt(grid.k2)
    envelope = np.zeros(grid.shape)
    nz = kk > 0
    envelope[nz] = kk[nz] ** -2.5
    data = np.empty((grid.d,) + grid.shape)
    for j in range(grid.d):
        white = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        data[j] = np.fft.ifftn(envelope * white).real
    A = divfree_mean_zero(VectorField(grid, data))
    return (1.0 / A.norm()) * A


@pytest.mark.parametrize("d,N", [(1, 32), (2, 32), (3, 16)])
@pytest.mark.parametrize("seed", [0, 7])
def test_rough_draw_matches_its_real_space_construction(d, N, seed):
    # the draw comes as its coefficients, made with no transform: those of
    # the real-space construction, so Hermitian
    g = GridSpec(d=d, N=N, L=2.0)
    ref = np.fft.fftn(_rough_reference(g, seed).data, axes=tuple(range(1, d + 1)))
    got = rough_divfree_potential(g, seed=seed)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
    neg = (slice(None),) + np.ix_(*[-np.arange(N)] * d)
    np.testing.assert_array_equal(got[neg], np.conj(got))


def test_curl_energy_equals_grad_energy_for_divfree(rng):
    # for periodic divergence-free fields, int |curl A|^2 = int |grad x A|^2
    g = GridSpec(d=3, N=8, L=2.0)
    raw = VectorField(g, rng.standard_normal((3,) + g.shape))
    A = divfree_mean_zero(raw)
    ec = field_energy_curl(A)
    eg = field_energy_grad(A)
    assert ec == pytest.approx(eg, rel=1e-10)


def test_masked_energy_is_monotone_in_region(rng):
    g = GridSpec(d=3, N=8, L=2.0)
    A = VectorField(g, rng.standard_normal((3,) + g.shape))
    c = (g.L / 2,) * 3
    small = field_energy_grad(A, ball_mask(g, c, 0.4))
    big = field_energy_grad(A, ball_mask(g, c, 0.9))
    full = field_energy_grad(A)
    assert 0.0 <= small <= big <= full


def test_ball_mask_periodic_wrap():
    g = GridSpec(d=1, N=16, L=2.0)
    m = ball_mask(g, (0.0,), 0.3)
    # the ball at the origin must wrap around to the far end of the axis
    assert m[0] and m[1] and m[-1]
    assert not m[8]


def test_periodic_dist2_is_the_nearest_image_distance():
    g = GridSpec(d=2, N=8, L=2.0)
    center = (1.9, 0.3)
    # oracle: the smallest distance over the image shifts -L, 0, +L per axis
    images = [
        np.minimum.reduce([(g.coords[j] - center[j] + s * g.L) ** 2 for s in (-1, 0, 1)])
        for j in range(2)
    ]
    np.testing.assert_allclose(periodic_dist2(g, center), images[0] + images[1],
                               rtol=0, atol=1e-13)
    assert np.array_equal(ball_mask(g, center, 0.5), periodic_dist2(g, center) <= 0.25)


def test_divfree_mean_zero_has_mean_zero(rng):
    g = GridSpec(d=2, N=8, L=1.0)
    A = VectorField(g, rng.standard_normal((2,) + g.shape) + 3.0)
    Z = divfree_mean_zero(A)
    for j in range(2):
        assert abs(Z.data[j].mean()) < 1e-13


def test_field_shape_checks():
    g = GridSpec(d=2, N=8, L=1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8,)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((3, 8, 8)))  # wrong component count
    u = SpinorField(g, np.zeros((2, 8, 8)))
    assert u.spin == 2


def test_field_arithmetic_and_inner(rng):
    g = GridSpec(d=1, N=16, L=2.0)
    f = ScalarField(g, rng.standard_normal(g.shape))
    h = ScalarField(g, rng.standard_normal(g.shape))
    s = f + 2.0 * h - f
    np.testing.assert_allclose(s.data, 2.0 * h.data, atol=1e-14)
    # quadrature inner product matches the direct sum
    ip = f.inner(h)
    assert ip == pytest.approx(np.sum(f.data * h.data) * g.weight)
    assert f.norm() == pytest.approx(np.sqrt(np.sum(f.data**2) * g.weight))


# ---------------------------------------------------------------------------
# the dtype contract: a real field is stored real and stays real


def test_field_dtype_follows_its_data():
    g = GridSpec(d=1, N=8, L=1.0)
    assert ScalarField(g, np.arange(8)).data.dtype == np.float64
    assert ScalarField(g, np.ones(8, dtype=bool)).data.dtype == np.float64
    assert ScalarField(g, np.ones(8, dtype=np.complex64)).data.dtype == np.complex128
    data = np.zeros(8)
    f = ScalarField(g, data)
    data[0] = 1.0  # the field holds its own read-only copy
    assert f.data[0] == 0.0 and not f.data.flags.writeable


def test_real_builders_give_float64_fields():
    g = GridSpec(d=3, N=8, L=2.0)
    fields = [V_BUILDERS[name](g) for name in ("bump", "constball", "softcoulomb")]
    fields += [cutoff_ball(g, 0.5), A_BUILDERS["randband"](g, seed=1)]
    fields += flux_quantized_constant_b(g, 1.0, 1)  # A, B_z and phi
    assert [f.data.dtype for f in fields] == [np.float64] * len(fields)


@pytest.mark.parametrize("radius", [0.0, -0.5])
def test_cutoff_ball_rejects_nonpositive_radius(radius):
    with pytest.raises(ValueError, match="cutoff radius must be positive"):
        cutoff_ball(GridSpec(d=2, N=8, L=2.0), radius)


def test_field_calculus_keeps_a_real_field_real():
    g = GridSpec(d=3, N=8, L=2.0)
    A = random_divfree_potential(g, seed=2)
    f = V_BUILDERS["bump"](g)
    out = [gradient(f).data, divergence(A).data, divfree_mean_zero(A).data,
           mollify(A, 0.3).data, mollify(f, 0.3).data, jacobian(A.data, g), div_rows(A.data, g)]
    assert [a.dtype for a in out] == [np.float64] * len(out)
    assert type(field_energy_curl(A)) is float and type(field_energy_grad(A)) is float
    assert type(A.inner(A)) is float
