"""Partitions of unity, dyadic shell cutoffs, and mollification."""

import numpy as np
import pytest

from fermifield.grid import GridSpec, VectorField
from fermifield.multiscale import (
    PartitionSpec,
    dyadic_build,
    mollifier_kernel,
    mollify,
    partition_defect,
    partition_from_potential,
    partition_weight,
)


# ---------------------------------------------------------------------------
# partitions of unity


def test_constant_partition_defect_small():
    for d in (1, 2):
        spec = PartitionSpec.constant(d, 0.2)
        xs = np.linspace(-0.5, 0.5, 7)[:, None] * np.ones(d)
        assert partition_defect(spec, xs) < 1e-10


def test_variable_partition_defect_small():
    # potential-adapted scale with a Gaussian profile
    def V(u):
        return 0.5 * np.exp(-np.sum(np.asarray(u) ** 2, axis=-1))

    def grad_V(u):
        u = np.asarray(u, dtype=float)
        return -2.0 * u * V(u)[..., None]

    spec, K, repaired = partition_from_potential(1, V, grad_V, h=0.3)
    xs = np.linspace(-1.0, 1.0, 9)[:, None]
    assert partition_defect(spec, xs) < 1e-6


def test_partition_from_potential_inflates_K_when_needed():
    def V(u):
        return 10.0 * np.exp(-np.sum(np.asarray(u) ** 2, axis=-1))

    def grad_V(u):
        u = np.asarray(u, dtype=float)
        return -2.0 * u * V(u)[..., None]

    spec, K, repaired = partition_from_potential(1, V, grad_V, h=0.3, K=1.0)
    assert repaired
    assert K > 1.0
    xs = np.array([[0.0], [0.7]])
    assert partition_defect(spec, xs) < 1e-6


def test_partition_weight_support():
    spec = PartitionSpec.constant(1, 0.3)
    x = np.array([0.0])
    far = np.array([[1.0]])  # outside the ell = 0.3 support
    assert partition_weight(spec, far, x)[0] == 0.0


def test_partition_rejects_steep_scale():
    spec = PartitionSpec(
        1,
        lambda u: 0.2 + 0.0 * np.asarray(u)[..., 0],
        lambda u: 2.0 * np.ones(np.asarray(u).shape),
    )
    with pytest.raises(ValueError):
        partition_weight(spec, np.array([[0.1]]), np.array([0.0]))


# ---------------------------------------------------------------------------
# dyadic shells


# 0.13, 0.3 and 0.55 lie just above a power of two, where one shell fewer
# leaves the floor t = -1/w uncovered
@pytest.mark.parametrize("w", [0.1, 0.13, 0.3, 0.55])
def test_dyadic_partition_of_unity(w):
    # the physical domain of t = (u^2 - W)/(wW) is t >= -1/w
    fam = dyadic_build(W=1.0, w=w)
    t = np.linspace(-1.0 / w, 60.0, 10_000)
    total = fam.sum_f_sq(t)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_dyadic_support_disjointness():
    fam = dyadic_build(W=1.0, w=0.25)
    t = np.linspace(-10.0, 300.0, 40_001)
    idx = range(-fam.i0, 9)
    supports = {i: fam.f(i, t) > 0 for i in idx}
    for i in idx:
        for j in idx:
            if abs(i - j) >= 2:
                assert not np.any(supports[i] & supports[j])


def test_dyadic_i0_kills_deep_shells():
    fam = dyadic_build(W=1.0, w=0.1)
    assert fam.i0 == int(np.floor(abs(np.log2(0.1)))) + 1
    t = np.linspace(-1.0 / 0.1, 0.0, 512)
    assert np.all(fam.f(-(fam.i0 + 1), t) == 0.0)
    assert np.any(fam.f(-fam.i0 + 1, t) > 0.0)


def test_dyadic_t_puts_the_fermi_surface_at_zero():
    # t = (u^2 - W)/(wW): the shell i = 0 sits on u^2 = W, u = 0 is the floor -1/w
    fam = dyadic_build(W=2.0, w=0.2)
    np.testing.assert_allclose(fam.t([2.0, 0.0, 2.0 * 1.2]), [0.0, -5.0, 1.0], atol=1e-14)
    assert fam.f(0, 0.0) == pytest.approx(1.0)


def test_dyadic_build_validation():
    with pytest.raises(ValueError):
        dyadic_build(W=1.0, w=0.05, h=0.1)  # w below h
    with pytest.raises(ValueError):
        dyadic_build(W=1.0, w=1.5)


# ---------------------------------------------------------------------------
# mollification


def test_mollifier_kernel_has_unit_mass():
    g = GridSpec(d=2, N=64, L=2.0)
    kern = mollifier_kernel(g, 0.3)
    assert kern.sum() * g.weight == pytest.approx(1.0, rel=1e-12)


def test_mollify_preserves_constants():
    g = GridSpec(d=1, N=64, L=2.0)
    A = VectorField(g, np.full((1,) + g.shape, 2.5))
    Ar = mollify(A, 0.25)
    np.testing.assert_allclose(Ar.data, 2.5, atol=1e-12)


def test_mollify_is_a_contraction_in_l2():
    g = GridSpec(d=2, N=64, L=2.0)
    rng = np.random.default_rng(3)
    A = VectorField(g, rng.standard_normal((2,) + g.shape))
    Ar = mollify(A, 0.2)
    assert Ar.norm() <= A.norm() + 1e-12


def test_mollify_converges_as_r_shrinks():
    g = GridSpec(d=1, N=256, L=2.0)
    x = g.axis
    A = VectorField(g, np.sin(2 * np.pi * x / g.L)[None, :])
    errs = [(A - mollify(A, r)).norm() for r in (0.4, 0.2, 0.1)]
    assert errs[2] < errs[1] < errs[0]
    # smooth fields: ||A - A_r|| = O(r^2)
    assert errs[2] < 0.3 * errs[1]


def test_mollifier_kernel_validation():
    g = GridSpec(d=1, N=16, L=2.0)
    with pytest.raises(ValueError):
        mollifier_kernel(g, 0.0)
    with pytest.raises(ValueError):
        mollifier_kernel(g, 2.0)
