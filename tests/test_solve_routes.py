"""The solve route of every benchmark workload's operators, pinned.

benchmarks/workloads.py requires spans that only some routes make:
spectral.dense_eigh on the two CLI workloads, spectral.lobpcg on
weyl3d_iterative.  So a change in routing shows here first, not as a traced
run that exits 3.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import fermifield.field_opt as field_opt
import fermifield.spectral as spectral
from fermifield import builders
from fermifield.cli import main
from fermifield.grid import GridSpec
from fermifield.operators import HamiltonianSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _recorded_cli_solves(monkeypatch, tmp_path, config, experiment, sets, seed=1):
    """(A is nonzero, SolveStats, vectors dtype, psi is set) per solve of one CLI run.

    Also returns (dtype, shape) per dense_eigh call.
    """
    solves, dense_calls = [], []
    solve, eigh = field_opt.negative_spectrum, spectral.dense_eigh

    def recorded_solve(spec, *args, **kwargs):
        ns = solve(spec, *args, **kwargs)
        solves.append((spec.A is not None and bool(np.any(spec.A.data)), ns.stats,
                       ns.vectors.dtype, spec.psi is not None))
        return ns

    def recorded_eigh(H, upper):
        dense_calls.append((H.dtype, H.shape))
        return eigh(H, upper)

    monkeypatch.setattr(field_opt, "negative_spectrum", recorded_solve)
    monkeypatch.setattr(spectral, "dense_eigh", recorded_eigh)
    argv = [experiment, "--config", str(CONFIG_DIR / config), "--out", str(tmp_path),
            "--seed", str(seed), *(arg for item in sets for arg in ("--set", item))]
    assert main(argv) == 0
    return solves, dense_calls


# configs/minimize_field_pauli.cfg at seed 1 with max_iters=1, one BLAS thread:
# the energy column of results.csv, the start point and the one step
MINIMIZE_PAULI_ENERGIES = [-1.225643346953806, -1.2256504150677663]


def test_minimize_pauli_solves_a_zero_dense_and_real_and_a_field_by_inertia(
        monkeypatch, tmp_path):
    solves, dense_calls = _recorded_cli_solves(monkeypatch, tmp_path,
                                               "minimize_field_pauli.cfg", "minimize-field",
                                               ["max_iters=1"])
    at_zero = [(st, dt) for field, st, dt, _ in solves if not field]
    with_field = [st for field, st, _, _ in solves if field]
    assert at_zero and with_field
    for st, dtype in at_zero:  # the spin-reduced dim-512 operator
        assert (st.certificate, st.dim, st.copies) == ("lapack", 512, 2)
        assert dtype == np.float64
    for st in with_field:
        assert (st.certificate, st.dim, st.fallback) == ("inertia", 1024, False)
        assert st.blocks == (st.inertia,) and st.probe_lowest is None
    assert dense_calls and all(dt == np.float64 for dt, _ in dense_calls)
    with open(tmp_path / "results.csv") as fh:
        energies = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
    np.testing.assert_allclose(energies, MINIMIZE_PAULI_ENERGIES, rtol=1e-12, atol=0)


# configs/variant_order.cfg at seed 7 with ratios=2 4 and max_iters=1, one BLAS
# thread: ratio, E_prime, E_ball, E_global, inflation, as solved on the whole grid
VARIANT_ORDER_ROWS = [
    (2.0, 8.673869057797319, 37.375604658893394, 427.5486727532042, 11.439244305348529),
    (4.0, 49.714197201018, 214.12503440634157, 427.5486727532042, 1.9967243621866841),
]


def test_variant_order_solves_stay_dense(monkeypatch, tmp_path):
    solves, dense_calls = _recorded_cli_solves(monkeypatch, tmp_path, "variant_order.cfg",
                                               "variant-order", ["ratios=2 4", "max_iters=1"],
                                               seed=7)
    # psi (T - V) psi at the start field is solved on supp psi, one point; the
    # other 511 eigenvalues, ker psi's zeros, are counted, not stored
    localized = [st for _, st, _, psi in solves if psi]
    whole = [st for _, st, _, psi in solves if not psi]
    assert len(localized) == 1 and whole
    st = localized[0]
    assert (st.certificate, st.dim, st.kernel) == ("lapack", 1, 511)
    for st in whole:
        assert (st.certificate, st.dim, st.inertia, st.kernel) == ("lapack", 512, None, 0)
    shapes = [shape for _, shape in dense_calls]
    assert len(shapes) == len(solves) and shapes.count((1, 1)) == 1
    assert shapes.count((512, 512)) == len(whole)
    with open(tmp_path / "results.csv") as fh:
        rows = [[float(x) for x in line.split(",")[:5]] for line in fh.readlines()[1:]]
    np.testing.assert_allclose(rows, VARIANT_ORDER_ROWS, rtol=1e-12, atol=0)


# blocks (the half grid's kept count, no guard columns), iterations (probe
# last) and matvecs per solve at seed 1 and one BLAS thread on the fine grid,
# then the half-grid start's dim (N = 8, spin-reduced at A = 0), blocks,
# iterations and matvecs
WEYL3D_STATS = {
    (0.6, False): ((1,), (10, 15), 27, (512, (4,), (16,), 53)),
    (0.6, True): ((2,), (19, 33), 73, (1024, (4,), (21,), 64)),
    (0.45, False): ((1,), (9, 13), 24, (512, (4,), (15,), 49)),
    (0.45, True): ((2,), (23, 40), 87, (1024, (5,), (23,), 88)),
}


@pytest.mark.parametrize("h, with_a", list(WEYL3D_STATS))
def test_weyl3d_iterative_solves_keep_the_probe_route(h, with_a):
    g = GridSpec(d=3, N=16, L=2.0)
    V = builders.bump_potential(g, 6.0, 0.7)
    A = builders.random_divfree_potential(g, seed=1, amplitude=0.3)
    A = (0.55 / float(np.sqrt(np.mean(A.data ** 2)))) * A
    spec = HamiltonianSpec(grid=g, h=h, flavor="pauli", A=A if with_a else None, V=V)
    ns = spectral.negative_spectrum(spec, seed=1)
    st = ns.stats
    assert (st.certificate, st.inertia) == ("probe", None) and st.probe_lowest > ns.tol_zero
    c = st.coarse
    assert (st.blocks, st.iterations, st.matvecs,
            (c.dim, c.blocks, c.iterations, c.matvecs)) == WEYL3D_STATS[(h, with_a)]


def _digest(spec) -> str:
    """sha256 of the inputs that fix a solve: h, flavor, grid, V, psi and A."""
    sha = hashlib.sha256(repr((spec.h, spec.flavor, spec.grid)).encode())
    for f in (spec.V, spec.psi, spec.A):
        sha.update(b"none" if f is None else f.data.tobytes())
    return sha.hexdigest()


# configs/variant_order.cfg in full at seed 7, one BLAS thread: ratio,
# E_prime, E_ball, E_global, inflation
VARIANT_ORDER_FULL_ROWS = [
    (2.0, 1.6257134820217067, 37.375604658893394, 427.5486727532042, 11.439244305348529),
    (4.0, 14.624813833528446, 214.12503440634157, 427.5486727532042, 1.9967243621866841),
    (8.0, 6.081191961967584, 427.5486727532042, 427.5486727532042, 1.0),
]


def test_variant_order_repeats_no_solve(monkeypatch, tmp_path):
    # the full bundled config: every ratio and every descent step
    digests, solve = [], field_opt.negative_spectrum

    def recorded_solve(spec, *args, **kwargs):
        digests.append(_digest(spec))
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(field_opt, "negative_spectrum", recorded_solve)
    argv = ["variant-order", "--config", str(CONFIG_DIR / "variant_order.cfg"),
            "--out", str(tmp_path), "--seed", "7"]
    assert main(argv) == 0
    assert len(digests) > 1
    assert len(set(digests)) == len(digests)
    with open(tmp_path / "results.csv") as fh:
        rows = [[float(x) for x in line.split(",")[:5]] for line in fh.readlines()[1:]]
    np.testing.assert_allclose(rows, VARIANT_ORDER_FULL_ROWS, rtol=1e-12, atol=0)
