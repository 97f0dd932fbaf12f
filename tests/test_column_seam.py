"""Columns become core-sized blocks in one place: operators._column_blocks."""

import re
from pathlib import Path

import numpy as np
import pytest

import fermifield.field_opt as field_opt
import fermifield.operators as operators
import fermifield.spectral as spectral
from fermifield.grid import GridSpec
from fermifield.operators import HamiltonianSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "fermifield"
# a column count worked out from the budget, the start of a hand-written walk
WALK = re.compile(r"COLUMN_BLOCK_BYTES\s*//")


def test_only_operators_walks_block_columns():
    for module in (spectral, field_opt):
        assert not hasattr(module, "COLUMN_BLOCK_BYTES") and not hasattr(module, "BLOCK")
    walks = {path.name: len(WALK.findall(path.read_text())) for path in SRC.glob("*.py")}
    assert walks.pop("operators.py") == 1  # _column_slices itself
    assert not any(walks.values()), walks


@pytest.mark.parametrize("N,per", [(8, 512), (16, 64), (128, 1)])
def test_column_budget_is_bytes_of_complex_columns(N, per):
    # Pauli: dim 1024 takes 512 columns a call, dim 8192 takes 64, and a
    # column above the budget (dim 2^22) still goes one at a time
    spec = HamiltonianSpec(grid=GridSpec(d=3, N=N, L=2.0), h=0.5, flavor="pauli")
    slices = list(operators._column_slices(spec, 2 * per + 1))
    assert [at.stop - at.start for at in slices] == [per, per, 1]


# blocks of 3: one partial block, one full block, and two full plus a partial one
@pytest.mark.parametrize("m", [1, 3, 7])
def test_column_blocks_tile_the_columns_in_order(m, monkeypatch):
    g = GridSpec(d=3, N=4, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, flavor="pauli")
    monkeypatch.setattr(operators, "COLUMN_BLOCK_BYTES", 3 * 16 * spec.dim)
    rng = np.random.default_rng(m)
    X, Y = rng.standard_normal((2, spec.dim, m))
    seen = []
    for at, blocks in operators._column_blocks(spec, X, Y):
        seen.extend(range(m)[at])
        assert len(blocks) == 2
        for block, cols in zip(blocks, (X, Y)):
            assert block.shape == (spec.spin, cols[:, at].shape[1]) + g.shape
            np.testing.assert_array_equal(operators._columns(block), cols[:, at])
    assert seen == list(range(m))  # every column once, in order


# Fortran-ordered columns of one spin component are viewed, not copied: the
# order="F" columns of spectral._dense_negative rely on it.  At spin 2 the spin
# axis sits outside the column axis in either order, so _block copies both.
@pytest.mark.parametrize("flavor", ["schrodinger", "pauli"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_block_views_columns_only_at_spin_1_in_fortran_order(flavor, order):
    g = GridSpec(d=3, N=8, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, flavor=flavor)
    cols = np.zeros((spec.dim, 3), order=order)
    block = operators._block(spec, cols)
    assert np.shares_memory(block, cols) == (spec.spin == 1 and order == "F")
