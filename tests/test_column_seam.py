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
# a hand-written walk over BLOCK columns, range(0, m, BLOCK)
WALK = re.compile(r"range\(0,.*, BLOCK\)")


def test_only_operators_walks_block_columns():
    assert not hasattr(spectral, "BLOCK") and not hasattr(field_opt, "BLOCK")
    walks = {path.name: len(WALK.findall(path.read_text())) for path in SRC.glob("*.py")}
    assert walks.pop("operators.py") == 1  # the generator itself
    assert not any(walks.values()), walks


# blocks of 3: one partial block, one full block, and two full plus a partial one
@pytest.mark.parametrize("m", [1, 3, 7])
def test_column_blocks_tile_the_columns_in_order(m, monkeypatch):
    monkeypatch.setattr(operators, "BLOCK", 3)
    g = GridSpec(d=3, N=4, L=2.0)
    spec = HamiltonianSpec(grid=g, h=0.5, flavor="pauli")
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
