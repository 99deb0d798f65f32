"""The product construction and the parameter dispatcher."""

import pytest

import omd.compose as product
from omd.bases import build_2k
from omd.compose import _expand, construct
from omd.core import DesignArray, canonical_block
from omd.errors import NonExistent
from omd.factorizations import ofact_complete
from omd.formats import dumps_design
from omd.room import build_room
from omd.verify import verify


@pytest.mark.parametrize(
    "m,s",
    [(2, 1), (8, 1), (14, 1), (12, 2), (14, 3), (10, 3), (20, 2), (40, 6)],
)
def test_compose_matches_construct(m, s):
    """_expand is construct's product path; at s = 1 it returns the outer."""
    outer, outer_t = build_room(m)
    design, _transversal = _expand(outer, outer_t, s)
    assert design.side == s * outer.side + s - 1
    assert design.n == s * m
    report = verify(design)
    assert report.passed, report.failure()
    assert report.total_blocks == s * m * (s * m - 1) // (2 * s)
    if s == 1:
        assert design == outer
    assert design == construct(s * m, s).design


@pytest.mark.parametrize("s", range(1, 13))
def test_identity_expansion(s):
    """Blowing up the one-cell design reproduces the order-2s design with
    row r at (r - s + 1) mod (2s - 1). _expand lays build_2k(s) from its
    fixed layout without building it: factor f of ofact_complete(2s) at
    (f, f), the hole rows 0..s-2 x columns s..2s-2."""
    big, transversal, hole = build_2k(s)
    side = 2 * s - 1
    assert big.cells == {(f, f): factor for f, factor in enumerate(ofact_complete(2 * s))}
    assert (hole.rows, hole.cols) == (tuple(range(s - 1)), tuple(range(s, side)))
    design, laid = _expand(*build_2k(1)[:2], s)
    assert (design.side, design.n, design.k) == (side, 2 * s, s)
    assert design.cells == {((r - s + 1) % side, c): b for (r, c), b in big.cells.items()}
    assert laid == tuple(sorted(((r - s + 1) % side, c) for r, c in transversal))
    assert verify(design).passed


def test_compose_sixteen_two():
    design, _transversal = _expand(*build_room(8), 2)
    assert design.side == 15
    assert design.n == 16
    report = verify(design)
    assert report.passed, report.failure()
    assert report.total_blocks == 16 * 15 // 4
    assert design == construct(16, 2).design


def test_size_identity():
    outer, outer_t = build_room(8)
    s = 2
    design, _transversal = _expand(outer, outer_t, s)
    assert design.side == s * outer.side + s - 1
    assert design.n == s * outer.n


@pytest.mark.parametrize("n,k", [(12, 1), (24, 2)])
def test_mutating_a_result_leaves_later_builds_intact(n, k):
    # construct(24, 2) expands room(12), the square behind construct(12, 1);
    # the cells view is a copy, so the mutant loses its last cell from the
    # lists it owns
    mutant = construct(12, 1).design
    del mutant.rows[-1], mutant.cols[-1], mutant.sizes[-1], mutant.points[-2:]
    res = construct(n, k)
    assert res.report.passed
    assert len(construct(12, 1).design.cells) == len(mutant.cells) + 1


def test_construct_rejects_bad_arguments():
    with pytest.raises(ValueError):
        construct(1, 1)
    with pytest.raises(ValueError):
        construct(4, 0)


def test_construct_inadmissible_order():
    with pytest.raises(NonExistent, match="multiple of 2k = 4"):
        construct(10, 2)


def test_construct_room_exclusion():
    with pytest.raises(NonExistent):
        construct(6, 1)


@pytest.mark.parametrize(
    "n,k,path",
    [
        (8, 1, "room"),
        (4, 2, "diagonal"),
        (8, 2, "quad-split"),
        (12, 2, "hex-split"),
        (16, 2, "product(room(8), s=2)"),
        (24, 3, "product(room(8), s=3)"),
    ],
)
def test_construct_dispatch(n, k, path):
    res = construct(n, k)
    assert res.path == path
    assert res.report.passed
    assert res.design.n == n and res.design.k == k
    assert res.design.side == n - 1
    assert res.report.total_blocks == n * (n - 1) // (2 * k)


def test_construct_certifies_transversals():
    res = construct(16, 2)
    assert res.transversal is not None
    assert res.transversal_report.passed


def test_construct_is_reproducible():
    a = construct(16, 2, seed=0)
    b = construct(16, 2, seed=0)
    assert dumps_design(a.design) == dumps_design(b.design)
    assert a.transversal == b.transversal


def test_construct_cells_are_canonical():
    # no type enforces the canonical form; every builder must produce it,
    # since the JSON bytes follow each cell's edge order. An array holds
    # its cells in (row, col) order, so a builder that writes them
    # otherwise costs of_arrays a sorted copy
    for k in range(1, 7):
        for n in range(2 * k, 61, 2 * k):
            if (n, k) in ((4, 1), (6, 1)):
                continue
            design = construct(n, k, seed=0).design
            lists = design.rows, design.cols, design.sizes, design.points
            again = DesignArray.of_arrays(design.side, n, k, *lists)
            assert again.rows is design.rows, (n, k)
            cells = design.cells
            assert all(block == canonical_block(block) for block in cells.values()), (n, k)


@pytest.mark.parametrize("n,k", [(16, 2), (8, 1), (4, 2), (8, 2)])
def test_construct_verifies_each_design_once(n, k, monkeypatch):
    seen = []

    def counting(arr):
        seen.append(arr)
        return verify(arr)

    # construct calls the verify that the omd.compose module binds
    monkeypatch.setattr(product, "verify", counting)
    res = construct(n, k)
    assert seen == [res.design]
