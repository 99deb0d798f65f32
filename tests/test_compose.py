"""The product construction and the parameter dispatcher."""

import importlib

import pytest

from omd.bases import build_2k, build_m1k
from omd.compose import compose, construct
from omd.core import DesignArray, Transversal, canonical_block
from omd.errors import IncoherentIngredients, NonExistent
from omd.formats import dumps_design
from omd.room import build_room
from omd.verify import verify


@pytest.mark.parametrize(
    "m,s", [(2, 1), (8, 1), (14, 1), (12, 2), (14, 3), (20, 2), (40, 6)]
)
def test_compose_matches_construct(m, s):
    """compose is construct's product path; at s = 1 it returns the outer."""
    outer, outer_t = build_room(m)
    design = compose(outer, outer_t, s)
    if s == 1:
        assert design == outer
    assert design == construct(s * m, s).design


def test_outer_must_be_complete():
    # a single-edge design on the doubled edge K_{1,1}, not on K_2
    outer = build_m1k(1)
    with pytest.raises(IncoherentIngredients, match="complete graph"):
        compose(outer, Transversal(((0, 0),)), 2)


def test_multi_edge_outer_rejected():
    outer, outer_t, _ = build_2k(2)
    with pytest.raises(IncoherentIngredients, match="single-edge blocks"):
        compose(outer, outer_t, 2)


def test_s_below_one_rejected():
    outer, outer_t = build_room(8)
    with pytest.raises(ValueError, match="s >= 1"):
        compose(outer, outer_t, 0)


def test_broken_outer_rejected():
    outer, outer_t = build_room(8)
    cells = dict(outer.cells)
    del cells[next(iter(cells))]
    broken = DesignArray(outer.side, outer.n, outer.k, outer.host, cells)
    with pytest.raises(IncoherentIngredients, match="outer fails verification"):
        compose(broken, outer_t, 2)


def test_uncertified_outer_transversal_rejected():
    outer, _ = build_room(8)
    diagonal = Transversal(tuple((i, i) for i in range(outer.side)))
    with pytest.raises(IncoherentIngredients, match="outer transversal"):
        compose(outer, diagonal, 2)


@pytest.mark.parametrize("k", [2, 3])
def test_identity_expansion(k):
    """Blowing up the one-cell design reproduces the order-2k design."""
    outer, outer_t, _ = build_2k(1)
    design = compose(outer, outer_t, k)
    assert design.side == 2 * k - 1
    assert design.n == 2 * k
    assert verify(design).passed


def test_compose_sixteen_two():
    design = compose(*build_room(8), 2)
    assert design.side == 15
    assert design.n == 16
    report = verify(design)
    assert report.passed, report.failure()
    assert report.total_blocks == 16 * 15 // 4
    assert design == construct(16, 2).design


def test_compose_thirty_three():
    design = compose(*build_room(10), 3)
    assert design.side == 3 * 9 + 2 == 29
    assert design.n == 30
    assert verify(design).passed


def test_size_identity():
    outer, outer_t = build_room(8)
    s = 2
    design = compose(outer, outer_t, s)
    assert design.side == s * outer.side + s - 1
    assert design.n == s * outer.n


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
    # since the JSON bytes follow each cell's edge order
    for k in range(1, 7):
        for n in range(2 * k, 61, 2 * k):
            if (n, k) in ((4, 1), (6, 1)):
                continue
            cells = construct(n, k, seed=0).design.cells
            assert all(block == canonical_block(block) for block in cells.values()), (n, k)


@pytest.mark.parametrize("n,k", [(16, 2), (8, 1), (4, 2), (8, 2)])
def test_construct_verifies_each_design_once(n, k, monkeypatch):
    # omd/__init__.py binds omd.compose to the function, so fetch the module
    module = importlib.import_module("omd.compose")
    seen = []

    def counting(arr):
        seen.append(arr)
        return verify(arr)

    monkeypatch.setattr(module, "verify", counting)
    res = construct(n, k)
    assert seen == [res.design]
