"""The product construction and the parameter dispatcher."""

import importlib

import pytest

from omd.bases import build_2k, build_m1k
from omd.compose import IngredientSet, _expand, check_ingredients, compose, construct
from omd.core import Complete, DesignArray, Hole, LexMatching, Transversal, canonical_block
from omd.errors import EmbeddingCollision, IncoherentIngredients, NonExistent
from omd.formats import dumps_design
from omd.room import build_room
from omd.verify import verify


def _ingredients(k, outer_n=8):
    outer, outer_t = build_room(outer_n)
    t_design, t_trans, t_hole = build_2k(k)
    return IngredientSet(
        outer=outer,
        outer_transversal=outer_t,
        cell_ingredient=build_m1k(k),
        transversal_ingredient=t_design,
        ingredient_transversal=t_trans,
        ingredient_hole=t_hole,
    )


def test_check_ingredients_happy_path():
    assert check_ingredients(_ingredients(2)) == (1, 2, 2)


def test_outer_must_be_complete():
    ing = _ingredients(2)
    bad = IngredientSet(
        outer=build_m1k(2),
        outer_transversal=ing.outer_transversal,
        cell_ingredient=ing.cell_ingredient,
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="complete graph"):
        check_ingredients(bad)


def test_cell_ingredient_host_checked():
    ing = _ingredients(2)
    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=ing.transversal_ingredient,
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="matching blowup"):
        check_ingredients(bad)


def test_ingredient_parameter_mismatch():
    ing = _ingredients(2)
    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=build_m1k(3),
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="do not match"):
        check_ingredients(bad)


def test_block_size_disagreement():
    ing = _ingredients(2)
    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=ing.cell_ingredient,
        transversal_ingredient=DesignArray(3, 4, 1, Complete(4), {}),
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="disagree on block size"):
        check_ingredients(bad)


def test_ingredient_side_checks():
    ing = _ingredients(2)
    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=DesignArray(3, 4, 2, LexMatching(1, 2), {}),
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="side must be s"):
        check_ingredients(bad)

    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=ing.cell_ingredient,
        transversal_ingredient=DesignArray(5, 4, 2, Complete(4), {}),
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="side must be 2s - 1"):
        check_ingredients(bad)


def test_hole_size_checked():
    ing = _ingredients(2)
    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=ing.cell_ingredient,
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=Hole((), ()),
    )
    with pytest.raises(IncoherentIngredients, match="hole must have size"):
        check_ingredients(bad)


def test_broken_outer_rejected():
    ing = _ingredients(2)
    cells = dict(ing.outer.cells)
    del cells[next(iter(cells))]
    broken = DesignArray(
        ing.outer.side, ing.outer.n, ing.outer.k, ing.outer.host, cells
    )
    bad = IngredientSet(
        outer=broken,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=ing.cell_ingredient,
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="outer fails verification"):
        check_ingredients(bad)


def test_uncertified_outer_transversal_rejected():
    ing = _ingredients(2)
    side = ing.outer.side
    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=Transversal(tuple((i, i) for i in range(side))),
        cell_ingredient=ing.cell_ingredient,
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=ing.ingredient_hole,
    )
    with pytest.raises(IncoherentIngredients, match="outer transversal"):
        check_ingredients(bad)


@pytest.mark.parametrize("k", [2, 3])
def test_identity_expansion(k):
    """Blowing up the one-cell design reproduces the order-2k design."""
    outer, outer_t, _ = build_2k(1)
    t_design, t_trans, t_hole = build_2k(k)
    ing = IngredientSet(
        outer=outer,
        outer_transversal=outer_t,
        cell_ingredient=build_m1k(k),
        transversal_ingredient=t_design,
        ingredient_transversal=t_trans,
        ingredient_hole=t_hole,
    )
    design = compose(ing)
    assert design.side == 2 * k - 1
    assert design.n == 2 * k
    assert verify(design).passed


def test_compose_sixteen_two():
    design = compose(_ingredients(2))
    assert design.side == 15
    assert design.n == 16
    report = verify(design)
    assert report.passed, report.failure()
    assert report.total_blocks == 16 * 15 // 4
    assert design == construct(16, 2).design


def test_compose_thirty_three():
    ing = _ingredients(3, outer_n=10)
    design = compose(ing)
    assert design.side == 3 * 9 + 2 == 29
    assert design.n == 30
    assert verify(design).passed


def test_size_identity():
    ing = _ingredients(2)
    design = compose(ing)
    s = 2
    assert design.side == s * ing.outer.side + s - 1
    assert design.n == s * ing.outer.n


def test_expand_collision_is_reported():
    """A hole that holds a block sends every transversal copy of that block
    to the same appended cell; the expansion says so instead of overwriting."""
    ing = _ingredients(2)
    bad = IngredientSet(
        outer=ing.outer,
        outer_transversal=ing.outer_transversal,
        cell_ingredient=ing.cell_ingredient,
        transversal_ingredient=ing.transversal_ingredient,
        ingredient_transversal=ing.ingredient_transversal,
        ingredient_hole=Hole((0,), (0,)),
    )
    with pytest.raises(EmbeddingCollision, match="collided at \\(14, 14\\)"):
        _expand(bad)
    with pytest.raises(IncoherentIngredients, match="hole fails"):
        compose(bad)


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
