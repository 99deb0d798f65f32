"""Recursive product: expand each cell of a small design into a subarray.

Given a design with single- or multi-edge blocks on n points, every point
is split into s copies. Each outer cell grows into an s x s block, and
s - 1 extra rows and columns are appended, for a side of s(n-1) + s - 1
= sn - 1. Cells on the outer transversal receive a copy of the larger
ingredient (on the matching-of-cliques host) with its hole permuted onto
the extra rows and columns; all other filled cells receive a copy of the
smaller ingredient (on the matching-blowup host). The copies tile the new
edge set exactly once, which the verifier confirms on every output.
The product's transversal is the image of the larger ingredient's in
every outer transversal cell; no transversal is searched for here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import (
    Block,
    Cell,
    Complete,
    CompleteBipartite,
    DesignArray,
    Hole,
    LexMatching,
    LexMatchingComplete,
    Transversal,
)
from .errors import (
    EmbeddingCollision,
    IncoherentIngredients,
    NonExistent,
    VerificationFailed,
)
from .room import DEFAULT_BUDGET, build_room
from .bases import build_2k, build_4k, build_6k, build_m1k
from .verify import (
    VerificationReport,
    verify,
    verify_hole,
    verify_transversal,
)


@dataclass(frozen=True)
class IngredientSet:
    """Everything the product construction consumes.

    outer: design whose cells get expanded, with a certified transversal.
    cell_ingredient: design on the matching blowup M_l[s], side s.
    transversal_ingredient: design on the clique blowup M_l[K_s], side
    2s - 1, with a certified transversal that pairs the hole rows with the
    hole columns (as build_2k's back diagonal does) and a hole of size s - 1.
    """

    outer: DesignArray
    outer_transversal: Transversal
    cell_ingredient: DesignArray
    transversal_ingredient: DesignArray
    ingredient_transversal: Transversal
    ingredient_hole: Hole


def _matching_blowup_params(host) -> tuple[int, int] | None:
    """(l, s) when host is M_l[s] up to isomorphism, else None."""
    if isinstance(host, LexMatching):
        return host.l, host.s
    if isinstance(host, CompleteBipartite) and host.a == host.b:
        return 1, host.a
    return None


def _clique_blowup_params(host) -> tuple[int, int] | None:
    """(l, s) when host is M_l[K_s] up to isomorphism, else None."""
    if isinstance(host, LexMatchingComplete):
        return host.l, host.s
    if isinstance(host, Complete) and host.n % 2 == 0:
        return 1, host.n // 2
    return None


def check_ingredients(ing: IngredientSet) -> tuple[int, int, int]:
    """Validate parameter coherence; return (l, s, k) on success."""
    outer = ing.outer
    if not isinstance(outer.host, Complete):
        raise IncoherentIngredients(
            f"outer design must live on a complete graph, got {outer.host!r}"
        )
    l = outer.k

    cell_params = _matching_blowup_params(ing.cell_ingredient.host)
    if cell_params is None:
        raise IncoherentIngredients(
            "cell ingredient must live on a matching blowup M_l[s], "
            f"got {ing.cell_ingredient.host!r}"
        )
    if cell_params[0] != l:
        raise IncoherentIngredients(
            f"cell ingredient is built for {cell_params[0]}-edge outer "
            f"blocks but the outer design has {l}-edge blocks"
        )
    s = cell_params[1]

    trans_params = _clique_blowup_params(ing.transversal_ingredient.host)
    if trans_params is None:
        raise IncoherentIngredients(
            "transversal ingredient must live on a clique blowup M_l[K_s], "
            f"got {ing.transversal_ingredient.host!r}"
        )
    if trans_params != (l, s):
        raise IncoherentIngredients(
            f"transversal ingredient parameters {trans_params} do not match "
            f"(l, s) = {(l, s)}"
        )

    k = ing.cell_ingredient.k
    if ing.transversal_ingredient.k != k:
        raise IncoherentIngredients(
            f"ingredients disagree on block size: "
            f"{k} vs {ing.transversal_ingredient.k}"
        )
    if ing.cell_ingredient.side != s:
        raise IncoherentIngredients(
            f"cell ingredient side must be s = {s}, "
            f"got {ing.cell_ingredient.side}"
        )
    if ing.transversal_ingredient.side != 2 * s - 1:
        raise IncoherentIngredients(
            f"transversal ingredient side must be 2s - 1 = {2 * s - 1}, "
            f"got {ing.transversal_ingredient.side}"
        )
    if ing.ingredient_hole.size != s - 1:
        raise IncoherentIngredients(
            f"hole must have size s - 1 = {s - 1}, "
            f"got {ing.ingredient_hole.size}"
        )

    for name, arr in (
        ("outer", outer),
        ("cell ingredient", ing.cell_ingredient),
        ("transversal ingredient", ing.transversal_ingredient),
    ):
        report = verify(arr)
        if not report.passed:
            raise IncoherentIngredients(
                f"{name} fails verification: {report.failure()}"
            )
    report = verify_transversal(outer, ing.outer_transversal)
    if not report.passed:
        raise IncoherentIngredients(
            f"outer transversal fails certification: {report.failure()}"
        )
    report = verify_transversal(
        ing.transversal_ingredient, ing.ingredient_transversal
    )
    if not report.passed:
        raise IncoherentIngredients(
            f"ingredient transversal fails certification: {report.failure()}"
        )
    report = verify_hole(ing.transversal_ingredient, ing.ingredient_hole)
    if not report.passed:
        raise IncoherentIngredients(
            f"ingredient hole fails certification: {report.failure()}"
        )
    return l, s, k


def _expand(ing: IngredientSet) -> tuple[DesignArray, Transversal]:
    """Blow up ing.outer by s into one cell dict, wrapped once; no checks.
    The transversal is the union of ing.ingredient_transversal's images in
    every outer transversal cell, empty or not (hole images coincide)."""
    outer, small, big = ing.outer, ing.cell_ingredient, ing.transversal_ingredient
    s = small.side
    # appended rows and columns, which take the larger ingredient's hole
    extras = list(range(s * outer.side, s * outer.side + s - 1))
    hole = ing.ingredient_hole
    big_rows = [r for r in range(big.side) if r not in hole.rows] + list(hole.rows)
    big_cols = [c for c in range(big.side) if c not in hole.cols] + list(hole.cols)
    on_transversal = set(ing.outer_transversal.cells)
    big_transversal = ing.ingredient_transversal.cells

    cells: dict[Cell, Block] = {}
    chosen: set[Cell] = set()
    for i, j in sorted(on_transversal.union(outer.cells)):
        if (i, j) in on_transversal:
            source, rows, cols = big, big_rows, big_cols
        else:
            source, rows, cols = small, range(s), range(s)
        row_map = dict(zip(rows, [*range(i * s, i * s + s), *extras]))
        col_map = dict(zip(cols, [*range(j * s, j * s + s), *extras]))
        if source is big:
            chosen.update((row_map[r], col_map[c]) for r, c in big_transversal)
        block = outer.cells.get((i, j))
        if block is None:
            continue
        # point x*s + z goes to phi(x)*s + z: phi sends group 2t to u_t and
        # 2t + 1 to v_t, the t-th edge (u_t, v_t) of the block
        pmap = [q * s + z for q in chain.from_iterable(block) for z in range(s)]
        for (r, c), piece in source.cells.items():
            target = (row_map[r], col_map[c])
            if target in cells:
                raise EmbeddingCollision(f"outer cell ({i}, {j}) collided at {target}")
            # an edge lies in groups 2t and 2t + 1, where phi increases, so
            # it stays canonical; the edges can change order only if k > 1
            # in the outer design, the one case the sort is for
            image = [(pmap[u], pmap[v]) for u, v in piece]
            image.sort()
            cells[target] = tuple(image)
    n = s * outer.n
    design = DesignArray(s * outer.side + s - 1, n, small.k, Complete(n), cells)
    return design, Transversal(tuple(sorted(chosen)))


def compose(ing: IngredientSet) -> DesignArray:
    """Blow up ing.outer by s after checking every ingredient; the result
    is verified before it is returned."""
    check_ingredients(ing)
    out, _transversal = _expand(ing)
    report = verify(out)
    if not report.passed:
        raise VerificationFailed(
            f"composed design failed verification: {report.failure()}"
        )
    return out


@dataclass(frozen=True)
class ConstructionResult:
    """A verified design plus its certified transversal, which comes from
    the path's builder: build_room's anti-diagonal (or order 10's constant)
    for k = 1, build_2k's, build_4k's or build_6k's fixed rule, or
    _expand's image on the product path.
    """

    design: DesignArray
    report: VerificationReport
    path: str
    transversal: Transversal
    transversal_report: VerificationReport


def _certify(
    design: DesignArray, path: str, transversal: Transversal
) -> ConstructionResult:
    report = verify(design)
    if not report.passed:
        raise VerificationFailed(
            f"{path} construction failed verification: {report.failure()}"
        )
    t_report = verify_transversal(design, transversal)
    if not t_report.passed:
        raise VerificationFailed(
            f"{path} construction produced a bad transversal: {t_report.failure()}"
        )
    return ConstructionResult(design, report, path, transversal, t_report)


def construct(
    n: int,
    k: int,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ConstructionResult:
    """Build a verified design for any admissible (n, k).

    Dispatch: order not divisible by 2k is impossible; k = 1 goes to the
    square builders (orders 4 and 6 impossible); n = 2k, 4k, 6k use the
    direct constructions; everything from 8k up expands a single-edge
    design of order n/k by s = k. Each builder returns its transversal.
    Every returned design and transversal has passed the verifier;
    NonExistent names the violated condition.
    """
    if n < 2 or k < 1:
        raise ValueError(f"need n >= 2 and k >= 1, got ({n}, {k})")
    if n % (2 * k) != 0:
        raise NonExistent(
            f"no design of order {n} with {k}-edge blocks: "
            f"the order must be a multiple of 2k = {2 * k}"
        )
    if k == 1:
        design, transversal = build_room(n, seed=seed, budget=budget)
        return _certify(design, "room", transversal)
    if n == 2 * k:
        design, transversal, _hole = build_2k(k)
        return _certify(design, "diagonal", transversal)
    if n == 4 * k:
        design, transversal = build_4k(k)
        return _certify(design, "quad-split", transversal)
    if n == 6 * k:
        design, transversal = build_6k(k)
        return _certify(design, "hex-split", transversal)

    m = n // k
    outer, outer_transversal = build_room(m, seed=seed, budget=budget)
    t_design, t_transversal, t_hole = build_2k(k)
    # the package's own builders made these ingredients, so they skip
    # check_ingredients; _certify verifies the expanded design once
    design, transversal = _expand(
        IngredientSet(
            outer=outer,
            outer_transversal=outer_transversal,
            cell_ingredient=build_m1k(k),
            transversal_ingredient=t_design,
            ingredient_transversal=t_transversal,
            ingredient_hole=t_hole,
        )
    )
    return _certify(design, f"product(room({m}), s={k})", transversal)
