"""Array plumbing: blocks, the K_n host, arrays and holes."""

import itertools

import pytest

from omd.bases import build_2k
from omd.compose import _expand
from omd.core import DesignArray, Hole, canonical_block
from omd.verify import verify


def test_canonical_block_orders_each_pair():
    assert canonical_block([(3, 1)]) == ((1, 3),)
    assert canonical_block([(1, 3)]) == ((1, 3),)


def test_block_shape_rejects_loops_and_negatives():
    # no block type checks its pairs; verify names the fault, and a loop,
    # a point outside 0..n-1 or a reversed pair is never a host edge
    cases = [
        (canonical_block([(2, 2)]), "repeats an endpoint"),
        (canonical_block([(-1, 2)]), "uses a point outside 0..3"),
        (canonical_block([(0, 4)]), "uses a point outside 0..3"),
        (((3, 1),), "has a non-canonical edge"),
    ]
    for block, detail in cases:
        report = verify(DesignArray(3, 4, 1, {(0, 0): block}))
        assert report.failure() == f"block-shape: cell (0, 0) {detail}"
        assert report.checks[-1].detail == f"pair {block[0]} is not a host edge"


def test_block_canonicalizes_assembly_order():
    a = canonical_block(((5, 4), (0, 1)))
    b = canonical_block(((1, 0), (4, 5)))
    assert a == b
    assert hash(a) == hash(b)
    assert a == ((0, 1), (4, 5))


def test_block_rejects_shared_endpoint():
    # the block builds; verify is what refuses it
    arr = DesignArray(3, 4, 2, {(0, 0): canonical_block(((0, 1), (1, 2)))})
    assert verify(arr).failure() == "block-shape: cell (0, 0) repeats an endpoint"


def test_place_range_checks():
    # a block placed past the array's edge or on a point outside 0..n-1
    # is named by verify rather than raising from the array itself
    report = verify(DesignArray(1, 2, 1, {(1, 0): canonical_block([(0, 1)])}))
    assert report.failure() == "block-shape: cell (1, 0) outside side-1 array"
    report = verify(DesignArray(1, 2, 1, {(0, 0): canonical_block([(0, 2)])}))
    assert report.failure() == "block-shape: cell (0, 0) uses a point outside 0..1"


def test_occupied_is_sorted():
    cells = {(1, 1): canonical_block([(2, 3)]), (0, 0): canonical_block([(0, 1)])}
    arr = DesignArray(2, 4, 1, cells)
    assert [cell for cell, _ in sorted(arr.cells.items())] == [(0, 0), (1, 1)]


def test_arrays_hold_the_dict_in_row_col_order():
    cells = {(1, 1): ((3, 2),), (0, 0): ((0, 1), (2, 5)), (0, 2): ()}
    arr = DesignArray(2, 6, 2, cells)
    assert (arr.rows, arr.cols, arr.sizes) == ([0, 0, 1], [0, 2, 1], [2, 0, 1])
    assert arr.points == [0, 1, 2, 5, 3, 2]
    assert list(arr.cells.items()) == sorted(cells.items())
    assert arr.block_at(0, 0) == ((0, 1), (2, 5))
    assert arr.block_at(0, 2) == ()
    assert arr.block_at(1, 1) == ((3, 2),)
    assert arr.block_at(1, 0) is None and arr.block_at(2, 1) is None
    assert [arr.find(*cell) for cell in ((0, 0), (0, 2), (1, 1), (0, 1))] == [0, 1, 2, None]
    # of_arrays keeps lists already in (row, col) order and sorts others
    again = DesignArray.of_arrays(2, 6, 2, arr.rows, arr.cols, arr.sizes, arr.points)
    assert again.rows is arr.rows and again.points is arr.points
    shuffled = DesignArray.of_arrays(2, 6, 2, [1, 0, 0], [1, 0, 2], [1, 2, 0], [3, 2, 0, 1, 2, 5])
    assert (shuffled.rows, shuffled.cols, shuffled.sizes) == ([0, 0, 1], [0, 2, 1], [2, 0, 1])
    assert shuffled.points == [0, 1, 2, 5, 3, 2] and shuffled == arr


def test_cells_view_is_a_copy():
    arr = build_2k(3)[0]
    arr.cells.pop((0, 0))
    assert (0, 0) in arr.cells and len(arr.cells) == 5


def test_a_cell_held_twice_is_refused():
    # at construction, before any reader of the array can see it
    with pytest.raises(ValueError, match=r"cell \(0, 0\) is held twice"):
        DesignArray.of_arrays(2, 3, 1, [0, 1, 0], [0, 1, 0], [1, 1, 1], [0, 1, 1, 2, 0, 2])
    with pytest.raises(ValueError, match=r"cell \(1, 1\) is held twice"):
        DesignArray.of_arrays(2, 3, 1, [1, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1, 2, 0, 2])


def _edge_set(n):
    """Every pair u < v of K_n's points."""
    return set(itertools.combinations(range(n), 2))


def _coverage(n, edges):
    """verify's pair-coverage check on the given edges, one to a cell."""
    cells = {(i, i): (edge,) for i, edge in enumerate(edges)}
    report = verify(DesignArray(max(len(edges), 1), n, 1, cells))
    return next(c for c in report.checks if c.name == "pair-coverage")


@pytest.mark.parametrize("n", range(2, 13), ids=lambda n: f"Complete(n={n})")
def test_host_edge_count_matches_enumeration(n):
    # verify asks for exactly the enumerated pairs of K_n, n(n-1)/2 of
    # them, and names the first one left out
    edges = sorted(_edge_set(n))
    assert len(edges) == n * (n - 1) // 2
    assert _coverage(n, edges).passed
    assert _coverage(n, edges[1:]).detail == f"host edge {edges[0]} is uncovered"
    assert _coverage(n, edges[:-1]).detail == f"host edge {edges[-1]} is uncovered"


def _one_edge_blowup(s, copies_joined):
    """K_2 with each end blown into s copies (copy z of end x is x*s + z);
    the copies of one end are joined to each other when copies_joined."""
    pairs = itertools.combinations(range(2 * s), 2)
    return {(u, v) for u, v in pairs if copies_joined or u // s != v // s}


@pytest.mark.parametrize("s", range(1, 11))
def test_clique_blowup_of_one_edge_is_complete(s):
    # the host of the product's transversal ingredient
    assert build_2k(s)[0].n == 2 * s
    assert _one_edge_blowup(s, True) == _edge_set(2 * s)


@pytest.mark.parametrize("s", range(1, 11))
def test_matching_blowup_of_one_edge_is_bipartite(s):
    # the edges of the product's cell ingredient: one outer edge off the
    # transversal, expanded by s
    edge = DesignArray(1, 2, 1, {(0, 0): canonical_block([(0, 1)])})
    cells = _expand(edge, (), s)[0].cells
    placed = [e for block in cells.values() for e in block]
    assert len(placed) == s * s
    assert set(placed) == _one_edge_blowup(s, False)


def test_complete_edge_count_closed_form():
    # a design on K_n places each of the n(n-1)/2 edges once
    for k in range(1, 7):
        arr = build_2k(k)[0]
        assert verify(arr).passed
        assert sum(map(len, arr.cells.values())) == arr.n * (arr.n - 1) // 2


def test_hole_sorts_and_validates():
    h = Hole((2, 0), (3, 1))
    assert h.rows == (0, 2) and h.cols == (1, 3)
    assert h.size == 2
    with pytest.raises(ValueError):
        Hole((0, 0), (1, 2))
    with pytest.raises(ValueError):
        Hole((0,), (1, 2))
