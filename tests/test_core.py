"""Array plumbing: blocks, host graphs, arrays, transversals and holes."""

import itertools

import pytest

from omd.core import (
    Complete,
    CompleteBipartite,
    CompleteMultipartite,
    DesignArray,
    Hole,
    LexMatching,
    LexMatchingComplete,
    Transversal,
    canonical_block,
)
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
        report = verify(DesignArray(3, 4, 1, Complete(4), {(0, 0): block}))
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
    arr = DesignArray(3, 4, 2, Complete(4), {(0, 0): canonical_block(((0, 1), (1, 2)))})
    assert verify(arr).failure() == "block-shape: cell (0, 0) repeats an endpoint"


def test_place_range_checks():
    # a block placed past the array's edge or on a point outside 0..n-1
    # is named by verify rather than raising from the array itself
    report = verify(DesignArray(1, 2, 1, Complete(2), {(1, 0): canonical_block([(0, 1)])}))
    assert report.failure() == "block-shape: cell (1, 0) outside side-1 array"
    report = verify(DesignArray(1, 2, 1, Complete(2), {(0, 0): canonical_block([(0, 2)])}))
    assert report.failure() == "block-shape: cell (0, 0) uses a point outside 0..1"


def test_occupied_is_sorted():
    cells = {(1, 1): canonical_block([(2, 3)]), (0, 0): canonical_block([(0, 1)])}
    arr = DesignArray(2, 4, 1, Complete(4), cells)
    assert [cell for cell, _ in arr.occupied()] == [(0, 0), (1, 1)]


HOSTS_UP_TO_12 = (
    [Complete(n) for n in range(2, 13)]
    + [CompleteBipartite(a, b) for a in range(1, 7) for b in range(1, 7)]
    + [LexMatching(l, s) for l in range(1, 4) for s in range(1, 5)]
    + [LexMatchingComplete(l, s) for l in range(1, 4) for s in range(1, 4)]
    + [
        CompleteMultipartite(parts)
        for parts in [(2, 2, 2), (1, 2, 3), (3, 3), (2, 2, 2, 2), (1, 1, 1)]
    ]
)


def _edge_set(host):
    """Every pair (u, v) with v in host.above(u)."""
    return {(u, v) for u in range(host.vertex_count()) for v in host.above(u)}


def _adjacent(host, u, v):
    """Whether points u < v are adjacent, read off the host's definition."""
    if isinstance(host, Complete):
        return True
    if isinstance(host, CompleteBipartite):
        return u < host.a <= v
    if isinstance(host, LexMatching):
        return u // host.s % 2 == 0 and v // host.s == u // host.s + 1
    if isinstance(host, LexMatchingComplete):
        return u // (2 * host.s) == v // (2 * host.s)
    part = [i for i, size in enumerate(host.parts) for _ in range(size)]
    return part[u] != part[v]


@pytest.mark.parametrize("host", HOSTS_UP_TO_12, ids=repr)
def test_host_edge_count_matches_enumeration(host):
    n = host.vertex_count()
    assert len(_edge_set(host)) == host.edge_count()
    # above(u) is one range of points past u and inside 0..n-1, and it
    # holds exactly u's neighbours there
    for u in range(n):
        above = host.above(u)
        assert above.step == 1
        assert all(u < v < n for v in above)
    pairs = itertools.combinations(range(n), 2)
    assert _edge_set(host) == {(u, v) for u, v in pairs if _adjacent(host, u, v)}


@pytest.mark.parametrize("s", range(1, 11))
def test_clique_blowup_of_one_edge_is_complete(s):
    assert _edge_set(LexMatchingComplete(1, s)) == _edge_set(Complete(2 * s))


@pytest.mark.parametrize("s", range(1, 11))
def test_matching_blowup_of_one_edge_is_bipartite(s):
    assert _edge_set(LexMatching(1, s)) == _edge_set(CompleteBipartite(s, s))


def test_complete_edge_count_closed_form():
    for n in range(2, 13):
        assert Complete(n).edge_count() == n * (n - 1) // 2


def test_transversal_normalizes_cells():
    t = Transversal(((1, 0), (0, 1)))
    assert t.cells == ((1, 0), (0, 1))


def test_hole_sorts_and_validates():
    h = Hole((2, 0), (3, 1))
    assert h.rows == (0, 2) and h.cols == (1, 3)
    assert h.size == 2
    with pytest.raises(ValueError):
        Hole((0, 0), (1, 2))
    with pytest.raises(ValueError):
        Hole((0,), (1, 2))


def test_multipartite_rejects_empty_parts():
    with pytest.raises(ValueError):
        CompleteMultipartite((2, 0))


def test_multipartite_edges_cross_parts_only():
    host = CompleteMultipartite((2, 2, 2))
    edges = _edge_set(host)
    assert len(edges) == 12
    for u, v in itertools.combinations(range(6), 2):
        same_part = u // 2 == v // 2
        assert ((u, v) in edges) == (not same_part)
