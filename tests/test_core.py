"""Array plumbing: blocks, host graphs, arrays, transversals and holes."""

import itertools

import pytest

from omd.core import (
    Block,
    Complete,
    CompleteBipartite,
    CompleteMultipartite,
    DesignArray,
    Hole,
    LexMatching,
    LexMatchingComplete,
    Transversal,
    make_edge,
)
from omd.verify import verify


def test_make_edge_canonical():
    assert make_edge(3, 1) == (1, 3)
    assert make_edge(1, 3) == (1, 3)


def test_make_edge_rejects_loops_and_negatives():
    with pytest.raises(ValueError):
        make_edge(2, 2)
    with pytest.raises(ValueError):
        make_edge(-1, 2)


def test_block_canonicalizes_assembly_order():
    a = Block(((5, 4), (0, 1)))
    b = Block(((1, 0), (4, 5)))
    assert a == b
    assert hash(a) == hash(b)
    assert a.edges == ((0, 1), (4, 5))


def test_block_rejects_shared_endpoint():
    with pytest.raises(ValueError):
        Block(((0, 1), (1, 2)))


def test_block_k_and_points():
    b = Block(((2, 7), (0, 5)))
    assert b.k == 2
    assert b.points == (0, 2, 5, 7)


def test_place_range_checks():
    # a block placed past the array's edge or on a point outside 0..n-1
    # is named by verify rather than raising from the array itself
    report = verify(DesignArray(1, 2, 1, Complete(2), {(1, 0): Block(((0, 1),))}))
    assert report.failure() == "block-shape: cell (1, 0) outside side-1 array"
    report = verify(DesignArray(1, 2, 1, Complete(2), {(0, 0): Block(((0, 2),))}))
    assert report.failure() == "block-shape: cell (0, 0) uses a point outside 0..1"


def test_occupied_is_sorted():
    cells = {(1, 1): Block(((2, 3),)), (0, 0): Block(((0, 1),))}
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
    """Every canonical pair u < v of the host's points that has_edge accepts."""
    points = range(host.vertex_count())
    return {(u, v) for u, v in itertools.combinations(points, 2) if host.has_edge(u, v)}


@pytest.mark.parametrize("host", HOSTS_UP_TO_12, ids=repr)
def test_host_edge_count_matches_enumeration(host):
    n = host.vertex_count()
    assert len(_edge_set(host)) == host.edge_count()
    # loops, reversed pairs and points outside 0..n-1 are never edges
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            if host.has_edge(u, v):
                assert 0 <= u < v < n


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
