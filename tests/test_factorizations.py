"""One-factorizations: the fixed formulas everything else leans on."""

import itertools

import pytest

from omd.core import canonical_block
from omd.errors import OddOrder
from omd.factorizations import ofact_bipartite, ofact_complete


def _points(block):
    return tuple(sorted(p for edge in block for p in edge))


def test_complete_two_points():
    assert ofact_complete(2) == (canonical_block([(0, 1)]),)


def test_complete_four_points_partitions_all_edges():
    factors = ofact_complete(4)
    assert len(factors) == 3
    seen = [e for f in factors for e in f]
    assert sorted(seen) == sorted(itertools.combinations(range(4), 2))
    for factor in factors:
        assert factor == canonical_block(factor)
        assert _points(factor) == tuple(range(4))


def test_complete_rejects_odd_order():
    with pytest.raises(OddOrder):
        ofact_complete(5)
    with pytest.raises(OddOrder):
        ofact_complete(1)


@pytest.mark.parametrize("m", range(2, 25, 2))
def test_complete_exhaustive(m):
    """m-1 factors, each a perfect matching, jointly covering each edge once."""
    factors = ofact_complete(m)
    assert len(factors) == m - 1
    seen = []
    for factor in factors:
        assert factor == canonical_block(factor)
        assert len(factor) == m // 2
        assert _points(factor) == tuple(range(m))
        seen.extend(factor)
    assert sorted(seen) == sorted(itertools.combinations(range(m), 2))


@pytest.mark.parametrize("m", [4, 8, 12])
def test_complete_circle_formula(m):
    # factor i pairs the hub with i and wraps (i+j, i-j) around the ring
    ring = m - 1
    for i, factor in enumerate(ofact_complete(m)):
        expected = {(min(ring, i), max(ring, i))}
        for j in range(1, m // 2):
            u, v = (i + j) % ring, (i - j) % ring
            expected.add((min(u, v), max(u, v)))
        assert set(factor) == expected


def test_bipartite_single_edge():
    assert ofact_bipartite(1) == (canonical_block([(0, 1)]),)


def test_bipartite_two_by_two():
    assert ofact_bipartite(2) == (
        canonical_block(((0, 2), (1, 3))),
        canonical_block(((0, 3), (1, 2))),
    )


def test_bipartite_rejects_nonpositive():
    with pytest.raises(ValueError):
        ofact_bipartite(0)


@pytest.mark.parametrize("k", range(1, 25))
def test_bipartite_exhaustive(k):
    """k factors partitioning all k*k cross edges of K_{k,k}."""
    factors = ofact_bipartite(k)
    assert len(factors) == k
    seen = []
    for factor in factors:
        assert factor == canonical_block(factor)
        assert _points(factor) == tuple(range(2 * k))
        for u, v in factor:
            assert u < k <= v
        seen.extend(factor)
    assert sorted(seen) == [(i, k + j) for i in range(k) for j in range(k)]


def test_determinism():
    assert ofact_complete(10) == ofact_complete(10)
    assert ofact_bipartite(7) == ofact_bipartite(7)
