"""One-factorizations of complete and complete bipartite graphs.

These are the raw material for every constructor in the package, so the
exact conventions matter: serialized designs are reproducible only because
the factor formulas below are fixed. Each returns its factors, in factor
order, as a tuple of canonical blocks.
"""

from __future__ import annotations

from .core import Block, canonical_block
from .errors import OddOrder


def ofact_complete(m: int) -> tuple[Block, ...]:
    """Circle-method one-factorization of the complete graph on m points.

    Factor i (0-based, i in 0..m-2) pairs the hub m-1 with i and adds
    {(i+j) mod (m-1), (i-j) mod (m-1)} for j = 1..m/2-1. Two points with
    index sum congruent to 2i land in factor i, so the factors partition
    all edges.
    """
    if m < 2 or m % 2:
        raise OddOrder(f"complete graph on {m} points has no one-factorization")
    ring = m - 1
    factors = []
    for i in range(ring):
        pairs = [(ring, i)]
        for j in range(1, m // 2):
            pairs.append(((i + j) % ring, (i - j) % ring))
        factors.append(canonical_block(pairs))
    return tuple(factors)


def ofact_bipartite(k: int) -> tuple[Block, ...]:
    """Cyclic one-factorization of the complete bipartite graph K_{k,k}.

    Sides are labeled 0..k-1 and k..2k-1; factor l (0-based) joins i to
    k + ((i + l) mod k), i.e. the rows of the cyclic Latin square on Z_k.
    """
    if k < 1:
        raise ValueError(f"side size must be positive, got {k}")
    return tuple(
        canonical_block((i, k + (i + offset) % k) for i in range(k))
        for offset in range(k)
    )
