"""Direct constructions for the small parameter families.

Four builders cover the orders n = 2k, 4k, 6k plus the bipartite blowup
ingredient, each by arranging one-factorization factors in a fixed
pattern. Every builder documents its point flattening, because those
bijections are what make serialized output reproducible.
"""

from __future__ import annotations

from .core import (
    Block,
    Complete,
    CompleteMultipartite,
    DesignArray,
    Hole,
    Transversal,
    canonical_block,
)
from .errors import KTooSmall
from .factorizations import ofact_bipartite, ofact_complete


def build_m1k(k: int) -> DesignArray:
    """Design of matching size k on the blown-up single edge (side k).

    The host is CompleteMultipartite((k, k)), i.e. K_{k,k} with sides
    0..k-1 and k..2k-1. Factor i of the cyclic bipartite one-factorization
    goes to cell (i, i); rows and columns then resolve because each factor
    is a perfect matching.
    """
    cells = {(i, i): factor for i, factor in enumerate(ofact_bipartite(k))}
    return DesignArray(k, 2 * k, k, CompleteMultipartite((k, k)), cells)


def build_2k(k: int) -> tuple[DesignArray, Transversal, Hole]:
    """Design of order n = 2k with a transversal and a hole of size k-1.

    Factor i of the circle-method one-factorization of the complete graph
    on 2k points goes to cell (i, i) of a side 2k-1 array. The back
    diagonal (2k-2-i, i) is a transversal: it meets the main diagonal only
    at i = k-1, whose factor covers all 2k points, and every other chosen
    cell is empty. Rows 0..k-2 against columns k..2k-2 never touch the
    diagonal, giving a (k-1) x (k-1) hole in the upper right.
    """
    n = 2 * k
    side = n - 1
    cells = {(i, i): factor for i, factor in enumerate(ofact_complete(n))}
    arr = DesignArray(side, n, k, Complete(n), cells)
    transversal = Transversal(tuple((side - 1 - i, i) for i in range(side)))
    hole = Hole(tuple(range(k - 1)), tuple(range(k, side)))
    return arr, transversal, hole


def _relabel(block: Block, mapping: dict[int, int]) -> Block:
    return canonical_block((mapping[u], mapping[v]) for u, v in block)


def _split_map(first_base: int, second_base: int, k: int) -> dict[int, int]:
    """Send one-factorization points 0..k-1 and k..2k-1 to two point ranges."""
    mapping = {p: first_base + p for p in range(k)}
    mapping.update({k + p: second_base + p for p in range(k)})
    return mapping


def build_4k(k: int) -> tuple[DesignArray, Transversal]:
    """Design of order n = 4k for k > 1, side 4k - 1, with a transversal.

    Points are (x, i, j) in Z_k x {0,1} x {0,1}, flattened to
    x + k*i + 2k*j. That puts the four groups at A0 = 0..k-1,
    B0 = k..2k-1, A1 = 2k..3k-1, B1 = 3k..4k-1.

    Three square bands sit on the diagonal of the final array:

    * rows 0..k-1: a circulant with the (A0,B0) bipartite factors on the
      diagonal and the (A1,B1) factors one step right (wrapping),
    * rows k..2k-1: the same with (A0,B1) and (A1,B0),
    * rows 2k..4k-2: a side 2k-1 circulant holding the complete-graph
      factors of A0 u A1 on the diagonal and those of B0 u B1 one step
      right (wrapping).

    Each band row holds two factors covering complementary halves of the
    point set, so rows and columns resolve; the bands together cover the
    four bipartite edge classes and the two within-half classes exactly
    once. k = 1 would collide both circulant diagonals, hence the guard.

    Transversal: the empty cells (i, 2k-1-i) for i < 2k, then the ring's
    anti-diagonal (2k+r, 2k + (-r mod 2k-1)), which meets offsets 0 and 1
    once each, taking one full factor of A0 u A1 and one of B0 u B1.
    """
    if k < 2:
        raise KTooSmall("order 4k needs k >= 2; k = 1 is the order-4 exclusion")
    n = 4 * k
    a0, b0, a1, b1 = 0, k, 2 * k, 3 * k
    cells = {}

    bip = ofact_bipartite(k)
    for i in range(k):
        cells[(i, i)] = _relabel(bip[i], _split_map(a0, b0, k))
        cells[(i, (i + 1) % k)] = _relabel(bip[i], _split_map(a1, b1, k))
    for i in range(k):
        cells[(k + i, k + i)] = _relabel(bip[i], _split_map(a0, b1, k))
        cells[(k + i, k + (i + 1) % k)] = _relabel(bip[i], _split_map(a1, b0, k))

    comp = ofact_complete(2 * k)
    a_half = _split_map(a0, a1, k)
    b_half = _split_map(b0, b1, k)
    ring = 2 * k - 1
    for i in range(ring):
        cells[(2 * k + i, 2 * k + i)] = _relabel(comp[i], a_half)
        cells[(2 * k + i, 2 * k + (i + 1) % ring)] = _relabel(comp[i], b_half)
    chosen = [(i, 2 * k - 1 - i) for i in range(2 * k)]
    chosen += [(2 * k + r, 2 * k + -r % ring) for r in range(ring)]
    return DesignArray(n - 1, n, k, Complete(n), cells), Transversal(tuple(chosen))


# One-edge cells of the order-6 pattern underlying build_6k: point (p, y)
# of part p in Z_3, copy y in Z_2. Rows and columns each cover all six
# points and the twelve cross-part pairs appear once.
_SIX_PATTERN = (
    (0, 0, (0, 0), (1, 0)),
    (0, 1, (0, 1), (2, 0)),
    (0, 3, (1, 1), (2, 1)),
    (1, 0, (0, 1), (2, 1)),
    (1, 1, (0, 0), (1, 1)),
    (1, 2, (1, 0), (2, 0)),
    (2, 0, (1, 1), (2, 0)),
    (2, 2, (0, 0), (2, 1)),
    (2, 3, (0, 1), (1, 0)),
    (3, 1, (1, 0), (2, 1)),
    (3, 2, (0, 1), (1, 1)),
    (3, 3, (0, 0), (2, 0)),
)


def six_point_square() -> DesignArray:
    """The 4 x 4 single-edge design on the complete tripartite graph K_{2,2,2}.

    Parts are {0,1}, {2,3}, {4,5} under the flattening (p, y) -> 2p + y.
    This is the pattern build_6k expands; it is exported so it can be
    checked and shown on its own.
    """
    cells = {
        (r, c): canonical_block([(2 * p1 + y1, 2 * p2 + y2)])
        for r, c, (p1, y1), (p2, y2) in _SIX_PATTERN
    }
    return DesignArray(4, 6, 1, CompleteMultipartite((2, 2, 2)), cells)


def build_6k(k: int) -> tuple[DesignArray, Transversal]:
    """Design of order n = 6k for k > 1, side 6k - 1, with a transversal.

    Points are ((p, y), z) with part p in Z_3, copy y in Z_2, level z in
    Z_k, flattened to 2k*p + k*y + z so each part occupies a contiguous
    run of 2k points.

    Rows 0..4k-1 expand the 4 x 4 pattern of six_point_square: each
    one-edge cell {P, Q} becomes a k x k diagonal band holding the
    bipartite factors between P's and Q's k levels (the group with the
    smaller flattened base takes the 0..k-1 side). Expanded rows inherit
    the pattern row's full coverage, and together the bands cover every
    cross-part edge once.

    Rows 4k..6k-2 are a side 2k-1 circulant whose diagonals at offsets
    0, 1, 2 hold the complete-graph factors of the three parts, covering
    the within-part edges. k = 1 would collapse the three offsets, hence
    the guard.

    Transversal: (R*k+t, C*k+t) for t < k and the pattern's empty cells
    (R, C) = (0, 2), (1, 3), (2, 1), (3, 0), then the ring's anti-diagonal
    (4k+r, 4k + (-r mod 2k-1)), meeting offsets 0, 1 and 2 once each.
    """
    if k < 2:
        raise KTooSmall("order 6k needs k >= 2; k = 1 is the order-6 exclusion")
    n = 6 * k
    cells = {}

    bip = ofact_bipartite(k)
    for r, c, (p1, y1), (p2, y2) in _SIX_PATTERN:
        base1 = 2 * k * p1 + k * y1
        base2 = 2 * k * p2 + k * y2
        low, high = min(base1, base2), max(base1, base2)
        for t in range(k):
            cells[(r * k + t, c * k + t)] = _relabel(bip[t], _split_map(low, high, k))

    comp = ofact_complete(2 * k)
    ring = 2 * k - 1
    for i in range(ring):
        for p in range(3):
            part = {q: 2 * k * p + q for q in range(2 * k)}
            cells[(4 * k + i, 4 * k + (i + p) % ring)] = _relabel(comp[i], part)
    empty = enumerate((2, 3, 1, 0))
    chosen = [(r * k + t, c * k + t) for r, c in empty for t in range(k)]
    chosen += [(4 * k + r, 4 * k + -r % ring) for r in range(ring)]
    return DesignArray(n - 1, n, k, Complete(n), cells), Transversal(tuple(chosen))
