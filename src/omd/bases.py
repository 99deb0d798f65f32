"""Direct constructions for the small parameter families.

Three builders cover the orders n = 2k, 4k and 6k, each by arranging
one-factorization factors in a fixed pattern. Every builder documents its
point flattening, because those bijections are what make serialized output
reproducible.
"""

from __future__ import annotations

from .core import DesignArray, Hole, Transversal, canonical_block
from .errors import KTooSmall
from .factorizations import ofact_bipartite, ofact_complete


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
    arr = DesignArray(side, n, k, cells)
    transversal = tuple((side - 1 - i, i) for i in range(side))
    hole = Hole(tuple(range(k - 1)), tuple(range(k, side)))
    return arr, transversal, hole


def _circulant(cells: dict, row: int, col: int, factors, bases) -> None:
    """Lay factor i at (row + i, col + (i + t) mod len(factors)) for each t,
    (low, high) in bases: a k-edge factor's points a < k go to low + a, the
    others to high + a - k, each block re-sorted, as high may lie below low."""
    k, size = len(factors[0]), len(factors)
    spots = [[*range(low, low + k), *range(high, high + k)] for low, high in bases]
    for i, factor in enumerate(factors):
        for t, spot in enumerate(spots):
            block = canonical_block([(spot[u], spot[v]) for u, v in factor])
            cells[(row + i, col + (i + t) % size)] = block


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
    _circulant(cells, 0, 0, bip, [(a0, b0), (a1, b1)])
    _circulant(cells, k, k, bip, [(a0, b1), (a1, b0)])
    _circulant(cells, 2 * k, 2 * k, ofact_complete(2 * k), [(a0, a1), (b0, b1)])
    ring = 2 * k - 1
    chosen = [(i, 2 * k - 1 - i) for i in range(2 * k)]
    chosen += [(2 * k + r, 2 * k + -r % ring) for r in range(ring)]
    return DesignArray(n - 1, n, k, cells), tuple(chosen)


# One-edge cells (row, col, u, v), u < v, of the 4 x 4 order-6 pattern
# underlying build_6k, a pattern row to a line, over the parts {0,1}, {2,3},
# {4,5} of K_{2,2,2}. Rows and columns each cover all six points and the
# twelve cross-part pairs appear once.
_SIX_PATTERN = (
    (0, 0, 0, 2), (0, 1, 1, 4), (0, 3, 3, 5),
    (1, 0, 1, 5), (1, 1, 0, 3), (1, 2, 2, 4),
    (2, 0, 3, 4), (2, 2, 0, 5), (2, 3, 1, 2),
    (3, 1, 2, 5), (3, 2, 1, 3), (3, 3, 0, 4),
)


def build_6k(k: int) -> tuple[DesignArray, Transversal]:
    """Design of order n = 6k for k > 1, side 6k - 1, with a transversal.

    Points are (q, z) with q a point 0..5 of _SIX_PATTERN and level z in
    Z_k, flattened to k*q + z, so part q // 2 occupies a contiguous run of
    2k points.

    Rows 0..4k-1 expand the 4 x 4 pattern _SIX_PATTERN: each one-edge
    cell {u, v}, u < v, becomes a k x k diagonal band holding the bipartite
    factors between u's and v's k levels (u's levels take the 0..k-1
    side). Expanded rows inherit the pattern row's full coverage,
    and together the bands cover every cross-part edge once.

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
    for r, c, u, v in _SIX_PATTERN:
        _circulant(cells, r * k, c * k, bip, [(u * k, v * k)])
    parts = [(2 * k * p, 2 * k * p + k) for p in range(3)]
    _circulant(cells, 4 * k, 4 * k, ofact_complete(2 * k), parts)
    ring = 2 * k - 1
    empty = enumerate((2, 3, 1, 0))
    chosen = [(r * k + t, c * k + t) for r, c in empty for t in range(k)]
    chosen += [(4 * k + r, 4 * k + -r % ring) for r in range(ring)]
    return DesignArray(n - 1, n, k, cells), tuple(chosen)
