"""Domain types for orthogonally resolvable matching designs.

The central object is a square array whose cells are empty or hold a block,
a matching of k disjoint edges over dense integer points. In a finished
design every row and every column is a resolution class (it covers each
point of the host graph exactly once) and every host edge lies in exactly
one block across the whole array.

The host is K_n, where the paper's designs live: a design's edges are all
pairs of its n points, so n alone names it.

A block is a plain tuple of edges in canonical form (each edge as
(min, max), the tuple sorted), made by canonical_block. Nothing here checks
that a block is a matching; the verifier is the one place that does.

Constructors that think in structured coordinates (group elements, side
labels, part indices) flatten them to 0..n-1 through bijections documented
where they are used, so this layer only ever sees plain integers.

Builders fill one cell dict and wrap it once; every call builds its own
array, which the caller owns.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

Edge = tuple[int, int]
Cell = tuple[int, int]


# kept canonical, so equal matchings compare and hash equal
Block = tuple[Edge, ...]

# one chosen cell per row and per column; chosen cells may be empty. A
# valid transversal's non-empty chosen cells jointly cover every point of
# the design exactly once; the verifier decides that, nothing here assumes it
Transversal = tuple[Cell, ...]


def canonical_block(pairs: Iterable[tuple[int, int]]) -> Block:
    """The block of these pairs in canonical form; checks nothing.

    Whether the pairs form a k-matching over 0..n-1 is the verifier's
    question, not this helper's.
    """
    return tuple(sorted([(u, v) if u < v else (v, u) for u, v in pairs]))


@dataclass
class DesignArray:
    """Square array of optional blocks plus design metadata.

    cells maps (row, col) to the block stored there; absent keys are empty
    cells. Nothing here checks the cells against side, n or k; that is the
    verifier's job.
    """

    side: int
    n: int
    k: int
    cells: dict[Cell, Block]

    def block_at(self, row: int, col: int) -> Block | None:
        return self.cells.get((row, col))

    def occupied(self) -> list[tuple[Cell, Block]]:
        """Occupied cells and their blocks in (row, col) order."""
        return sorted(self.cells.items(), key=itemgetter(0))


@dataclass(frozen=True)
class Hole:
    """Row and column index sets whose crossing cells are all empty."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows, cols = tuple(sorted(self.rows)), tuple(sorted(self.cols))
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("hole indices repeat")
        if len(rows) != len(cols):
            raise ValueError("hole must use equally many rows and columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def size(self) -> int:
        return len(self.rows)
