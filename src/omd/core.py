"""Domain types for orthogonally resolvable matching designs.

The central object is a square array whose cells are empty or hold a block,
a matching of k disjoint edges over dense integer points. In a finished
design every row and every column is a resolution class (it covers each
point of the host graph exactly once) and every host edge lies in exactly
one block across the whole array.

Hosts are Complete(n), K_n, where the paper's designs live, and
CompleteMultipartite, for the K_{s,s} ingredient and the six-point square.

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

import bisect
import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

Edge = tuple[int, int]
Cell = tuple[int, int]


# kept canonical, so equal matchings compare and hash equal
Block = tuple[Edge, ...]


def canonical_block(pairs: Iterable[tuple[int, int]]) -> Block:
    """The block of these pairs in canonical form; checks nothing.

    Whether the pairs form a k-matching over 0..n-1 is the verifier's
    question, not this helper's.
    """
    return tuple(sorted([(u, v) if u < v else (v, u) for u, v in pairs]))


@dataclass(frozen=True)
class Complete:
    """Complete graph on points 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("host order must not be negative")

    def vertex_count(self) -> int:
        return self.n

    def edge_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def above(self, u: int) -> range:
        return range(u + 1, self.n)


@dataclass(frozen=True)
class CompleteMultipartite:
    """Complete multipartite graph; parts occupy consecutive point ranges."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError("part sizes must be positive")
        # part i ends before _ends[i], and u < v are adjacent when v lies
        # past the end of u's part; not a field, so eq and repr skip it
        object.__setattr__(self, "_ends", tuple(itertools.accumulate(self.parts)))

    def vertex_count(self) -> int:
        return sum(self.parts)

    def edge_count(self) -> int:
        total = sum(self.parts)
        return (total * total - sum(p * p for p in self.parts)) // 2

    def above(self, u: int) -> range:
        ends = self._ends
        return range(ends[bisect.bisect_right(ends, u)], ends[-1])


# A host is K_n or complete multipartite; above(u) is the range of u's
# neighbours past u, contiguous in both. No host enumerates its edges; the
# verifier asks about the points it meets.
HostGraph = Complete | CompleteMultipartite


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
    host: HostGraph
    cells: dict[Cell, Block]

    def block_at(self, row: int, col: int) -> Block | None:
        return self.cells.get((row, col))

    def occupied(self) -> list[tuple[Cell, Block]]:
        """Occupied cells and their blocks in (row, col) order."""
        return sorted(self.cells.items(), key=itemgetter(0))


@dataclass(frozen=True)
class Transversal:
    """One chosen cell per row and per column; chosen cells may be empty.

    A valid transversal's non-empty chosen cells jointly cover every point
    of the design exactly once; validity is established by the verifier,
    not assumed here.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cells", tuple((int(r), int(c)) for r, c in self.cells)
        )


@dataclass(frozen=True)
class Hole:
    """Row and column index sets whose crossing cells are all empty."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(sorted(int(r) for r in self.rows))
        cols = tuple(sorted(int(c) for c in self.cols))
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("hole indices repeat")
        if len(rows) != len(cols):
            raise ValueError("hole must use equally many rows and columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def size(self) -> int:
        return len(self.rows)
