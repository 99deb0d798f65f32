"""Domain types for orthogonally resolvable matching designs.

The central object is a square array whose cells are empty or hold a block,
a matching of k disjoint edges over dense integer points. In a finished
design every row and every column is a resolution class (it covers each
point of the host graph exactly once) and every host edge lies in exactly
one block across the whole array.

Constructors that think in structured coordinates (group elements, side
labels, part indices) flatten them to 0..n-1 through bijections documented
where they are used, so this layer only ever sees plain integers.

Builders fill one cell dict and wrap it once; callers treat the finished
array as a value and do not mutate it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

Point = int
Edge = tuple[int, int]
Cell = tuple[int, int]


def make_edge(u: int, v: int) -> Edge:
    """Return the pair {u, v} in canonical (min, max) order."""
    if u == v:
        raise ValueError(f"loop at point {u} is not an edge")
    if u < 0 or v < 0:
        raise ValueError(f"points must be non-negative, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Block:
    """A matching: k edges with 2k distinct endpoints.

    Edges are kept canonically ordered (each as (min, max), the tuple
    sorted), so equal matchings compare and hash equal no matter how they
    were assembled.
    """

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(make_edge(u, v) for u, v in self.edges))
        seen: set[int] = set()
        for u, v in canon:
            if u in seen or v in seen:
                raise ValueError("edges share an endpoint; not a matching")
            seen.add(u)
            seen.add(v)
        object.__setattr__(self, "edges", canon)

    @property
    def k(self) -> int:
        return len(self.edges)

    @property
    def points(self) -> tuple[int, ...]:
        return tuple(sorted(p for e in self.edges for p in e))


@dataclass(frozen=True)
class Complete:
    """Complete graph on points 0..n-1."""

    n: int

    def vertex_count(self) -> int:
        return self.n

    def edge_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def edges(self) -> Iterator[Edge]:
        yield from itertools.combinations(range(self.n), 2)


@dataclass(frozen=True)
class CompleteBipartite:
    """Complete bipartite graph with sides 0..a-1 and a..a+b-1."""

    a: int
    b: int

    def vertex_count(self) -> int:
        return self.a + self.b

    def edge_count(self) -> int:
        return self.a * self.b

    def edges(self) -> Iterator[Edge]:
        for i in range(self.a):
            for j in range(self.b):
                yield (i, self.a + j)


@dataclass(frozen=True)
class LexMatching:
    """l disjoint edges with every point blown into s independent copies.

    Copy z of group x sits at point x*s + z. Groups 2t and 2t+1 are joined
    completely for each t; no other adjacency. LexMatching(1, s) is the
    complete bipartite graph on s + s points.
    """

    l: int
    s: int

    def vertex_count(self) -> int:
        return 2 * self.l * self.s

    def edge_count(self) -> int:
        return self.l * self.s * self.s

    def edges(self) -> Iterator[Edge]:
        s = self.s
        for t in range(self.l):
            left, right = (2 * t) * s, (2 * t + 1) * s
            for i in range(s):
                for j in range(s):
                    yield (left + i, right + j)


@dataclass(frozen=True)
class LexMatchingComplete:
    """Like LexMatching, but each group of s copies is itself complete.

    The graph is l disjoint complete graphs on 2s points, one per original
    edge; in particular LexMatchingComplete(1, s) has exactly the edge set
    of Complete(2s).
    """

    l: int
    s: int

    def vertex_count(self) -> int:
        return 2 * self.l * self.s

    def edge_count(self) -> int:
        return self.l * self.s * (2 * self.s - 1)

    def edges(self) -> Iterator[Edge]:
        s = self.s
        for t in range(self.l):
            left, right = (2 * t) * s, (2 * t + 1) * s
            for i in range(s):
                for j in range(s):
                    yield (left + i, right + j)
            for base in (left, right):
                for i, j in itertools.combinations(range(s), 2):
                    yield (base + i, base + j)


@dataclass(frozen=True)
class CompleteMultipartite:
    """Complete multipartite graph; parts occupy consecutive point ranges."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError("part sizes must be positive")

    def vertex_count(self) -> int:
        return sum(self.parts)

    def edge_count(self) -> int:
        total = sum(self.parts)
        return (total * total - sum(p * p for p in self.parts)) // 2

    def edges(self) -> Iterator[Edge]:
        offsets = [0]
        for p in self.parts:
            offsets.append(offsets[-1] + p)
        for pi in range(len(self.parts)):
            for pj in range(pi + 1, len(self.parts)):
                for u in range(offsets[pi], offsets[pi + 1]):
                    for v in range(offsets[pj], offsets[pj + 1]):
                        yield (u, v)


HostGraph = (
    Complete
    | CompleteBipartite
    | LexMatching
    | LexMatchingComplete
    | CompleteMultipartite
)


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
        return sorted(self.cells.items())


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
