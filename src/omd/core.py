"""Domain types for orthogonally resolvable matching designs.

The central object is a square array whose cells are empty or hold a block,
a matching of k disjoint edges over dense integer points. In a finished
design every row and every column is a resolution class (it covers each
point of the host graph exactly once) and every host edge lies in exactly
one block across the whole array.

The host is K_n, where the paper's designs live: a design's edges are all
pairs of its n points, so n alone names it.

A DesignArray holds its occupied cells as flat int lists: rows, cols, the
number of edges of each cell's block, and the blocks' endpoints, two per
edge, one block after another. The cells are in (row, col) order from
the moment an array is made, so each row is one run of cells and a cell
is found by bisection. Both constructors put them in that order:
DesignArray(side, n, k, cells) sorts its dict, and of_arrays keeps lists
in order or sorts copies. of_arrays alone finds a cell held twice, which
a dict cannot hold. A builder writes each edge as (min, max) and a
block's edges sorted, the canonical form canonical_block makes. Nothing here checks that a block is a
matching; the verifier is the one place that does. The cells property is
a dict of (row, col) to block, built on demand for renderers, tests and
small designs.

Constructors that think in structured coordinates (group elements, side
labels, part indices) flatten them to 0..n-1 through bijections documented
where they are used, so this layer only ever sees plain integers.

Every builder call writes its own lists, which the caller owns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, and_, attrgetter, eq, itemgetter, lt, mul

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


class DesignArray:
    """Square array of optional blocks plus design metadata.

    DesignArray(side, n, k, cells) copies a dict of (row, col) to block
    into the lists once, in (row, col) order; of_arrays wraps lists that a
    builder or the file reader wrote. Cell i is (rows[i], cols[i]) and
    holds sizes[i] edges, whose endpoints follow those of the cells before
    it in points. Nothing here checks the cells against side, n or k; that
    is the verifier's job.
    """

    __slots__ = ("side", "n", "k", "rows", "cols", "sizes", "points")

    def __init__(self, side: int, n: int, k: int, cells: dict[Cell, Block]) -> None:
        cells = dict(sorted(cells.items()))
        blocks = cells.values()
        self.side, self.n, self.k = side, n, k
        self.rows = list(map(itemgetter(0), cells))
        self.cols = list(map(itemgetter(1), cells))
        self.sizes = list(map(len, blocks))
        self.points = list(chain.from_iterable(chain.from_iterable(blocks)))
        if len(self.points) != 2 * sum(self.sizes):
            raise ValueError("every edge must be a pair of points")

    @classmethod
    def of_arrays(
        cls, side: int, n: int, k: int, rows: list, cols: list, sizes: list, points: list
    ) -> DesignArray:
        """The array of these lists, kept, not copied, when their cells
        strictly increase in (row, col), else of copies sorted into that
        order. ValueError(message, (row, col)) names the smallest cell
        held twice."""
        arr = cls.__new__(cls)
        arr.side, arr.n, arr.k = side, n, k
        arr.rows, arr.cols, arr.sizes, arr.points = rows, cols, sizes, points
        after = zip(islice(rows, 1, None), islice(cols, 1, None))
        if all(map(lt, zip(rows, cols), after)):
            return arr
        # by column, then stably by row: no (row, col) tuple per cell
        order = sorted(range(len(rows)), key=cols.__getitem__)
        order.sort(key=rows.__getitem__)
        arr.rows = list(map(rows.__getitem__, order))
        arr.cols = list(map(cols.__getitem__, order))
        same_row = map(eq, arr.rows, islice(arr.rows, 1, None))
        same = map(and_, same_row, map(eq, arr.cols, islice(arr.cols, 1, None)))
        twice = next(compress(zip(arr.rows, arr.cols), same), None)
        if twice is not None:
            raise ValueError(f"cell {twice} is held twice", twice)
        ends = arr.ends()
        after = map(ends.__getitem__, map(add, order, repeat(1)))
        spans = map(slice, map(ends.__getitem__, order), after)
        arr.sizes = list(map(sizes.__getitem__, order))
        arr.points = list(chain.from_iterable(map(points.__getitem__, spans)))
        return arr

    def __repr__(self) -> str:
        return f"DesignArray(side={self.side}, n={self.n}, k={self.k}, {len(self.rows)} cells)"

    def __eq__(self, other: object) -> bool:
        """Equal side, n, k and cells."""
        if not isinstance(other, DesignArray):
            return NotImplemented
        fields = attrgetter(*self.__slots__)
        return fields(self) == fields(other)

    def _size(self) -> int:
        """The edges of each cell when every cell holds as many, else 0."""
        sizes = self.sizes
        return sizes[0] if sizes and sizes.count(sizes[0]) == len(sizes) else 0

    def ends(self) -> Sequence[int]:
        """Where each cell's endpoints start in points, then len(points)."""
        size = self._size()
        if size:
            return range(0, 2 * size * len(self.sizes) + 1, 2 * size)
        return list(accumulate(map(mul, self.sizes, repeat(2)), initial=0))

    def blocks(self) -> Iterator[Block]:
        """Each cell's block, as stored, in array order."""
        points = iter(self.points)
        edges = zip(points, points)
        size = self._size()
        if size:
            return zip(*[edges] * size)
        return (tuple(islice(edges, each)) for each in self.sizes)

    @property
    def cells(self) -> dict[Cell, Block]:
        """A new dict of (row, col) to block, in array order; changing it
        leaves the array as it is."""
        return dict(zip(zip(self.rows, self.cols), self.blocks()))

    def find(self, row: int, col: int) -> int | None:
        """The index of cell (row, col), or None: bisection for the row's
        run of cells, then for the column in it."""
        rows, cols = self.rows, self.cols
        start = bisect_left(rows, row)
        stop = bisect_right(rows, row, start)
        i = bisect_left(cols, col, start, stop)
        return i if i < stop and cols[i] == col else None

    def block_at(self, row: int, col: int) -> Block | None:
        """The block at (row, col), or None."""
        i = self.find(row, col)
        if i is None:
            return None
        ends = self.ends()
        points = iter(self.points[ends[i]:ends[i + 1]])
        return tuple(zip(points, points))


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
