"""Construction-agnostic checking of designs, transversals, and holes.

Everything here recomputes from raw cell contents: counting from the
cells shares no logic with the constructors, so agreement between the two
is evidence rather than tautology. Nothing else checks a block, so verify
is the one place a cell is found to be a k-matching over 0..n-1. Work
follows the cells, not what the header claims. Reports carry one entry
per condition with the first counterexample found.

verify reads a DesignArray's flat lists in (row, col) order, so each row
is one run of cells, and one loop over the rows tests each row's set of
points. Once the blocks are found to be k canonical edges on 0..n-1 inside
the array, one loop over the edges marks both byte tables that settle the
columns and the pairs: a line of n bytes per column, a byte per point,
and one per point u, a byte per v above u. Only a failing check is
walked, cell, line or pair, to say where.
When the tables do not fit, for blocks not so shaped or cells too few for
their bytes, _group lists points under their column or edge ends under u.

brute_force_exists settles existence for small parameters by exhaustive
backtracking and is the independent ground truth the constructors are
compared against in the tests.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import eq, itemgetter, lt, mul, ne, sub

from .core import Block, Cell, DesignArray, Hole, Transversal, canonical_block
from .errors import SearchExhausted


@dataclass(frozen=True)
class Check:
    """Outcome of a single verification condition: its first counterexample,
    or None when it holds."""

    name: str
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return self.detail is None


@dataclass(frozen=True)
class VerificationReport:
    """Per-condition outcomes plus derived cell counts."""

    checks: tuple[Check, ...]
    total_blocks: int = 0
    row_blocks: tuple[int, ...] = ()
    col_blocks: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failure(self) -> str | None:
        """First failing check as 'name: detail', or None if all passed."""
        failed = (f"{c.name}: {c.detail}" for c in self.checks if not c.passed)
        return next(failed, None)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "total_blocks": self.total_blocks,
            "row_blocks": list(self.row_blocks),
            "col_blocks": list(self.col_blocks),
        }


def _first_fault(points: list[int], n: int) -> tuple[int, int] | None:
    """(point, count) for the first point of 0..n-1 not covered once, or None.
    In the sorted points of 0..n-1, the first index j not holding j is a gap
    at j, or a repeat of j - 1 when it holds j - 1."""
    held = sorted(p for p in points if 0 <= p < n)
    j = next(compress(count(), map(ne, held, count())), len(held))
    if j < len(held) and held[j] < j:
        return held[j], held.count(held[j])
    return (j, 0) if j < n else None


def _block_fault(r: int, c: int, block: Block, side: int, n: int, k: int) -> str | None:
    endpoints = [p for e in block for p in e]
    if not (0 <= r < side and 0 <= c < side):
        return f"cell ({r}, {c}) outside side-{side} array"
    if len(block) != k:
        return f"cell ({r}, {c}) holds {len(block)} edges, expected {k}"
    if len(set(endpoints)) != 2 * k:
        return f"cell ({r}, {c}) repeats an endpoint"
    if endpoints and not 0 <= min(endpoints) <= max(endpoints) < n:
        return f"cell ({r}, {c}) uses a point outside 0..{n - 1}"
    if any(u >= v for u, v in block):
        return f"cell ({r}, {c}) has a non-canonical edge"
    return None


def _group(keys, values) -> defaultdict:
    """values listed under their keys; list.append returns None, so any()
    runs the map, in C, to its end."""
    groups: defaultdict = defaultdict(list)
    any(map(list.append, map(groups.__getitem__, keys), values))
    return groups


def _pair_detail(n: int, points: list[int]) -> str | None:
    """First placed pair (u, v), two flat points, foreign or repeated, else
    the first gap. The ends v of each u, in order of u, are sorted, so the
    first foreign or repeated one is the smallest. If none is, each u's ends
    are distinct and inside u+1..n-1: they cover K_n when they number
    n(n-1)/2, else the first u with fewer than n-1-u ends holds the gap."""
    ends = _group(islice(points, 0, None, 2), islice(points, 1, None, 2))
    for u in sorted(ends):
        vs = sorted(ends[u])
        if not 0 <= u < vs[0] < n:
            return f"pair {(u, vs[0])} is not a host edge"
        twice = next(compress(vs, map(eq, vs, islice(vs, 1, None))), n)
        if twice < n:
            return f"pair {(u, twice)} covered {vs.count(twice)} times"
        if vs[-1] >= n:
            return f"pair {(u, vs[bisect_left(vs, n)])} is not a host edge"
    if len(points) == n * (n - 1):
        return None
    u = next(u for u in range(n) if len(ends.get(u, ())) < n - 1 - u)
    vs = set(ends.get(u, ()))
    v = next(v for v in range(u + 1, n) if v not in vs)
    return f"host edge {(u, v)} is uncovered"


def _lines(lines, label: str, n: int) -> tuple:
    """The indices of the lines, each a list of points, that are not n points
    making up 0..n-1, and the first of them that does not cover 0..n-1
    once, named. The set of 0..n-1 is built at the first line of n points,
    so the work follows the lines, not n."""
    full, bad, detail = None, [], None
    for i, line in enumerate(lines):
        if len(line) == n:
            full = full or set(range(n))
            if full == set(line):
                continue
        bad.append(i)
        fault = detail is None and _first_fault(line, n)
        if fault:
            detail = f"{label} {i} covers point {fault[0]} {fault[1]} times"
    return bad, detail


def _tables(cols: list[int], points: list[int], side: int, n: int, k: int) -> tuple:
    """The first column that does not cover 0..n-1 once, named, or None, each
    column's count of cells, and the pair detail, for cells inside the array
    that each hold k canonical edges on 0..n-1. One loop over the edges
    marks byte p of column c's line for point p in column c and byte v of
    u's line of highs for edge (u, v). When side * n points mark every
    column byte, each column holds n / 2k cells. As many edges as pair bytes
    marked are distinct, and they make up K_n when they number n(n-1)/2,
    else the first byte above u left unmarked in u's highs is the first
    gap."""
    # a mark indexes a line by a point: it creates no int
    step = 2 * k
    lines = [bytearray(n) for _ in range(side)]
    highs = [bytearray(n) for _ in range(n)]
    by_edge = map(lines.__getitem__, cols)
    if k > 1:
        by_edge = chain.from_iterable(map(repeat, by_edge, repeat(k)))
    for column, u, v in zip(by_edge, islice(points, 0, None, 2), islice(points, 1, None, 2)):
        column[u] = column[v] = highs[u][v] = 1
    col_detail, counts = None, (n // step,) * side
    gap = next(compress(count(), map(bytearray.__contains__, lines, repeat(0))), side)
    if len(points) != side * n or gap < side:
        # the first column with a byte unmarked or other than n / 2k cells
        tally = Counter(cols)
        short = (c for c in range(side) if tally[c] * step != n)
        c = min(gap, next(short, side))
        cells = compress(count(), map(eq, cols, repeat(c)))
        line = [p for i in cells for p in points[i * step:i * step + step]]
        point, times = _first_fault(line, n)
        col_detail = f"column {c} covers point {point} {times} times"
        counts = tuple(map(tally.__getitem__, range(side)))
    edges, marked = len(points) // 2, list(map(bytearray.count, highs, repeat(1)))
    if sum(marked) < edges:  # a repeat: the first u with more edges than marks holds it
        tally = Counter(islice(points, 0, None, 2))
        u = next(u for u in range(n) if tally[u] > marked[u])
        held = [p for i in range(0, len(points), 2) if points[i] == u for p in points[i:i + 2]]
        return col_detail, counts, _pair_detail(n, held)
    if edges == n * (n - 1) // 2:
        return col_detail, counts, None
    gaps = map(bytearray.find, highs, repeat(0), range(1, n + 1))
    u, v = next((u, v) for u, v in enumerate(gaps) if v > u)
    return col_detail, counts, f"host edge {(u, v)} is uncovered"


def verify(arr: DesignArray) -> VerificationReport:
    """Check the three design conditions against the host graph.

    Conditions: every cell inside the array and empty or a k-matching,
    every row and column a resolution class, every host edge covered
    exactly once and nothing else. All checks run even after a failure so
    the report is complete. The array holds its cells in (row, col) order,
    so each row is one run of cells, tested with a set; bulk passes settle
    the blocks. When every block is k canonical edges on 0..n-1 inside the
    array, one loop over the edges marks a column and a pair byte table,
    each of at most twice as many bytes as the cells hold points; otherwise,
    or when they do not fit, _group lists each cell's points under its
    column, with no sort, and each column is tested with a set. Only a check
    that fails is walked cell by cell, line by line or pair by pair, to name
    its first counterexample.
    """
    n, side, k = arr.n, arr.side, arr.k
    # each row covers every point once and each block uses one edge at each
    # point it covers, so the side is the degree of K_n, n - 1
    host_detail = None if side == n - 1 else f"side is {side}, host requires {n - 1}"

    rows, cols, points, ends = arr.rows, arr.cols, arr.points, arr.ends()
    m = len(rows)
    inside = not m or 0 <= rows[0] and rows[-1] < side and 0 <= min(cols) and max(cols) < side
    held = arr
    if not inside:
        kept = {c: b for c, b in arr.cells.items() if 0 <= min(c) and max(c) < side}
        held = DesignArray(side, n, k, kept)
    # with fewer cells than lines, one of lines 0..cells is empty and no
    # later line can hold the first fault, so the work follows the cells
    count = side if m >= side else len(held.rows) + 1
    row_at = list(map(bisect_left, repeat(held.rows), range(count + 1)))
    held_points, held_ends = held.points, held.ends()
    row_lines = (
        held_points[held_ends[a]:held_ends[b]] for a, b in zip(row_at, row_at[1:])
    )
    bad_rows, row_detail = _lines(row_lines, "row", n)
    # a row holding 0..n-1 once holds no block with a point repeated or
    # outside 0..n-1, so only the blocks of the other rows are tested for it
    unchecked = chain(
        *(range(row_at[i], row_at[i + 1]) for i in bad_rows), range(row_at[count], m)
    )
    shaped = (
        inside
        and k >= 1
        and arr.sizes.count(k) == m
        and all(map(lt, islice(points, 0, None, 2), islice(points, 1, None, 2)))
        and all(
            len(set(block)) == 2 * k and 0 <= min(block) and max(block) < n
            for block in (points[ends[q]:ends[q + 1]] for q in unchecked)
        )
    )
    faults = map(_block_fault, rows, cols, arr.blocks(), *map(repeat, (side, n, k)))
    block_detail = None if shaped else next(filter(None, faults), None)

    # the tables take at most twice as many bytes as the cells hold points,
    # so a header claiming a large side or n costs nothing
    if shaped and max(side, n) * n <= 2 * len(points):
        col_detail, col_blocks, pair_detail = _tables(cols, points, side, n, k)
    else:
        point_cols = map(repeat, held.cols, map(mul, held.sizes, repeat(2)))
        col_lines = _group(chain.from_iterable(point_cols), held.points)
        col_detail = _lines(map(col_lines.__getitem__, range(count)), "column", n)[1]
        col_blocks = tuple(map(Counter(held.cols).__getitem__, range(count)))
        pair_detail = _pair_detail(n, points)

    checks = (
        Check("host-shape", host_detail),
        Check("block-shape", block_detail),
        Check("row-resolution", row_detail),
        Check("column-resolution", col_detail),
        Check("pair-coverage", pair_detail),
    )
    # the per-line counts are left out when a line is empty for want of cells
    row_blocks = tuple(map(sub, islice(row_at, 1, None), row_at))
    if m < side:
        row_blocks, col_blocks = (), ()
    return VerificationReport(checks, m, row_blocks, col_blocks)


def _permutation_fault(cells, axis: int, side: int) -> str | None:
    """The smallest row (axis 0) or column (axis 1) chosen more than once or
    outside 0..side-1, else the smallest of 0..side-1 not chosen, named, or
    None; those chosen are then distinct and in range, so the scan is short."""
    label = ("row", "column")[axis]
    counts = Counter(map(itemgetter(axis), cells))
    bad = [i for i, times in counts.items() if times > 1 or not 0 <= i < side]
    if not bad:
        i = next((i for i in range(side) if i not in counts), None)
        return None if i is None else f"{label} {i} is not chosen"
    i = min(bad)
    if 0 <= i < side:
        return f"{label} {i} is chosen {counts[i]} times"
    return f"{label} {i} is outside 0..{side - 1}"


def verify_transversal(arr: DesignArray, transversal: Transversal) -> VerificationReport:
    """Check one-cell-per-row/column and exact point coverage."""
    perm_detail = (
        _permutation_fault(transversal, 0, arr.side)
        or _permutation_fault(transversal, 1, arr.side)
    )
    # a cell chosen t times counts t times
    wanted = Counter((r, c) for r, c in transversal)
    found = [(i, t) for (r, c), t in wanted.items() if (i := arr.find(r, c)) is not None]
    ends, points = arr.ends(), arr.points
    chosen = [points[ends[i]:ends[i + 1]] * times for i, times in found]
    miss = _first_fault(list(chain.from_iterable(chosen)), arr.n)
    cover_detail = miss and f"point {miss[0]} appears {miss[1]} times in the chosen cells"
    return VerificationReport(
        (
            Check("one-per-row-and-column", perm_detail),
            Check("exact-point-coverage", cover_detail),
        ),
        total_blocks=sum(times for _, times in found),
    )


def verify_hole(arr: DesignArray, hole: Hole) -> VerificationReport:
    """Check that every index of rows x cols is an int inside the array (a
    bool is not one, as the file reader has it) and every cell empty."""
    faults = (
        f"hole {label} {i} is not an integer"
        if type(i) is not int
        else f"hole {label} {i} outside side-{arr.side} array"
        for label, indices in (("row", hole.rows), ("column", hole.cols))
        for i in indices
        if type(i) is not int or not 0 <= i < arr.side
    )
    range_detail = next(faults, None)
    empty_detail = None
    if range_detail is None:
        # the hole's indices are sorted, so the first held cell is the smallest
        inner = ((r, c) for r in hole.rows for c in hole.cols if arr.find(r, c) is not None)
        cell = next(inner, None)
        empty_detail = cell and f"cell {cell} inside the hole holds a block"
    return VerificationReport(
        (Check("indices-in-range", range_detail), Check("hole-cells-empty", empty_detail))
    )


class Existence(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class BruteForceResult:
    status: Existence
    design: DesignArray | None = None
    nodes: int = 0


def brute_force_exists(n: int, k: int, budget: int = 10_000_000) -> BruteForceResult:
    """Exhaustively decide whether any design of order n exists.

    Backtracking over a side n-1 array on the complete graph: repeatedly
    extend the emptiest incomplete row at its smallest uncovered point,
    trying every k-matching through that point and every feasible column.
    Working on the emptiest row spreads placements round-robin, which keeps
    the per-point structure coherent and finds witnesses orders of
    magnitude faster than completing one row at a time. The only shortcut
    is symmetry breaking: any design can be relabeled and column-permuted
    so that row 0 reads {0-1, 2-3, ...} | {2k..} | ... in the leftmost
    columns, so the whole first row is pinned to that form (just the first
    block when 2k does not divide n), which preserves the existence
    verdict.

    Returns EXISTS with a witness, NOT_EXISTS after exhausting the tree, or
    EXHAUSTED once budget nodes have been tried.
    """
    if n < 2 or k < 1:
        raise ValueError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    side, full = n - 1, (1 << n) - 1
    grid: dict[Cell, tuple] = {}
    row_pts, col_pts = [0] * side, [0] * side
    pair_used = set()
    nodes = 0

    def flip(row, col, pairs, mask):
        """Place pairs at (row, col), or take them back if they are there."""
        row_pts[row] ^= mask
        col_pts[col] ^= mask
        pair_used.symmetric_difference_update(pairs)
        if grid.pop((row, col), None) is None:
            grid[row, col] = pairs

    if 2 * k <= n:
        for t in range(n // (2 * k) if n % (2 * k) == 0 else 1):
            block = tuple((2 * k * t + 2 * i, 2 * k * t + 2 * i + 1) for i in range(k))
            flip(0, t, block, ((1 << (2 * k)) - 1) << (2 * k * t))

    def matchings(points, size, fits):
        """Matchings of size unused pairs on the sorted points, the first
        pair through points[0] and the pair minima increasing. fits holds
        the point masks of the open columns that can still take the pairs
        chosen before; a pair that leaves none is skipped, save the last,
        which the column loop tests with the whole matching."""
        a = points[0]
        for b in points[1:]:
            if (a, b) in pair_used:
                continue
            if size == 1:
                yield ((a, b),)
                continue
            mask = (1 << a) | (1 << b)
            left = [used for used in fits if not used & mask]
            if not left:
                continue
            rest = [p for p in points[1:] if p != b]
            for i in range(len(rest)):
                for tail in matchings(rest[i:], size - 1, left):
                    yield ((a, b), *tail)

    def solve() -> bool:
        nonlocal nodes
        open_rows = ((pts.bit_count(), i) for i, pts in enumerate(row_pts) if pts != full)
        _, row = min(open_rows, default=(0, None))
        if row is None:
            return True
        missing = [p for p in range(n) if not (row_pts[row] >> p) & 1]
        # each placement covers exactly 2k of the row's missing points, so
        # a row whose deficit is not a multiple of 2k can never complete
        if len(missing) % (2 * k) != 0:
            return False
        # the generator is resumed only once every placement below is taken
        # back, so it sees the pairs in use as they were when it started
        fits = [col_pts[c] for c in range(side) if (row, c) not in grid] if k > 1 else ()
        for pairs in matchings(missing, k, fits):
            mask = sum((1 << u) | (1 << v) for u, v in pairs)
            for col in range(side):
                if (row, col) in grid or col_pts[col] & mask:
                    continue
                nodes += 1
                if nodes > budget:
                    raise SearchExhausted
                flip(row, col, pairs, mask)
                if solve():
                    return True
                flip(row, col, pairs, mask)
        return False

    try:
        found = solve()
    except SearchExhausted:
        return BruteForceResult(Existence.EXHAUSTED, nodes=nodes)
    if not found:
        return BruteForceResult(Existence.NOT_EXISTS, nodes=nodes)
    cells = {cell: canonical_block(pairs) for cell, pairs in grid.items()}
    return BruteForceResult(Existence.EXISTS, DesignArray(side, n, k, cells), nodes)
