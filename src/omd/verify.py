"""Construction-agnostic checking of designs, transversals, and holes.

Everything here recomputes from raw cell contents: counting from the
cells shares no logic with the constructors, so agreement between the two
is evidence rather than tautology. A block is a plain edge tuple and nothing else checks it, so
verify is the one place a cell is found to be a k-matching over 0..n-1.
Work follows the cells, not what the header claims. Reports carry one
entry per condition with the first counterexample found.

verify settles whether each condition holds with bulk passes run in C
(map, set, min, max, blocks grouped by line unsorted); only a condition
that fails is walked cell, line or pair in order to say where it fails.

brute_force_exists settles existence for small parameters by exhaustive
backtracking and is the independent ground truth the constructors are
compared against in the tests.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import itemgetter, lt

from .core import Block, Cell, DesignArray, Hole, Transversal, canonical_block
from .errors import SearchExhausted


@dataclass(frozen=True)
class Check:
    """Outcome of a single verification condition."""

    name: str
    passed: bool
    detail: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Per-condition outcomes plus derived cell counts."""

    passed: bool
    checks: tuple[Check, ...]
    total_blocks: int = 0
    row_blocks: tuple[int, ...] = ()
    col_blocks: tuple[int, ...] = ()

    def failure(self) -> str | None:
        """First failing check as 'name: detail', or None if all passed."""
        for check in self.checks:
            if not check.passed:
                detail = check.detail or "failed"
                return f"{check.name}: {detail}"
        return None

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


def _first_miscount(points: list[int], n: int) -> tuple[int, int] | None:
    """(point, count) for the first point of 0..n-1 not covered once, or None."""
    counts = Counter(points)
    if len(points) == n and counts.keys() == set(range(n)):
        return None
    expect = 0
    for p in sorted(p for p in counts if 0 <= p < n):
        if p != expect:
            return expect, 0
        if counts[p] != 1:
            return p, counts[p]
        expect += 1
    return (expect, 0) if expect < n else None


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


def _resolution(lines: dict, side: int, n: int, label: str) -> tuple[str | None, list]:
    """The first line of 0..side-1 that is not a resolution class, named, and
    the blocks of the lines failing the bulk test: n points whose set is
    0..n-1, built only once a line has n points. Those lines and the first
    empty one are counted exactly, in order, as one may still cover 0..n-1
    once; a later empty line cannot come first, so it is not listed."""
    ordered = sorted(lines)
    empty = next((p for p, i in enumerate(ordered) if p != i), len(ordered))
    full, suspects = None, [empty] if empty < side else []
    for i, blocks in lines.items():
        if 2 * sum(map(len, blocks)) == n:
            full = full or set(range(n))
            if full == set(chain.from_iterable(chain.from_iterable(blocks))):
                continue
        suspects.append(i)
    unresolved = [b for i in suspects for b in lines.get(i, ())]
    for i in sorted(suspects):
        points = list(chain.from_iterable(chain.from_iterable(lines.get(i, ()))))
        miss = _first_miscount(points, n)
        if miss is not None:
            return f"{label} {i} covers point {miss[0]} {miss[1]} times", unresolved
    return None, unresolved


def _pair_detail(n: int, edges: list) -> str | None:
    """First placed pair that is foreign or repeated, else the first gap.
    If each u's placed ends v are distinct and inside u+1..n-1, they cover
    K_n when they number n(n-1)/2, else the first u with fewer than
    n-1-u ends holds the gap; otherwise the pairs are walked."""
    ends = _group(map(itemgetter(0), edges), map(itemgetter(1), edges))
    if all(
        0 <= u < min(vs) and max(vs) < n and len(set(vs)) == len(vs)
        for u, vs in ends.items()
    ):
        if len(edges) == n * (n - 1) // 2:
            return None
        u = next(u for u in range(n) if len(ends.get(u, ())) < n - 1 - u)
        vs = set(ends.get(u, ()))
        v = next(v for v in range(u + 1, n) if v not in vs)
        return f"host edge {(u, v)} is uncovered"
    placed = Counter(edges)
    foreign = {(u, v) for u, v in placed if not 0 <= u < v < n}
    repeated = [e for e, times in placed.items() if times > 1]
    edge = min([*foreign, *repeated])
    if edge in foreign:
        return f"pair {edge} is not a host edge"
    return f"pair {edge} covered {placed[edge]} times"


def _matchings_hold(blocks: list, n: int, k: int) -> bool:
    """Whether every block has 2k distinct points, all in 0..n-1."""
    points = list(chain.from_iterable(chain.from_iterable(blocks)))
    sizes = set(map(len, map(set, map(chain.from_iterable, blocks))))
    return sizes <= {2 * k} and (not points or 0 <= min(points) and max(points) < n)


def verify(arr: DesignArray) -> VerificationReport:
    """Check the three design conditions against the host graph.

    Conditions: every cell inside the array and empty or a k-matching,
    every row and column a resolution class, every host edge covered
    exactly once and nothing else. All checks run even after a failure so
    the report is complete. Bulk passes over all cells settle whether a
    condition holds; only one that fails is scanned cell by cell, line by
    line or pair by pair, to name its first counterexample.
    """
    n, side, k = arr.n, arr.side, arr.k
    checks = []

    # each row covers every point once and each block uses one edge at each
    # point it covers, so the side is the degree of K_n, n - 1
    if side != n - 1:
        shape = Check("host-shape", False, f"side is {side}, host requires {n - 1}")
    else:
        shape = Check("host-shape", True)
    checks.append(shape)

    cells = arr.cells
    rows, cols = list(map(itemgetter(0), cells)), list(map(itemgetter(1), cells))
    inside = not cells or 0 <= min(rows + cols) and max(rows + cols) < side
    if not inside:
        cells = {rc: b for rc, b in cells.items() if 0 <= min(rc) and max(rc) < side}
        rows, cols = list(map(itemgetter(0), cells)), list(map(itemgetter(1), cells))
    by_row, by_col = _group(rows, cells.values()), _group(cols, cells.values())
    row_detail, unresolved = _resolution(by_row, side, n, "row")
    col_detail, _ = _resolution(by_col, side, n, "column")

    # a row passing the bulk test holds 0..n-1 once, so its blocks repeat no
    # point and leave no point outside: only the other rows' are looked at
    edges = list(chain.from_iterable(arr.cells.values()))
    block_detail = None
    if not (
        inside
        and set(map(len, cells.values())) <= {k}
        and all(starmap(lt, edges))
        and _matchings_hold(unresolved, n, k)
    ):
        faults = (_block_fault(r, c, b, side, n, k) for (r, c), b in arr.occupied())
        block_detail = next(filter(None, faults), None)
    checks.append(Check("block-shape", block_detail is None, block_detail))
    checks.append(Check("row-resolution", row_detail is None, row_detail))
    checks.append(Check("column-resolution", col_detail is None, col_detail))

    pair_detail = _pair_detail(n, edges)
    checks.append(Check("pair-coverage", pair_detail is None, pair_detail))

    # fewer cells than lines leaves a line empty, which fails resolution; the
    # per-line counts are then left out, so no work follows the claimed side
    if len(arr.cells) < side:
        row_blocks = col_blocks = ()
    else:
        row_blocks = tuple(map(len, map(by_row.get, range(side), repeat(()))))
        col_blocks = tuple(map(len, map(by_col.get, range(side), repeat(()))))
    return VerificationReport(
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        total_blocks=len(arr.cells),
        row_blocks=row_blocks,
        col_blocks=col_blocks,
    )


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
    checks = []

    perm_detail = (
        _permutation_fault(transversal, 0, arr.side)
        or _permutation_fault(transversal, 1, arr.side)
    )
    checks.append(Check("one-per-row-and-column", perm_detail is None, perm_detail))

    chosen = [b for b in (arr.block_at(r, c) for r, c in transversal) if b is not None]
    miss = _first_miscount([p for b in chosen for e in b for p in e], arr.n)
    cover_detail = None
    if miss is not None:
        cover_detail = f"point {miss[0]} appears {miss[1]} times in the chosen cells"
    checks.append(Check("exact-point-coverage", cover_detail is None, cover_detail))

    return VerificationReport(
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        total_blocks=len(chosen),
    )


def verify_hole(arr: DesignArray, hole: Hole) -> VerificationReport:
    """Check that every index of rows x cols is an int inside the array (a
    bool is not one, as the file reader has it) and every cell empty."""
    checks = []

    faults = (
        f"hole {label} {i} is not an integer"
        if type(i) is not int
        else f"hole {label} {i} outside side-{arr.side} array"
        for label, indices in (("row", hole.rows), ("column", hole.cols))
        for i in indices
        if type(i) is not int or not 0 <= i < arr.side
    )
    range_detail = next(faults, None)
    checks.append(Check("indices-in-range", range_detail is None, range_detail))

    empty_detail = None
    if range_detail is None:
        held = ((r, c) for r in hole.rows for c in hole.cols if (r, c) in arr.cells)
        cell = next(held, None)
        empty_detail = cell and f"cell {cell} inside the hole holds a block"
    checks.append(Check("hole-cells-empty", empty_detail is None, empty_detail))

    return VerificationReport(
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
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

    def matchings(points, size):
        """Matchings of size unused pairs on the sorted points, the first
        pair through points[0] and the pair minima increasing."""
        a = points[0]
        for b in points[1:]:
            if (a, b) in pair_used:
                continue
            if size == 1:
                yield ((a, b),)
                continue
            rest = [p for p in points[1:] if p != b]
            for i in range(len(rest)):
                for tail in matchings(rest[i:], size - 1):
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
        for pairs in matchings(missing, k):
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
