"""Construction-agnostic checking of designs, transversals, and holes.

Everything here recomputes from raw cell contents: counting from the
cells plus each host's neighbour ranges (above) shares no logic with the
constructors, so agreement between the two is evidence rather than
tautology. A block is a plain edge tuple and nothing else checks it, so
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

from . import core
from .core import Block, DesignArray, Hole, Transversal, canonical_block


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


def expected_side(host: core.HostGraph) -> int | None:
    """Side a design over this host must have, or None if none can exist.

    Each block uses exactly one edge at every point it covers and each row
    covers every point once, so the side equals the replication number,
    which for a regular host is its degree. Irregular hosts admit no
    design at all.
    """
    if isinstance(host, core.Complete):
        return host.n - 1
    if isinstance(host, core.CompleteMultipartite):
        sizes = set(host.parts)
        if len(sizes) != 1:
            return None
        return (len(host.parts) - 1) * host.parts[0]
    raise TypeError(f"unknown host graph {host!r}")


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


def _pair_detail(host: core.HostGraph, edges: list) -> str | None:
    """First placed pair that is foreign or repeated, else the first gap.
    If each u's placed ends v are distinct and inside above(u), they cover
    the host when they number edge_count(), else the first u short of
    len(above(u)) holds the gap; otherwise the pairs are walked."""
    n = host.vertex_count()
    ends = _group(map(itemgetter(0), edges), map(itemgetter(1), edges))
    spans = {u: host.above(u) for u in ends if 0 <= u < n}
    if len(spans) == len(ends) and all(
        span.start <= min(vs) and max(vs) < span.stop and len(set(vs)) == len(vs)
        for span, vs in zip(spans.values(), ends.values())
    ):
        if len(edges) == host.edge_count():
            return None
        u = next(u for u in range(n) if len(ends.get(u, ())) < len(host.above(u)))
        vs = set(ends.get(u, ()))
        v = next(v for v in host.above(u) if v not in vs)
        return f"host edge {(u, v)} is uncovered"
    placed = Counter(edges)
    foreign = {(u, v) for u, v in placed if not (u < v < n and v in spans.get(u, ()))}
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

    want_side = expected_side(arr.host)
    if arr.host.vertex_count() != n:
        shape = Check(
            "host-shape",
            False,
            f"array says n={n} but host has {arr.host.vertex_count()} points",
        )
    elif want_side is None:
        shape = Check("host-shape", False, "irregular host admits no design")
    elif side != want_side:
        shape = Check(
            "host-shape", False, f"side is {side}, host requires {want_side}"
        )
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

    pair_detail = _pair_detail(arr.host, edges)
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


def verify_transversal(arr: DesignArray, transversal: Transversal) -> VerificationReport:
    """Check one-cell-per-row/column and exact point coverage."""
    checks = []
    cells = transversal.cells

    rows = sorted(r for r, _ in cells)
    cols = sorted(c for _, c in cells)
    perm_detail = None
    if len(rows) != arr.side or rows != list(range(arr.side)):
        perm_detail = f"rows {rows} are not a permutation of 0..{arr.side - 1}"
    elif cols != list(range(arr.side)):
        perm_detail = f"columns {cols} are not a permutation of 0..{arr.side - 1}"
    checks.append(Check("one-per-row-and-column", perm_detail is None, perm_detail))

    chosen = [b for b in (arr.block_at(r, c) for r, c in cells) if b is not None]
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
    """Check that every cell of rows x cols is inside the array and empty."""
    checks = []

    range_detail = None
    for label, indices in (("row", hole.rows), ("column", hole.cols)):
        for i in indices:
            if i < 0 or i >= arr.side:
                range_detail = f"hole {label} {i} outside side-{arr.side} array"
                break
        if range_detail:
            break
    checks.append(Check("indices-in-range", range_detail is None, range_detail))

    empty_detail = None
    if range_detail is None:
        for r in hole.rows:
            for c in hole.cols:
                if (r, c) in arr.cells:
                    empty_detail = f"cell ({r}, {c}) inside the hole holds a block"
                    break
            if empty_detail:
                break
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


class _BudgetExceeded(Exception):
    pass


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
    side = n - 1
    host = core.Complete(n)

    grid: dict[core.Cell, tuple] = {}
    row_pts = [0] * side
    col_pts = [0] * side
    full = (1 << n) - 1
    pair_used = set()
    nodes = 0

    def place(row, col, pairs, mask):
        grid[(row, col)] = pairs
        row_pts[row] |= mask
        col_pts[col] |= mask
        pair_used.update(pairs)

    def unplace(row, col, pairs, mask):
        del grid[(row, col)]
        row_pts[row] &= ~mask
        col_pts[col] &= ~mask
        pair_used.difference_update(pairs)

    if 2 * k <= n:
        pinned = n // (2 * k) if n % (2 * k) == 0 else 1
        for t in range(pinned):
            block = tuple(
                (2 * k * t + 2 * i, 2 * k * t + 2 * i + 1) for i in range(k)
            )
            mask = ((1 << (2 * k)) - 1) << (2 * k * t)
            place(0, t, block, mask)

    def blocks_through(lowest, avail):
        """All k-matchings on avail containing lowest, pair minima increasing."""
        found = []
        chosen = []

        def extend(from_points, last_min):
            if len(chosen) == k:
                found.append(tuple(chosen))
                return
            if len(chosen) == 0:
                first_options = [lowest]
            else:
                first_options = [p for p in from_points if p > last_min]
            for a in first_options:
                rest = [p for p in from_points if p != a]
                for b in rest:
                    if b < a:
                        continue
                    pair = (a, b)
                    if pair in pair_used:
                        continue
                    chosen.append(pair)
                    extend([p for p in rest if p != b], a)
                    chosen.pop()

        extend(sorted(avail), -1)
        return found

    def solve() -> bool:
        nonlocal nodes
        row = None
        best_filled = None
        for i in range(side):
            if row_pts[i] != full:
                filled = row_pts[i].bit_count()
                if best_filled is None or filled < best_filled:
                    row, best_filled = i, filled
        if row is None:
            return True
        missing = [p for p in range(n) if not (row_pts[row] >> p) & 1]
        # each placement covers exactly 2k of the row's missing points, so
        # a row whose deficit is not a multiple of 2k can never complete
        if len(missing) % (2 * k) != 0:
            return False
        lowest = missing[0]
        for pairs in blocks_through(lowest, missing):
            mask = 0
            for u, v in pairs:
                mask |= (1 << u) | (1 << v)
            for col in range(side):
                if (row, col) in grid or col_pts[col] & mask:
                    continue
                nodes += 1
                if nodes > budget:
                    raise _BudgetExceeded
                place(row, col, pairs, mask)
                if solve():
                    return True
                unplace(row, col, pairs, mask)
        return False

    try:
        found = solve()
    except _BudgetExceeded:
        return BruteForceResult(Existence.EXHAUSTED, nodes=nodes)

    if not found:
        return BruteForceResult(Existence.NOT_EXISTS, nodes=nodes)

    cells = {cell: canonical_block(pairs) for cell, pairs in grid.items()}
    arr = DesignArray(side, n, k, host, cells)
    return BruteForceResult(Existence.EXISTS, design=arr, nodes=nodes)
