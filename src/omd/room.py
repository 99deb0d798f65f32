"""Room squares: single-edge designs of even order n on a side n-1 array.

The square is built from a strong starter on Z_r, r = n-1:
pairs {x_i, y_i} partitioning Z_r \\ {0} whose differences cover every
nonzero residue and whose sums are distinct and nonzero. With the adder
a_i = (x_i + y_i) mod r, placing the translate {x_i + j, y_i + j} at cell
(j, (j + a_i) mod r) and {inf, j} at (j, j) yields a valid square: row j
holds the translates by j, and column c holds the pairs
(starter_i - a_i) + c = {-y_i, -x_i} + c, which again partition away
from c. The point at infinity is flattened to r, everything else is its
residue.

Strong starters exist for every odd r >= 7 except r = 9; a seeded hill
climb finds them within a node budget. Side 9 comes from _NINE, a starter
with another adder. A transversal is certified before returning.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import random
from dataclasses import dataclass
from functools import lru_cache

from .core import Complete, DesignArray, Transversal, canonical_block
from .errors import InvalidStarter, NonExistent, SearchExhausted
from .verify import verify_transversal

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class StarterAdder:
    """Starter pairs on Z_r \\ {0} with their translation offsets."""

    r: int
    pairs: tuple[tuple[int, int], ...]
    adder: tuple[int, ...]


def validate_starter_adder(sa: StarterAdder) -> None:
    """Raise InvalidStarter unless sa satisfies all defining conditions."""
    r = sa.r
    if r < 3 or r % 2 == 0:
        raise InvalidStarter(f"modulus must be odd and at least 3, got {r}")
    half = (r - 1) // 2
    if len(sa.pairs) != half or len(sa.adder) != half:
        raise InvalidStarter(f"need {half} pairs and adders for modulus {r}")

    elements = [p for pair in sa.pairs for p in pair]
    if sorted(elements) != list(range(1, r)):
        raise InvalidStarter("pairs do not partition 1..r-1")

    diffs = set()
    for x, y in sa.pairs:
        diffs.add((x - y) % r)
        diffs.add((y - x) % r)
    if len(diffs) != r - 1:
        raise InvalidStarter("pair differences do not cover all nonzero residues")

    if len(set(sa.adder)) != half or any(a % r == 0 for a in sa.adder):
        raise InvalidStarter("adder entries must be distinct and nonzero")

    translated = [((x - a) % r, (y - a) % r) for (x, y), a in zip(sa.pairs, sa.adder)]
    shifted = [p for pair in translated for p in pair]
    if sorted(shifted) != list(range(1, r)):
        raise InvalidStarter("translated pairs do not partition 1..r-1")


# no strong starter on Z_9, but twelve starter-adders (by enumeration)
_NINE = StarterAdder(9, ((1, 2), (3, 7), (4, 6), (5, 8)), (5, 4, 2, 7))


def _strong_starters(r: int, budget: int, seed: int = 0, tally: dict | None = None):
    """Yield strong starter-adders on Z_r, found by hill climbing.

    This is the method of Dinitz and Stinson ("A fast algorithm for finding
    strong starters", 1981). The state is a partial strong starter. Each
    step picks a random uncovered x and a random y = x +- d, that is a
    random difference d and sign, and rejects y = 0 or x + y = 0; three
    steps in four draw d from the unused differences only, which takes
    about a tenth of the steps. A new pair can clash with placed pairs on
    y, on d or on the sum: with two or more distinct clashing pairs the
    step is rejected, else the one clashing pair is dropped and the new
    pair placed. Each step is one node of budget. A slice of 2 r^2 steps
    that completes no starter is abandoned and the climb restarts empty,
    as after each starter it yields. Equal seeds give equal streams, which
    end once budget steps are spent, and at once for r = 9 (Z_9 has no
    strong starter). tally, if given, receives the steps spent and the
    restarts, slices abandoned without a starter.
    """
    tally = {} if tally is None else tally
    tally.update(steps=0, restarts=0)
    if r == 9:
        return
    half = (r - 1) // 2
    rand = random.Random(seed).random
    while tally["steps"] < budget:
        cap = min(2 * r * r, budget - tally["steps"])
        partner = [0] * r
        # a placed pair is named by its smaller element
        by_diff, by_sum = [0] * (half + 1), [0] * r
        free, unused = list(range(1, r)), list(range(1, half + 1))
        for used in range(1, cap + 1):
            x = free[int(rand() * len(free))]
            if rand() < 0.75:
                d = unused[int(rand() * len(unused))]
                y = (x + d) % r if rand() < 0.5 else (x - d) % r
            else:
                y = (x + 1 + int(rand() * (r - 1))) % r
            s = (x + y) % r
            if y == 0 or s == 0:
                continue
            d = min((y - x) % r, (x - y) % r)
            # names of the pairs the new one clashes with; 0 names none
            clashes = {by_diff[d], by_sum[s], partner[y] and min(y, partner[y])}
            clashes.discard(0)
            if len(clashes) > 1:
                continue
            if clashes:
                a = clashes.pop()
                b = partner[a]
                partner[a] = partner[b] = 0
                e = min(b - a, r - b + a)
                by_diff[e] = by_sum[(a + b) % r] = 0
                free += (a, b)
                unused.append(e)
            free.remove(x)
            free.remove(y)
            unused.remove(d)
            partner[x], partner[y] = y, x
            by_diff[d] = by_sum[s] = min(x, y)
            if not free:
                break
        tally["steps"] += used
        if free:
            tally["restarts"] += 1
            continue
        pairs = tuple((a, partner[a]) for a in range(1, r) if a < partner[a])
        yield StarterAdder(r, pairs, tuple((x + y) % r for x, y in pairs))


def strong_starter_search(
    r: int, budget: int = DEFAULT_BUDGET, *, seed: int = 0
) -> StarterAdder | None:
    """First strong starter of the hill climb on Z_r at seed, or None.

    None means the budget ran out, except at r = 9, which has no strong
    starter at all. Results are re-validated before return.
    """
    if r < 7 or r % 2 == 0:
        raise ValueError(f"strong starters need odd r >= 7, got {r}")
    for sa in _strong_starters(r, budget, seed):
        validate_starter_adder(sa)
        return sa
    return None


def _starter_array(sa: StarterAdder) -> DesignArray:
    """The starter square, its cells inserted in (row, col) order.

    Row j holds the diagonal at column j and each pair at column j + a
    mod r. With the offsets sorted, those at least r - j wrap around and
    come first, so occupied() sorts one presorted run in linear time.
    """
    r = sa.r
    starts = sorted(zip(sa.adder, sa.pairs))
    offsets = [a for a, _ in starts]
    cells = {}
    for j in range(r):
        split = bisect.bisect_left(offsets, r - j)
        # canonical one-edge blocks written inline: a canonical_block call
        # per cell made this function about 1.7 times slower at side 999
        for a, (x, y) in starts[split:]:
            u, v = (x + j) % r, (y + j) % r
            cells[(j, j + a - r)] = ((u, v),) if u < v else ((v, u),)
        cells[(j, j)] = ((j, r),)
        for a, (x, y) in starts[:split]:
            u, v = (x + j) % r, (y + j) % r
            cells[(j, j + a)] = ((u, v),) if u < v else ((v, u),)
    return DesignArray(r, r + 1, 1, Complete(r + 1), cells)


def room_from_starter(
    sa: StarterAdder, *, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> tuple[DesignArray, Transversal]:
    """Build the side-r square from a validated starter-adder."""
    validate_starter_adder(sa)
    arr = _starter_array(sa)
    transversal = find_transversal(arr, seed=seed, budget=budget)
    if transversal is None:
        raise SearchExhausted(
            f"no transversal found for the side-{sa.r} starter square within budget"
        )
    return arr, transversal


class _BudgetExceeded(Exception):
    pass


def find_transversal(
    arr: DesignArray,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    tally: dict | None = None,
) -> Transversal | None:
    """Search for a certified transversal of a design array.

    Depth-first over the uncovered points, trying each live cell through
    the branch point in array order; a live cell shares no row, column or
    point with the cells chosen so far. Each point counts its live cells.
    Choosing a cell kills the live cells sharing its row, column or a
    point and decrements their points' counts; backtracking restores them.
    The branch point is the first uncovered point whose count is at most
    1 (0: the node is dead), else the first of least count. A node is
    also dead when its uncovered points need more blocks than rows remain.
    Once all points are covered, the leftover rows and columns must pair
    up through empty cells, a bipartite matching. Both searches keep
    explicit stacks, so depth is not bound by recursion.

    The first attempt runs in deterministic order and, if it exhausts the
    tree within budget, the absence verdict is final. Later attempts
    reshuffle candidate order from seed until budget is spent. Every
    returned transversal is re-checked by the verifier. tally, if given,
    receives the nodes spent and the slices, the attempts started.
    """
    tally = {} if tally is None else tally
    tally.update(nodes=0, slices=0)
    n, side = arr.n, arr.side
    if side == 0:
        return None
    per_block = 2 * arr.k
    occupied = arr.occupied()
    cell_row = [r for (r, _), _ in occupied]
    cell_col = [c for (_, c), _ in occupied]
    blocks = [block for _, block in occupied]
    # a block of one edge with two distinct ends covers just those ends
    edges = [block[0] for block in blocks] if set(map(len, blocks)) == {1} else []
    if edges and not any(map(operator.eq, *zip(*edges))):
        cell_points = edges
    else:
        cell_points = [tuple(set().union(*block)) for block in blocks]
    by_point: list[list[int]] = [[] for _ in range(n)]
    by_row: list[list[int]] = [[] for _ in range(side)]
    by_col: list[list[int]] = [[] for _ in range(side)]
    for idx, points in enumerate(cell_points):
        by_row[cell_row[idx]].append(idx)
        by_col[cell_col[idx]].append(idx)
        for p in points:
            by_point[p].append(idx)

    def match_empty(chosen: list[int]) -> list[tuple[int, int]] | None:
        used_rows = {cell_row[idx] for idx in chosen}
        used_cols = {cell_col[idx] for idx in chosen}
        free_cols = [c for c in range(side) if c not in used_cols]
        end = len(free_cols)
        match_of_col: dict[int, int] = {}
        for i in range(side):
            if i in used_rows:
                continue
            # augmenting path from row i, one [row, position after the
            # column it tries] frame per row on it; skip[j] leads past the
            # columns visited so far, so no row rescans them
            skip = list(range(end + 1))
            frames = [[i, 0]]
            while frames:
                frame = frames[-1]
                row, pos = frame
                while True:
                    while skip[pos] != pos:
                        skip[pos] = pos = skip[skip[pos]]
                    if pos == end or (row, free_cols[pos]) not in arr.cells:
                        break
                    pos += 1
                if pos == end:
                    frames.pop()
                    continue
                frame[1] = skip[pos] = pos + 1
                if free_cols[pos] not in match_of_col:
                    for r, after in frames:
                        match_of_col[free_cols[after - 1]] = r
                    break
                frames.append([match_of_col[free_cols[pos]], 0])
            else:
                return None
        return sorted((i, c) for c, i in match_of_col.items())

    def attempt(order_rng, node_budget: int) -> tuple[list | None, int]:
        """(a transversal's cells, or None if the tree is exhausted; nodes)."""
        alive = [True] * len(occupied)
        count = [len(cells) for cells in by_point]
        covered = [False] * n
        uncovered = n
        chosen: list[int] = []
        killed: list[int] = []
        stack: list[list] = []  # per open node: [candidates, next, kill mark]
        nodes = 0
        while True:
            if not uncovered:
                completion = match_empty(chosen)
                if completion is not None:
                    picks = [(cell_row[idx], cell_col[idx]) for idx in chosen]
                    return picks + completion, nodes
            elif uncovered // per_block <= side - len(chosen):
                best, low = -1, len(occupied) + 1
                for p in range(n):
                    if not covered[p] and count[p] < low:
                        best, low = p, count[p]
                        if low <= 1:
                            break
                if low:
                    cands = [idx for idx in by_point[best] if alive[idx]]
                    if order_rng is not None:
                        order_rng.shuffle(cands)
                    stack.append([cands, 0, 0])
            while stack:
                frame = stack[-1]
                cands, pos, mark = frame
                if pos:
                    # undo this node's last choice
                    for idx in killed[mark:]:
                        alive[idx] = True
                        for p in cell_points[idx]:
                            count[p] += 1
                    del killed[mark:]
                    for p in cell_points[chosen.pop()]:
                        covered[p] = False
                        uncovered += 1
                if pos == len(cands):
                    stack.pop()
                    continue
                nodes += 1
                if nodes > node_budget:
                    raise _BudgetExceeded
                pick = cands[pos]
                frame[1], frame[2] = pos + 1, len(killed)
                for line in (
                    by_row[cell_row[pick]],
                    by_col[cell_col[pick]],
                    *(by_point[p] for p in cell_points[pick]),
                ):
                    for idx in line:
                        if alive[idx]:
                            alive[idx] = False
                            killed.append(idx)
                            for p in cell_points[idx]:
                                count[p] -= 1
                for p in cell_points[pick]:
                    covered[p] = True
                    uncovered -= 1
                chosen.append(pick)
                break
            else:
                return None, nodes

    remaining = budget
    rng = random.Random(seed)
    order_rng = None
    while remaining > 0:
        slice_budget = min(remaining, max(4000, budget // 64))
        tally["slices"] += 1
        try:
            cells, used = attempt(order_rng, slice_budget)
        except _BudgetExceeded:
            tally["nodes"] += slice_budget
            # the slice is charged one node past its budget
            remaining -= slice_budget + 1
            order_rng = rng
            continue
        tally["nodes"] += used
        if cells is None:
            return None
        transversal = Transversal(tuple(sorted(cells)))
        report = verify_transversal(arr, transversal)
        if not report.passed:
            raise AssertionError(
                f"internal: transversal search produced an invalid result: "
                f"{report.failure()}"
            )
        return transversal
    return None


def build_room(
    n: int, *, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> tuple[DesignArray, Transversal]:
    """Single-edge design of even order n with a certified transversal.

    Orders 4 and 6 are the two genuine exclusions. Order 2 is the one-cell
    array. Order 10 comes from _NINE, since Z_9 has no strong starter.
    Every other order takes the first of up to four starters from the hill
    climb at seed whose square has a transversal; SearchExhausted says what
    the starter phase spent when none does.
    """
    if n < 2 or n % 2:
        raise ValueError(f"single-edge designs need even n >= 2, got {n}")
    if n in (4, 6):
        raise NonExistent(
            f"no design of order {n} with single-edge blocks: "
            "orders 4 and 6 are the two exclusions"
        )
    return _cached_room(n, seed, budget)


@lru_cache(maxsize=64)
def _cached_room(n: int, seed: int, budget: int) -> tuple[DesignArray, Transversal]:
    if n == 2:
        arr = DesignArray(1, 2, 1, Complete(2), {(0, 0): canonical_block([(0, 1)])})
        return arr, Transversal(((0, 0),))

    r = n - 1
    tally = {"steps": 0, "restarts": 0}
    starters = [_NINE] if r == 9 else _strong_starters(r, budget, seed, tally)
    transversal_failures = nodes = 0
    for sa in itertools.islice(starters, 4):
        arr = _starter_array(sa)
        spent: dict = {}
        transversal = find_transversal(arr, seed=seed, budget=budget, tally=spent)
        if transversal is not None:
            return arr, transversal
        transversal_failures += 1
        nodes += spent["nodes"]
    within = f"within budget ({nodes} search nodes)"
    if r == 9:
        raise SearchExhausted(
            f"order {n}: the fixed _NINE square had no transversal {within}"
        )
    squares = "square" if transversal_failures == 1 else "squares"
    raise SearchExhausted(
        f"order {n}: the strong starter phase gave up after {tally['steps']} "
        f"steps and {tally['restarts']} restarts; {transversal_failures} "
        f"starter {squares} had no transversal {within}"
    )
