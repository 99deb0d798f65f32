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

The anti-diagonal {(j, -j mod r)}, one cell per row and column, is a
transversal of such a square. Its filled cells are (0, 0) = {0, inf} and,
for each pair i, the cell at row j = -a_i / 2 (2 is invertible mod odd r,
so these rows differ and are nonzero), where the translate is
{x_i - a_i / 2, y_i - a_i / 2} = {(x_i - y_i) / 2, (y_i - x_i) / 2}. The
differences +-(x_i - y_i) cover Z_r \\ {0} once, so their halves do too.

Strong starters exist for every odd r >= 7 except r = 9; a seeded hill
climb finds them within a step budget. Side 9 comes from _NINE, a
starter with another adder, none of whose anti-diagonals is a
transversal; its transversal is the constant _NINE_TRANSVERSAL.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat

from .core import DesignArray, Transversal, canonical_block
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

    # _starter_array adds each entry to a column as given, not mod r
    if len(set(sa.adder)) != half or not all(0 < a < r for a in sa.adder):
        raise InvalidStarter(f"adder entries must be distinct and in 1..{r - 1}")

    translated = [((x - a) % r, (y - a) % r) for (x, y), a in zip(sa.pairs, sa.adder)]
    shifted = [p for pair in translated for p in pair]
    if sorted(shifted) != list(range(1, r)):
        raise InvalidStarter("translated pairs do not partition 1..r-1")


# no strong starter on Z_9, but twelve starter-adders (by enumeration)
_NINE = StarterAdder(9, ((1, 2), (3, 7), (4, 6), (5, 8)), (5, 4, 2, 7))
# a transversal of _NINE's square, fixed so that order 10 keeps its output
_NINE_TRANSVERSAL = ((0, 0), (1, 7), (2, 4), (3, 2), (4, 8), (5, 3), (6, 5), (7, 6), (8, 1))


def _strong_starter(r: int, budget: int, seed: int, tally: dict) -> StarterAdder | None:
    """The first strong starter-adder on Z_r found by hill climbing, or None.

    This is the method of Dinitz and Stinson ("A fast algorithm for finding
    strong starters", 1981). The state is a partial strong starter. Each
    step picks a random uncovered x and a random y = x +- d, that is a
    random difference d and sign, and rejects y = 0 or x + y = 0; three
    steps in four draw d from the unused differences only, which takes
    about a tenth of the steps. A new pair can clash with placed pairs on
    y, on d or on the sum: with two or more distinct clashing pairs the
    step is rejected, else the one clashing pair is dropped and the new
    pair placed. Each step is one node of budget. A slice of 2 r^2 steps
    that completes no starter is abandoned and the climb restarts empty.
    Equal seeds give equal results. None means budget steps were spent,
    or r = 9 (Z_9 has no strong starter). tally receives the steps spent
    and the restarts, slices abandoned without a starter.
    """
    tally.update(steps=0, restarts=0)
    if r == 9:
        return None
    half = (r - 1) // 2
    rand = random.Random(seed).random
    while tally["steps"] < budget:
        cap = min(2 * r * r, budget - tally["steps"])
        partner = [0] * r
        # a placed pair is named by its smaller element
        by_diff, by_sum = [0] * (half + 1), [0] * r
        # the draws index into free and unused, so their order is part of
        # the stream: appends and removes must keep it
        free, unused = list(range(1, r)), list(range(1, half + 1))
        for used in range(1, cap + 1):
            x = free[int(rand() * len(free))]
            if rand() < 0.75:
                d = unused[int(rand() * len(unused))]
                if rand() < 0.5:
                    y = x + d
                    if y >= r:
                        y -= r
                else:
                    y = x - d
                    if y < 0:
                        y += r
            else:
                y = x + 1 + int(rand() * (r - 1))
                if y >= r:
                    y -= r
                # the difference folded into 1..half, as a drawn d already is
                d = y - x if y > x else x - y
                if d > half:
                    d = r - d
            s = x + y
            if s >= r:
                s -= r
            if y == 0 or s == 0:
                continue
            # the placed pairs the new one clashes with on d, on s and on y,
            # by name (0 names none): a is the first, any other must equal it
            c, z = by_sum[s], partner[y]
            if z > y:
                z = y
            a = by_diff[d] or c or z
            if c and c != a or z and z != a:
                continue
            # edits that cancel are skipped: an end of the dropped pair or its
            # difference freed and taken again at once
            e = 0
            if a:
                b = partner[a]
                partner[a] = partner[b] = 0
                e = b - a
                if e > half:
                    e = r - e
                by_diff[e] = by_sum[(a + b) % r] = 0
                if z:
                    free.append(a + b - y)
                else:
                    free += (a, b)
                if e != d:
                    unused.append(e)
            free.remove(x)
            if not z:
                free.remove(y)
            if e != d:
                unused.remove(d)
            partner[x], partner[y] = y, x
            by_diff[d] = by_sum[s] = x if x < y else y
            if not free:
                break
        tally["steps"] += used
        if not free:
            pairs = tuple((a, partner[a]) for a in range(1, r) if a < partner[a])
            return StarterAdder(r, pairs, tuple((x + y) % r for x, y in pairs))
        tally["restarts"] += 1
    return None


def strong_starter_search(
    r: int, budget: int = DEFAULT_BUDGET, *, seed: int = 0
) -> StarterAdder | None:
    """First strong starter of the hill climb on Z_r at seed, or None.

    None means the budget ran out, except at r = 9, which has no strong
    starter at all. Results are re-validated before return.
    """
    if r < 7 or r % 2 == 0:
        raise ValueError(f"strong starters need odd r >= 7, got {r}")
    sa = _strong_starter(r, budget, seed, {})
    if sa is not None:
        validate_starter_adder(sa)
    return sa


def _starter_array(sa: StarterAdder) -> DesignArray:
    """The starter square, its cells written in (row, col) order.

    Row j holds the diagonal at column j and each pair at column j + a
    mod r. Each is laid down the rows from runs: its column a, a+1, ...
    wraps to 0 at row r - a, and a pair x < y has its low point x + j
    until y + j wraps, then y + j - r until x + j wraps, then x + j - r.
    With the offsets sorted, those at least r - j wrap around and come
    first in row j, so each row is rotated there, the diagonal last.
    """
    r = sa.r
    starts = sorted((a, min(pair), max(pair)) for a, pair in zip(sa.adder, sa.pairs))
    offsets = [a for a, _, _ in starts]
    splits = [bisect.bisect_left(offsets, r - j) for j in range(r)]

    def laid(runs: list) -> list[int]:
        rotated = (row[s:] + row[:s] for row, s in zip(zip(*runs), splits))
        return list(chain.from_iterable(rotated))

    cols = laid([*([*range(a, r), *range(a)] for a, _, _ in starts), range(r)])
    low = [[*range(x, x + r - y), *range(y - x), *range(x)] for _, x, y in starts]
    high = [[*range(y, r), *range(x + r - y, r), *range(y - x, y)] for _, x, y in starts]
    points = [0] * (2 * len(cols))
    points[::2], points[1::2] = laid([*low, range(r)]), laid([*high, [r] * r])
    rows = list(chain.from_iterable(map(repeat, range(r), repeat(len(starts) + 1))))
    return DesignArray.of_arrays(r, r + 1, 1, rows, cols, [1] * len(cols), points)


def _transversal(sa: StarterAdder) -> Transversal:
    """The anti-diagonal for the sum adder, the constant for _NINE."""
    if sa == _NINE:
        return _NINE_TRANSVERSAL
    if sa.adder != tuple((x + y) % sa.r for x, y in sa.pairs):
        raise InvalidStarter(
            "the adder is not the sum adder, so no transversal rule applies"
        )
    return tuple((j, -j % sa.r) for j in range(sa.r))


def room_from_starter(sa: StarterAdder) -> tuple[DesignArray, Transversal]:
    """The side-r square of a validated starter-adder with its certified
    transversal; the adder must be the sum adder, or sa must be _NINE."""
    validate_starter_adder(sa)
    arr, transversal = _starter_array(sa), _transversal(sa)
    report = verify_transversal(arr, transversal)
    if not report.passed:
        raise AssertionError(
            f"internal: the side-{sa.r} transversal rule failed: {report.failure()}"
        )
    return arr, transversal


def build_room(
    n: int, *, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> tuple[DesignArray, Transversal]:
    """Single-edge design of even order n with its transversal.

    Orders 4 and 6 are the two genuine exclusions. Order 2 is the one-cell
    array. Order 10 comes from _NINE, since Z_9 has no strong starter.
    Every other order takes the first starter of the hill climb at seed
    and its square's anti-diagonal; SearchExhausted says what the starter
    phase spent when it finds none. Only the starter is memoised, for the
    life of the process and without a bound, since a starter is about n/2
    ints: every call builds its own array, which the caller owns, and a
    sweep climbs each order once. construct certifies the transversal.
    """
    if n < 2 or n % 2:
        raise ValueError(f"single-edge designs need even n >= 2, got {n}")
    if n in (4, 6):
        raise NonExistent(
            f"no design of order {n} with single-edge blocks: "
            "orders 4 and 6 are the two exclusions"
        )
    if n == 2:
        return DesignArray(1, 2, 1, {(0, 0): canonical_block([(0, 1)])}), ((0, 0),)
    sa = _cached_room(n, seed, budget)
    return _starter_array(sa), _transversal(sa)


# Unbounded: one sweep asks for an order again after passing many others
# (the k = 2 products reuse orders m <= n_max / 2), and a bounded memo
# evicts them first. bench/common.py clears it by name to keep its timed
# ops cold.
@cache
def _cached_room(n: int, seed: int, budget: int) -> StarterAdder:
    """The starter behind build_room(n): _NINE for n = 10, else the climb's
    first at seed."""
    if n == 10:
        return _NINE
    tally: dict = {}
    sa = _strong_starter(n - 1, budget, seed, tally)
    if sa is None:
        raise SearchExhausted(
            f"order {n}: the strong starter phase gave up after {tally['steps']} "
            f"steps and {tally['restarts']} restarts"
        )
    return sa
