"""Single-edge designs: starters, starter squares, transversals.

The r = 9 tests carry their own oracle: an independent enumeration of all
105 pairings of Z_9 \\ {0} establishes that no strong starter exists, so
the search's empty answer is checked against ground truth rather than
against itself.
"""

import hashlib
import time
from pathlib import Path

import pytest

from omd.compose import construct
from omd.core import canonical_block
from omd.errors import InvalidStarter, NonExistent, SearchExhausted
from omd.room import (
    _NINE,
    _NINE_TRANSVERSAL,
    DEFAULT_BUDGET,
    StarterAdder,
    _cached_room,
    _starter_array,
    _strong_starter,
    build_room,
    room_from_starter,
    strong_starter_search,
    validate_starter_adder,
)
from omd.verify import verify, verify_transversal

SEVEN = StarterAdder(7, ((1, 3), (2, 6), (4, 5)), (4, 1, 2))


def test_known_starter_on_seven_is_valid():
    validate_starter_adder(SEVEN)


def test_starter_rejects_bad_modulus():
    with pytest.raises(InvalidStarter):
        validate_starter_adder(StarterAdder(8, ((1, 3), (2, 6), (4, 5)), (4, 1, 2)))


def test_starter_rejects_non_partition():
    with pytest.raises(InvalidStarter):
        validate_starter_adder(StarterAdder(7, ((1, 3), (2, 6), (4, 6)), (4, 1, 3)))


def test_starter_rejects_repeated_difference():
    # pairs (1,2) and (4,5) both have difference 1
    with pytest.raises(InvalidStarter):
        validate_starter_adder(StarterAdder(7, ((1, 2), (3, 6), (4, 5)), (3, 2, 2)))


def test_starter_rejects_bad_adder():
    with pytest.raises(InvalidStarter):
        validate_starter_adder(StarterAdder(7, ((1, 3), (2, 6), (4, 5)), (4, 4, 2)))
    with pytest.raises(InvalidStarter):
        validate_starter_adder(StarterAdder(7, ((1, 3), (2, 6), (4, 5)), (4, 0, 2)))


@pytest.mark.parametrize("adder", [(4, 8, 2), (-3, 1, 2)], ids=["8", "-3"])
def test_starter_rejects_an_adder_entry_outside_1_to_r_minus_1(adder):
    # the square lays an entry as given: 8 would put two blocks in cell
    # (0, 0), -3 a cell in column -3, though both are right mod 7
    sa = StarterAdder(7, SEVEN.pairs, adder)
    with pytest.raises(InvalidStarter, match=r"in 1\.\.6"):
        validate_starter_adder(sa)
    with pytest.raises(InvalidStarter):
        room_from_starter(sa)


def _pairings(elems):
    if not elems:
        yield ()
        return
    first = elems[0]
    for i in range(1, len(elems)):
        rest = elems[1:i] + elems[i + 1 :]
        for sub in _pairings(rest):
            yield ((first, elems[i]),) + sub


def _is_strong_starter(pairs, r):
    diffs = set()
    for x, y in pairs:
        diffs.add((x - y) % r)
        diffs.add((y - x) % r)
    if len(diffs) != r - 1:
        return False
    sums = [(x + y) % r for x, y in pairs]
    return len(set(sums)) == len(sums) and 0 not in sums


def test_oracle_finds_strong_starters_on_seven():
    hits = [p for p in _pairings(tuple(range(1, 7))) if _is_strong_starter(p, 7)]
    assert hits
    assert tuple(sorted(SEVEN.pairs)) in {tuple(sorted(h)) for h in hits}


def test_no_strong_starter_on_nine_by_enumeration():
    """All 105 pairings of Z_9 \\ {0} fail at least one condition."""
    pairings = list(_pairings(tuple(range(1, 9))))
    assert len(pairings) == 105
    assert not any(_is_strong_starter(p, 9) for p in pairings)


def test_search_returns_none_on_nine():
    assert strong_starter_search(9) is None


def test_order_ten_comes_from_a_starter_adder_on_nine():
    validate_starter_adder(_NINE)
    assert not _is_strong_starter(_NINE.pairs, 9)
    arrays = {tuple(sorted(build_room(10, seed=seed)[0].cells.items())) for seed in range(3)}
    assert arrays == {tuple(sorted(room_from_starter(_NINE)[0].cells.items()))}


@pytest.mark.parametrize("r", [r for r in range(7, 152, 2) if r != 9] + [999])
def test_search_output_satisfies_conditions(r):
    """Each starter is strong with the sum adder, so the anti-diagonal of
    its square is a transversal (the rule in omd.room's docstring)."""
    anti_diagonal = tuple((j, -j % r) for j in range(r))
    for seed in range(3) if r < 999 else (0,):
        sa = strong_starter_search(r, seed=seed)
        assert sa is not None, f"seed {seed}"
        validate_starter_adder(sa)
        assert _is_strong_starter(sa.pairs, r)
        assert sorted(p for pair in sa.pairs for p in pair) == list(range(1, r))
        assert sa.adder == tuple((x + y) % r for x, y in sa.pairs)
        report = verify_transversal(_starter_array(sa), anti_diagonal)
        assert report.passed, (seed, report.failure())


def test_search_is_seed_reproducible():
    assert strong_starter_search(61, seed=4) == strong_starter_search(61, seed=4)
    assert strong_starter_search(61, seed=4) != strong_starter_search(61, seed=5)


def test_build_room_passes_seed_to_starters():
    assert build_room(32, seed=1)[0].cells != build_room(32, seed=2)[0].cells


# sha256 over repr((r, seed, pairs, adder, steps, restarts)) in that loop
# order, pairs and adder None where the climb finds no starter (r = 9).
# It pins the climb's draws and its decisions, so that a faster step
# cannot change which starter an order gets or what it spends.
CLIMB_DIGEST = "fb7c63f976dcf01fbec2818a6d8060c2e774b1bceba20407492e5937ac5c4854"


def test_climb_stream_is_pinned():
    digest = hashlib.sha256()
    for r in range(7, 152, 2):
        for seed in range(4):
            tally: dict = {}
            sa = _strong_starter(r, DEFAULT_BUDGET, seed, tally)
            pairs, adder = (None, None) if sa is None else (sa.pairs, sa.adder)
            line = (r, seed, pairs, adder, tally["steps"], tally["restarts"])
            digest.update(repr(line).encode())
    assert digest.hexdigest() == CLIMB_DIGEST


def test_search_returns_none_when_budget_runs_out():
    assert strong_starter_search(61, budget=10) is None


def test_starter_phase_exhaustion_is_reported():
    with pytest.raises(SearchExhausted) as info:
        build_room(62, budget=50)
    assert str(info.value) == (
        "order 62: the strong starter phase gave up after 50 steps and 1 restarts"
    )


def test_construct_two_hundred_verifies():
    _cached_room.cache_clear()
    start = time.monotonic()
    res = construct(200, 1)
    assert time.monotonic() - start < 120.0
    assert res.report.passed
    assert verify_transversal(res.design, res.transversal).passed


def test_search_rejects_bad_modulus():
    with pytest.raises(ValueError):
        strong_starter_search(5)
    with pytest.raises(ValueError):
        strong_starter_search(8)


def test_room_from_starter_seven():
    arr, transversal = room_from_starter(SEVEN)
    assert arr.side == 7 and arr.n == 8
    report = verify(arr)
    assert report.passed, report.failure()
    assert verify_transversal(arr, transversal).passed
    assert transversal == ((0, 0), (1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1))
    for j in range(7):
        assert arr.block_at(j, j) == canonical_block([(j, 7)])


@pytest.mark.parametrize("r", [7, 11])
def test_starter_square_column_structure(r):
    """Column c holds the translated pairs (starter - adder) + c plus the
    infinity pair, jointly covering every point once."""
    sa = SEVEN if r == 7 else strong_starter_search(r)
    arr, _ = room_from_starter(sa)
    for c in range(r):
        expected = {canonical_block([(c, r)])}
        for (x, y), a in zip(sa.pairs, sa.adder):
            expected.add(canonical_block([((x - a + c) % r, (y - a + c) % r)]))
        got = {arr.block_at(i, c) for i in range(r)} - {None}
        assert got == expected


@pytest.mark.parametrize("r", range(7, 152, 2))
def test_starter_array_inserts_cells_in_row_order(r):
    """The flat lists are the starter formula's cells in (row, col) order,
    at two seeds for every odd r up to 151, so every run of the laid
    columns and points, which break at x + r - y and y - x, is met."""
    starters = [_NINE] if r == 9 else [strong_starter_search(r, seed=s) for s in (0, 1)]
    for sa in starters:
        cells = [(j, j, j, r) for j in range(r)]
        for (x, y), a in zip(sa.pairs, sa.adder):
            for j in range(r):
                u, v = sorted(((x + j) % r, (y + j) % r))
                cells.append((j, (j + a) % r, u, v))
        cells.sort()
        arr = _starter_array(sa)
        assert arr.rows == [row for row, _, _, _ in cells]
        assert arr.cols == [col for _, col, _, _ in cells]
        assert arr.sizes == [1] * len(cells)
        assert arr.points == [p for _, _, u, v in cells for p in (u, v)]


def test_room_from_starter_revalidates():
    with pytest.raises(InvalidStarter):
        room_from_starter(StarterAdder(7, ((1, 3), (2, 6), (4, 5)), (4, 4, 2)))


def test_room_from_starter_needs_the_sum_adder():
    # a valid starter-adder on Z_9 with _NINE's pairs but another adder
    sa = StarterAdder(9, _NINE.pairs, (8, 2, 7, 1))
    validate_starter_adder(sa)
    with pytest.raises(InvalidStarter, match="not the sum adder"):
        room_from_starter(sa)


def test_order_ten_takes_the_pinned_nine_transversal():
    assert _NINE_TRANSVERSAL == (
        (0, 0), (1, 7), (2, 4), (3, 2), (4, 8), (5, 3), (6, 5), (7, 6), (8, 1)
    )
    arr = _starter_array(_NINE)
    assert verify_transversal(arr, _NINE_TRANSVERSAL).passed
    for seed in range(3):
        _cached_room.cache_clear()
        assert build_room(10, seed=seed, budget=1) == (arr, _NINE_TRANSVERSAL)


def test_build_room_two():
    arr, transversal = build_room(2)
    assert arr.cells == {(0, 0): canonical_block([(0, 1)])}
    assert transversal == ((0, 0),)


@pytest.mark.parametrize("n", [4, 6])
def test_build_room_exclusions(n):
    with pytest.raises(NonExistent):
        build_room(n)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_build_room_verifies(n):
    arr, transversal = build_room(n)
    assert arr.side == n - 1
    assert verify(arr).passed
    assert verify_transversal(arr, transversal).passed


def test_build_room_rejects_odd():
    with pytest.raises(ValueError):
        build_room(7)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_leaves_the_recursion_limit_alone():
    offenders = [
        path.name
        for path in (SRC / "omd").glob("*.py")
        if "setrecursionlimit" in path.read_text()
    ]
    assert offenders == []
