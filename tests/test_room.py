"""Single-edge designs: starters, starter squares, transversals.

The r = 9 tests carry their own oracle: an independent enumeration of all
105 pairings of Z_9 \\ {0} establishes that no strong starter exists, so
the search's empty answer is checked against ground truth rather than
against itself.
"""

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from omd.bases import build_2k, build_m1k
from omd.compose import construct
from omd.core import canonical_block
from omd.errors import InvalidStarter, NonExistent, SearchExhausted
from omd.room import (
    _NINE,
    StarterAdder,
    _cached_room,
    _starter_array,
    build_room,
    find_transversal,
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


@pytest.mark.parametrize("r", [r for r in range(7, 152, 2) if r != 9])
def test_search_output_satisfies_conditions(r):
    for seed in range(3):
        sa = strong_starter_search(r, seed=seed)
        assert sa is not None, f"seed {seed}"
        validate_starter_adder(sa)
        assert _is_strong_starter(sa.pairs, r)
        assert sorted(p for pair in sa.pairs for p in pair) == list(range(1, r))
        assert sa.adder == tuple((x + y) % r for x, y in sa.pairs)


def test_search_is_seed_reproducible():
    assert strong_starter_search(61, seed=4) == strong_starter_search(61, seed=4)
    assert strong_starter_search(61, seed=4) != strong_starter_search(61, seed=5)


def test_build_room_passes_seed_to_starters():
    assert build_room(32, seed=1)[0].cells != build_room(32, seed=2)[0].cells


def test_search_returns_none_when_budget_runs_out():
    assert strong_starter_search(61, budget=10) is None


def test_starter_phase_exhaustion_is_reported():
    with pytest.raises(SearchExhausted, match=r"strong starter phase .* 50 steps"):
        build_room(62, budget=50)
    # order 10 runs no starter phase: its one square is the fixed _NINE
    with pytest.raises(SearchExhausted) as info:
        build_room(10, budget=0)
    assert str(info.value) == (
        "order 10: the fixed _NINE square had no transversal within budget "
        "(0 search nodes)"
    )
    with pytest.raises(SearchExhausted) as info:
        build_room(10, budget=3)
    assert str(info.value).endswith("within budget (3 search nodes)")


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


@pytest.mark.parametrize("r", [9, 61, 121])
def test_starter_array_inserts_cells_in_row_order(r):
    """The cells are the starter formula's, inserted in (row, col) order."""
    sa = _NINE if r == 9 else strong_starter_search(r)
    expected = {(j, j): ((j, r),) for j in range(r)}
    for (x, y), a in zip(sa.pairs, sa.adder):
        for j in range(r):
            expected[(j, (j + a) % r)] = canonical_block([((x + j) % r, (y + j) % r)])
    arr = _starter_array(sa)
    assert arr.cells == expected
    assert list(arr.cells) == sorted(expected)


def test_room_from_starter_revalidates():
    with pytest.raises(InvalidStarter):
        room_from_starter(StarterAdder(7, ((1, 3), (2, 6), (4, 5)), (4, 4, 2)))


def test_build_room_two():
    arr, transversal = build_room(2)
    assert arr.cells == {(0, 0): canonical_block([(0, 1)])}
    assert transversal.cells == ((0, 0),)


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


def test_find_transversal_single_cell():
    arr, _ = build_room(2)
    assert find_transversal(arr).cells == ((0, 0),)


def test_find_transversal_definitive_absence():
    # both diagonal cells cover all four points, so any choice covers a
    # point twice or (off the diagonal) not at all; the search proves it
    assert find_transversal(build_m1k(2)) is None


def test_find_transversal_certifies():
    arr, _, _ = build_2k(3)
    t = find_transversal(arr)
    assert t is not None
    assert verify_transversal(arr, t).passed


def test_find_transversal_is_seed_reproducible():
    arr, _ = build_room(10, seed=2)
    assert find_transversal(arr, seed=9) == find_transversal(arr, seed=9)


def test_find_transversal_tally():
    tally = {}
    assert find_transversal(build_room(62)[0], tally=tally) is not None
    assert tally == {"nodes": 31, "slices": 1}
    assert find_transversal(build_room(62)[0], budget=5, tally=tally) is None
    assert tally == {"nodes": 5, "slices": 1}
    assert find_transversal(build_m1k(2), tally=tally) is None
    assert tally == {"nodes": 2, "slices": 1}


@pytest.mark.parametrize(
    "n,cell,block,expected,nodes",
    [
        # a loop covers one point; counted as an edge's two ends, it
        # would let the search finish one point short
        (
            10,
            (0, 4),
            ((1, 1),),
            ((0, 8), (1, 0), (2, 4), (3, 3), (4, 1), (5, 7), (6, 5), (7, 2), (8, 6)),
            74,
        ),
        # a two-edge block in an empty cell of a k = 1 array
        (
            8,
            (0, 1),
            ((0, 1), (2, 3)),
            ((0, 3), (1, 4), (2, 2), (3, 5), (4, 0), (5, 6), (6, 1)),
            4,
        ),
    ],
    ids=["loop", "two-edge-block"],
)
def test_find_transversal_on_blocks_that_are_not_one_edge(n, cell, block, expected, nodes):
    """Arrays whose blocks are not all one edge with two distinct ends
    take each cell's points as a set; the answers are pinned."""
    arr = build_room(n)[0]
    odd = replace(arr, cells={**arr.cells, cell: block})
    tally = {}
    assert find_transversal(odd, tally=tally).cells == expected
    assert tally == {"nodes": nodes, "slices": 1}


def _digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _cells(transversal):
    return "None" if transversal is None else repr(transversal.cells)


def test_find_transversal_results_are_pinned():
    """The search's answers on every Room square up to order 122.

    Both digests in this file were recorded with the earlier search, which
    rescanned every uncovered point's cells at each node; the counting
    search must give the same answers."""
    rows = []
    for n in range(8, 123, 2):
        for seed in (0, 3):
            arr = build_room(n, seed=seed)[0]
            rows.append(f"{n} {seed} {_cells(find_transversal(arr, seed=seed))}")
    assert _digest(rows) == (
        "fa01bcf4d636d781e1c4020d36a461f573e1a1bb3437cefc4e418623198aab3b"
    )


def test_find_transversal_budget_table_is_pinned():
    """Answers under small budgets fix the search node for node: which
    branch it takes, when a slice runs out, and each reshuffled restart."""
    rows = []
    for n in (12, 20, 30, 62):
        for seed in range(5):
            arr = build_room(n, seed=seed)[0]
            for budget in range(1, n // 2 + 3):
                t = find_transversal(arr, seed=seed, budget=budget)
                rows.append(f"room {n} {seed} {budget} {_cells(t)}")
    for n, k in ((8, 2), (24, 3), (30, 5)):
        arr = construct(n, k).design
        for seed in range(5):
            for budget in (1, 2, 3, 5, 8, 13, 50, 4001):
                t = find_transversal(arr, seed=seed, budget=budget)
                rows.append(f"design {n} {k} {seed} {budget} {_cells(t)}")
    assert _digest(rows) == (
        "ef867ccaca903140b46b31adf6e0be2fef3d18c4210c4a55a908c2fa3fda70e4"
    )


SRC = Path(__file__).resolve().parent.parent / "src"


def test_find_transversal_needs_no_recursion():
    script = (
        "import sys\n"
        "from omd.room import build_room, find_transversal\n"
        "sys.setrecursionlimit(150)\n"
        "arr = build_room(200, seed=0)[0]\n"
        "print(find_transversal(arr) is not None)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_package_leaves_the_recursion_limit_alone():
    offenders = [
        path.name
        for path in (SRC / "omd").glob("*.py")
        if "setrecursionlimit" in path.read_text()
    ]
    assert offenders == []
