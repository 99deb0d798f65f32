"""The verifier and the exhaustive existence oracle."""

import hashlib
import json
import random
import time
import tracemalloc

import pytest

from omd.bases import build_2k
from omd.compose import construct
from omd.core import DesignArray, Hole, canonical_block
from omd.room import build_room
from omd.verify import (
    Existence,
    brute_force_exists,
    verify,
    verify_hole,
    verify_transversal,
)


def test_verify_diagonal_design():
    arr, _, _ = build_2k(3)
    report = verify(arr)
    assert report.passed
    assert report.total_blocks == 5
    assert report.row_blocks == (1,) * 5
    assert report.col_blocks == (1,) * 5


def test_verify_room_square_counts():
    arr, _ = build_room(8)
    report = verify(arr)
    assert report.passed
    assert report.total_blocks == 28
    assert report.row_blocks == (4,) * 7
    assert report.col_blocks == (4,) * 7


def test_duplicated_block_fails_pair_coverage():
    arr, _, _ = build_2k(2)
    cells = dict(arr.cells)
    cells[(0, 1)] = arr.block_at(0, 0)
    report = verify(DesignArray(arr.side, arr.n, arr.k, cells))
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert not checks["pair-coverage"].passed
    assert "covered 2 times" in checks["pair-coverage"].detail


def test_deleted_block_fails_resolution_and_coverage():
    arr, _, _ = build_2k(3)
    cells = dict(arr.cells)
    del cells[(0, 0)]
    broken = DesignArray(arr.side, arr.n, arr.k, cells)
    report = verify(broken)
    checks = {c.name: c for c in report.checks}
    assert not checks["row-resolution"].passed
    assert not checks["pair-coverage"].passed
    assert "uncovered" in checks["pair-coverage"].detail


def test_foreign_pair_fails_coverage():
    arr = build_2k(2)[0]
    # point 9 is outside K_4, so (0, 9) is no host edge
    cells = dict(arr.cells)
    cells[(0, 0)] = canonical_block(((0, 9), (1, 2)))
    report = verify(DesignArray(arr.side, arr.n, arr.k, cells))
    checks = {c.name: c for c in report.checks}
    assert not checks["pair-coverage"].passed
    assert checks["pair-coverage"].detail == "pair (0, 9) is not a host edge"


def test_host_shape_failures():
    report = verify(DesignArray(4, 6, 1, {}))
    checks = {c.name: c for c in report.checks}
    assert "side is 4" in checks["host-shape"].detail


def test_k_zero_arrays_get_a_report():
    # no table fits a block of no edges, so the fallback words each report
    report = verify(DesignArray(0, 0, 0, {}))
    assert report.failure() == "host-shape: side is 0, host requires -1"
    report = verify(DesignArray(1, 2, 0, {(0, 0): ()}))
    assert report.failure() == "row-resolution: row 0 covers point 0 0 times"


def test_block_shape_failures():
    arr, _, _ = build_2k(2)
    cells = dict(arr.cells)
    cells[(0, 0)] = canonical_block(((0, 1),))
    report = verify(DesignArray(arr.side, arr.n, arr.k, cells))
    checks = {c.name: c for c in report.checks}
    assert "holds 1 edges" in checks["block-shape"].detail

    cells = dict(arr.cells)
    cells[(0, 0)] = canonical_block(((0, 9), (1, 2)))
    report = verify(DesignArray(arr.side, arr.n, arr.k, cells))
    checks = {c.name: c for c in report.checks}
    assert "outside" in checks["block-shape"].detail

    # a cell past either edge is named, not an IndexError or a wrapped row
    for cell in ((5, 0), (0, 5), (-1, 0), (0, -1)):
        cells = dict(arr.cells)
        cells[cell] = cells.pop((0, 0))
        report = verify(DesignArray(arr.side, arr.n, arr.k, cells))
        checks = {c.name: c for c in report.checks}
        assert not report.passed
        assert checks["block-shape"].detail == f"cell {cell} outside side-3 array"


def test_report_serializes():
    report = verify(build_2k(2)[0])
    data = report.to_dict()
    assert data["passed"] is True
    assert data["total_blocks"] == 3
    assert {c["name"] for c in data["checks"]} >= {"row-resolution", "pair-coverage"}
    assert report.failure() is None


def _edit(arr, drop=(), put=()):
    cells = dict(arr.cells)
    for cell in drop:
        del cells[cell]
    cells.update(put)
    return DesignArray(arr.side, arr.n, arr.k, cells)


def _two_k(k):
    return build_2k(k)[0]


# (design, first failure, detail of host-shape, block-shape, row-resolution,
# column-resolution, pair-coverage), every design on K_n; a pair that is not
# a host edge is named by out-of-range-point.
PINNED = {
    "deletion": (
        lambda: _edit(_two_k(3), drop=[(0, 0)]),
        "row-resolution: row 0 covers point 0 0 times",
        (None, None, "row 0 covers point 0 0 times",
         "column 0 covers point 0 0 times", "host edge (0, 5) is uncovered"),
    ),
    "duplicate-block": (
        lambda: _edit(_two_k(2), put={(0, 1): _two_k(2).cells[(0, 0)]}),
        "row-resolution: row 0 covers point 0 2 times",
        (None, None, "row 0 covers point 0 2 times",
         "column 1 covers point 0 2 times", "pair (0, 3) covered 2 times"),
    ),
    "out-of-range-cell": (
        lambda: _edit(_two_k(2), drop=[(0, 0)], put={(5, 0): _two_k(2).cells[(0, 0)]}),
        "block-shape: cell (5, 0) outside side-3 array",
        (None, "cell (5, 0) outside side-3 array", "row 0 covers point 0 0 times",
         "column 0 covers point 0 0 times", None),
    ),
    "out-of-range-point": (
        lambda: _edit(_two_k(2), put={(0, 0): canonical_block(((0, 9), (1, 2)))}),
        "block-shape: cell (0, 0) uses a point outside 0..3",
        (None, "cell (0, 0) uses a point outside 0..3", "row 0 covers point 3 0 times",
         "column 0 covers point 3 0 times", "pair (0, 9) is not a host edge"),
    ),
    "product-deletion": (
        lambda: _edit(construct(16, 2).design, drop=[(7, 7)]),
        "row-resolution: row 7 covers point 6 0 times",
        (None, None, "row 7 covers point 6 0 times",
         "column 7 covers point 6 0 times", "host edge (6, 15) is uncovered"),
    ),
}


def _last_row_fault(block_of):
    """build_room(122) with the last row's rightmost cell, edge (u, v),
    replaced by block_of(u, v): the fault sits at the end of every scan."""
    arr = build_room(122)[0]
    cell = max(c for c in arr.cells if c[0] == arr.side - 1)
    ((u, v),) = arr.cells[cell]
    return _edit(arr, put={cell: block_of(u, v)})


def _moved_outside():
    arr = build_room(122)[0]
    r, c = max(arr.cells)
    return _edit(arr, drop=[(r, c)], put={(arr.side, c): arr.cells[(r, c)]})


def _extra_block(line, block):
    """build_room(122) with block put in the first empty cell of the last
    row or column, which stays a resolution class over 0..121."""
    arr = build_room(122)[0]
    last = arr.side - 1
    free = [(last, i) if line == "row" else (i, last) for i in range(arr.side)]
    cell = next(c for c in free if c not in arr.cells)
    return _edit(arr, put={cell: block})


def _first_rows(count):
    """build_room(122) cut to its first count rows: too few cells for the
    bytes of a table of columns or of pairs."""
    arr = build_room(122)[0]
    return _edit(arr, drop=[cell for cell in arr.cells if cell[0] >= count])


def _room_deletion(cell_of):
    """construct(122, 1).design with the cell cell_of(arr) picks deleted."""
    arr = construct(122, 1).design
    return _edit(arr, drop=[cell_of(arr)])


def _first_of_last_column(arr):
    return min(c for c in arr.cells if c[1] == arr.side - 1)


def _holding_the_last_edge(arr):
    n = arr.n
    return next(c for c, block in arr.cells.items() if (n - 2, n - 1) in block)


def _product_deletion():
    arr = construct(80, 2).design
    return _edit(arr, drop=[max(arr.cells)])


def _product_swap():
    arr = construct(80, 2).design
    items = sorted(arr.cells.items())
    (a, first), (b, last) = items[0], items[-1]
    return _edit(arr, put={a: last, b: first})


# Faults at scale, where the bulk checks fail and the per-cell scan must
# name the first faulty cell, line or pair. Recorded before verify gained
# its bulk checks; the hash is the sha256 of
# json.dumps(report.to_dict(), sort_keys=True), which pins the line counts.
PINNED_AT_SCALE = {
    "non-canonical-edge": (
        lambda: _last_row_fault(lambda u, v: ((v, u),)),
        (None, "cell (120, 120) has a non-canonical edge", None, None,
         "pair (121, 120) is not a host edge"),
        "1489404b120281e6393b72046daab1a1661b2a825e7ee6f39d7ba65ca869e894",
    ),
    "short-cell": (
        lambda: _last_row_fault(lambda u, v: ()),
        (None, "cell (120, 120) holds 0 edges, expected 1",
         "row 120 covers point 120 0 times", "column 120 covers point 120 0 times",
         "host edge (120, 121) is uncovered"),
        "a1515d1a66adb1cfcf2dde57275676f192ff8f1cd3b7f6a4b2674d2e740c6d45",
    ),
    "loop": (
        lambda: _last_row_fault(lambda u, v: ((u, u),)),
        (None, "cell (120, 120) repeats an endpoint",
         "row 120 covers point 120 2 times", "column 120 covers point 120 2 times",
         "pair (120, 120) is not a host edge"),
        "59d3f163bb65ebf40df3c1c50bfc1537ecbdd579169850af20206058d8b2ccfb",
    ),
    "out-of-range-point": (
        lambda: _last_row_fault(lambda u, v: ((u, 122),)),
        (None, "cell (120, 120) uses a point outside 0..121",
         "row 120 covers point 121 0 times", "column 120 covers point 121 0 times",
         "pair (120, 122) is not a host edge"),
        "8569944b5e8becdbcfc7d237460174191bd03050d9d7009743751c5c083e8805",
    ),
    "extra-block-above-range": (
        lambda: _extra_block("row", ((122, 123),)),
        (None, "cell (120, 1) uses a point outside 0..121", None, None,
         "pair (122, 123) is not a host edge"),
        "510c90d6f42511e42f7537945f5bd8eec6c5ca0215b80275f18f3a94387cb14a",
    ),
    "extra-block-below-range": (
        lambda: _extra_block("column", ((-2, -1),)),
        (None, "cell (0, 120) uses a point outside 0..121", None, None,
         "pair (-2, -1) is not a host edge"),
        "7f200434507d0ff04de00fb672613790ec23f4f7822678193d52e282de943469",
    ),
    "moved-outside": (
        _moved_outside,
        (None, "cell (121, 120) outside side-121 array",
         "row 120 covers point 120 0 times", "column 120 covers point 120 0 times",
         None),
        "f43aea66f8e83cb1f4609dec1a10e1b790c3300c2974549482b0d22404a040e6",
    ),
    # every column covers 0..n-1, and column 120 holds one cell more
    "extra-block-in-full-column": (
        lambda: _extra_block("column", ((0, 1),)),
        (None, None, "row 0 covers point 0 2 times", "column 120 covers point 0 2 times",
         "pair (0, 1) covered 2 times"),
        "6404fce3efac5d2c5fcb6a43bc78ee707f7a7a949b5cac7eabd3971ec07123c5",
    ),
    "too-sparse-for-tables": (
        lambda: _first_rows(10),
        (None, None, "row 10 covers point 0 0 times", "column 0 covers point 1 0 times",
         "host edge (0, 1) is uncovered"),
        "f71736b81e6d8eb9c55f161e8a01499a5305f9ca00ec11ddcb634261f9b2b7d6",
    ),
    "product-deletion": (
        _product_deletion,
        (None, None, "row 78 covers point 22 0 times",
         "column 64 covers point 22 0 times", "host edge (22, 57) is uncovered"),
        "47f49d96563a5a613c9053cdbc8487a365e55dc17da23391e63b5687e55f576e",
    ),
    "product-swap": (
        _product_swap,
        (None, None, "row 0 covers point 0 0 times",
         "column 1 covers point 0 0 times", None),
        "83d757693a09f6d25f2f67401f17c3af1278ddbfe852ac454bb3ae2363a915b2",
    ),
    # the last line of each byte table: the last column's, and the pairs
    # above n - 2; recorded before the tables were split into lines
    "room-deletion-in-last-column": (
        lambda: _room_deletion(_first_of_last_column),
        (None, None, "row 2 covers point 17 0 times",
         "column 120 covers point 17 0 times", "host edge (17, 105) is uncovered"),
        "45aba3af9f9e0857b8c9bd18c45ffe0470ce1bb5361315de26d37c7bc5593f25",
    ),
    "room-deletion-of-the-last-edge": (
        lambda: _room_deletion(_holding_the_last_edge),
        (None, None, "row 120 covers point 120 0 times",
         "column 120 covers point 120 0 times", "host edge (120, 121) is uncovered"),
        "722d21a951ec84c945f5e4946e0d8585af09b72637172cf13cfa17ede8e3ee5a",
    ),
}


@pytest.mark.parametrize("case", PINNED)
def test_failure_reports_are_pinned(case):
    make, failure, details = PINNED[case]
    report = verify(make())
    assert not report.passed
    assert report.failure() == failure
    names = ["host-shape", "block-shape", "row-resolution", "column-resolution"]
    assert [c.name for c in report.checks] == names + ["pair-coverage"]
    assert tuple(c.detail for c in report.checks) == details
    assert [c.passed for c in report.checks] == [d is None for d in details]


@pytest.mark.parametrize("case", PINNED_AT_SCALE)
def test_failure_reports_at_scale_are_pinned(case):
    make, details, digest = PINNED_AT_SCALE[case]
    report = verify(make())
    assert tuple(c.detail for c in report.checks) == details
    assert [c.passed for c in report.checks] == [d is None for d in details]
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _header_side(arr, side, drop=(), put=()):
    """arr edited, under a header that claims side."""
    return DesignArray(side, arr.n, arr.k, _edit(arr, drop, put).cells)


def _middle(arr):
    return sorted(arr.cells)[len(arr.rows) // 2]


def _first_cells(arr, count):
    return _edit(arr, drop=sorted(arr.cells)[count:])


# Shaped arrays where only one of the column table (side·n bytes) and the
# pair table (n² bytes) fits in twice the points the cells hold: a header
# side above n, or cells holding between side·n/2 and n²/2 points. Recorded
# when each table ran on its own bound, so the reports do not hang on which
# path names a fault; the hash is as in PINNED_AT_SCALE.
PINNED_BETWEEN_TABLES = {
    "side-15-on-room-8-deletion": (
        lambda: _header_side(build_room(8)[0], 15, drop=[_middle(build_room(8)[0])]),
        ("side is 15, host requires 7", None, "row 3 covers point 3 0 times",
         "column 3 covers point 3 0 times", "host edge (3, 7) is uncovered"),
        "b9c6af737c1d4eba22685da2bafbac30d3645a989aea96b437d65b4f666efa31",
    ),
    "side-15-on-room-8-repeat": (
        lambda: _header_side(build_room(8)[0], 15, put={(0, 10): ((0, 7),)}),
        ("side is 15, host requires 7", None, "row 0 covers point 0 2 times",
         "column 7 covers point 0 0 times", "pair (0, 7) covered 2 times"),
        "6527312b10d4fe41ffeba5c18264274e0644bfbdcd37e3c8143499532a1fa471",
    ),
    "side-250-on-room-122-deletion": (
        lambda: _header_side(build_room(122)[0], 250, drop=[_middle(build_room(122)[0])]),
        ("side is 250, host requires 121", None, "row 60 covers point 19 0 times",
         "column 64 covers point 19 0 times", "host edge (19, 105) is uncovered"),
        "71950e024de58715472bd9c5cef72d17d8267d01e22df5a2d5ce35331066684f",
    ),
    "side-31-on-product-16-deletion": (
        lambda: _header_side(construct(16, 2).design, 31, drop=[(7, 7)]),
        ("side is 31, host requires 15", None, "row 7 covers point 6 0 times",
         "column 7 covers point 6 0 times", "host edge (6, 15) is uncovered"),
        "a58f4fe9fb1ca39355fca6513434751b02efff161d332ae7714d6199b922e812",
    ),
    "first-3700-cells-of-room-122": (
        lambda: _first_cells(build_room(122)[0], 3700),
        (None, None, "row 60 covers point 4 0 times", "column 0 covers point 4 0 times",
         "host edge (0, 1) is uncovered"),
        "18059ac35a4bce08676f1675ffe9e6f69d467d47791705e4b597c9759edd2776",
    ),
    "first-795-cells-of-product-80": (
        lambda: _first_cells(construct(80, 2).design, 795),
        (None, None, "row 39 covers point 6 0 times", "column 0 covers point 0 0 times",
         "host edge (0, 2) is uncovered"),
        "26307da4d1bb6c4a0b2cff078cf0d2cbfb980c57e78332447988a76b9e4051d8",
    ),
}


@pytest.mark.parametrize("case", PINNED_BETWEEN_TABLES)
def test_reports_between_the_table_bounds_are_pinned(case):
    make, details, digest = PINNED_BETWEEN_TABLES[case]
    arr = make()
    fits = [arr.side * arr.n <= 2 * len(arr.points), arr.n**2 <= 2 * len(arr.points)]
    assert sorted(fits) == [False, True]
    report = verify(arr)
    assert tuple(c.detail for c in report.checks) == details
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _traced_peak(arr):
    """verify(arr)'s tracemalloc peak in bytes, counted from its call."""
    tracemalloc.start()
    try:
        verify(arr)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_deleted_cell_costs_verify_little_more_memory_than_none():
    """Naming a pair fault reads the flat endpoints: no tuple per edge."""
    design = construct(400, 2).design
    valid = _edit(design)
    mutant = _edit(design, drop=[list(design.cells)[len(design.rows) // 2]])
    assert not verify(mutant).checks[4].passed
    assert _traced_peak(mutant) <= 1.25 * _traced_peak(valid)


def test_verify_of_a_valid_product_peaks_below_2_mib():
    """A valid design's lines and pairs are settled in byte tables and row
    runs, with no copy of its cells."""
    assert _traced_peak(construct(400, 2).design) <= 2 * 2**20


def _first_block_copied(arr):
    (_, first), (second, _) = list(arr.cells.items())[:2]
    return _edit(arr, put={second: first})


def _first_edge_flipped(arr):
    cell, ((u, v), *rest) = next(iter(arr.cells.items()))
    return _edit(arr, put={cell: ((v, u), *rest)})


@pytest.mark.parametrize(
    "mutate,mib", [(_first_block_copied, 2), (_first_edge_flipped, 4)]
)
def test_naming_a_fault_of_a_product_peaks_below_its_bound(mutate, mib):
    """A repeated block or a non-canonical edge sends the columns or the
    pairs to the grouped fallback, which lists the points once: no sorted
    copy of the cells and no tuple per pair."""
    mutant = mutate(construct(400, 2).design)
    assert not verify(mutant).passed
    assert _traced_peak(mutant) <= mib * 2**20


def test_transversal_back_diagonal_passes():
    arr, transversal, _ = build_2k(2)
    assert verify_transversal(arr, transversal).passed


def test_transversal_main_diagonal_fails_coverage():
    arr, _, _ = build_2k(2)
    diag = tuple((i, i) for i in range(arr.side))
    report = verify_transversal(arr, diag)
    checks = {c.name: c for c in report.checks}
    assert checks["one-per-row-and-column"].passed
    assert not checks["exact-point-coverage"].passed


def test_transversal_single_cell_passes():
    arr, _ = build_room(2)
    assert verify_transversal(arr, ((0, 0),)).passed


def test_transversal_bad_permutation():
    arr, _, _ = build_2k(2)
    report = verify_transversal(arr, ((0, 0), (0, 1), (2, 2)))
    checks = {c.name: c for c in report.checks}
    assert not checks["one-per-row-and-column"].passed


@pytest.mark.parametrize(
    "cells,detail",
    [
        (((0, 0), (1, 1), (7, 2)), "row 7 is outside 0..2"),
        (((0, 2), (1, 1)), "row 2 is not chosen"),
        (((0, 0), (0, 1), (0, 0)), "row 0 is chosen 3 times"),
        (((0, 0), (1, 0), (2, 2)), "column 0 is chosen 2 times"),
        (((0, 0), (1, 1), (2, -1)), "column -1 is outside 0..2"),
        # build_2k(2)'s own transversal with (2, 0) given as (2.5, 0), which
        # is no cell and is not read as (2, 0)
        (((2.5, 0), (1, 1), (0, 2)), "row 2 is not chosen"),
    ],
)
def test_transversal_names_one_line(cells, detail):
    arr, _, _ = build_2k(2)
    report = verify_transversal(arr, cells)
    assert report.checks[0].detail == detail


def test_transversal_names_the_first_repeated_row_at_scale():
    arr, transversal = build_room(122)
    cells = [(6, c) if r == 7 else (r, c) for r, c in transversal]
    report = verify_transversal(arr, tuple(cells))
    assert report.checks[0].detail == "row 6 is chosen 2 times"
    # the work follows the transversal, not the side a header claims
    huge = DesignArray(10**9, 8, 1, {})
    report = verify_transversal(huge, ())
    assert report.checks[0].detail == "row 0 is not chosen"


def test_line_names_a_point_covered_three_times():
    arr = build_room(10)[0]
    row = sorted(cell for cell in arr.cells if cell[0] == 0)
    first = next(cell for cell in row if 0 in arr.cells[cell][0])
    others = [cell for cell in row if cell != first][:2]
    report = verify(_edit(arr, put={cell: arr.cells[first] for cell in others}))
    assert report.checks[2].detail == "row 0 covers point 0 3 times"


def test_hole_of_diagonal_design():
    arr, _, hole = build_2k(3)
    assert verify_hole(arr, hole).passed
    assert verify_hole(arr, Hole((), ())).passed
    report = verify_hole(arr, Hole((0,), (0,)))
    assert not report.passed
    assert "holds a block" in report.failure()


def test_hole_names_its_smallest_held_cell_in_any_cell_order():
    arr = build_room(12)[0]
    items = list(arr.cells.items())
    random.Random(0).shuffle(items)
    shuffled = DesignArray(arr.side, arr.n, arr.k, dict(items))
    hole = Hole((9, 2, 5), (8, 3, 7))
    held = [cell for cell in arr.cells if cell[0] in hole.rows and cell[1] in hole.cols]
    assert len(held) > 1
    report = verify_hole(shuffled, hole)
    assert report.failure() == f"hole-cells-empty: cell {min(held)} inside the hole holds a block"


def test_hole_range_check():
    arr, _, _ = build_2k(2)
    report = verify_hole(arr, Hole((9,), (0,)))
    assert "outside" in report.failure()


@pytest.mark.parametrize(
    "hole,detail",
    [
        (Hole((0.9,), (2.7,)), "hole row 0.9 is not an integer"),
        (Hole((0,), (2.0,)), "hole column 2.0 is not an integer"),
        (Hole((True,), (2,)), "hole row True is not an integer"),
    ],
    ids=["float-row", "float-column", "bool-row"],
)
def test_hole_indices_must_be_integers(hole, detail):
    # as the file reader has it, a float or a bool is no index, even one
    # that lies in range or compares equal to one that does
    report = verify_hole(build_2k(2)[0], hole)
    assert report.failure() == f"indices-in-range: {detail}"


def test_brute_force_trivial_exists():
    res = brute_force_exists(2, 1)
    assert res.status is Existence.EXISTS
    assert verify(res.design).passed


@pytest.mark.parametrize("n", [4, 6])
def test_brute_force_refutes_room_exclusions(n):
    res = brute_force_exists(n, 1)
    assert res.status is Existence.NOT_EXISTS


def test_brute_force_finds_order_four_pairs():
    res = brute_force_exists(4, 2)
    assert res.status is Existence.EXISTS
    report = verify(res.design)
    assert report.passed, report.failure()
    assert res.design.side == 3


def test_brute_force_budget_reported_distinctly():
    res = brute_force_exists(8, 1, budget=10)
    assert res.status is Existence.EXHAUSTED
    assert res.design is None


def test_brute_force_rejects_bad_parameters():
    with pytest.raises(ValueError):
        brute_force_exists(1, 1)
    with pytest.raises(ValueError):
        brute_force_exists(4, 0)


def test_brute_force_witness_is_verified():
    res = brute_force_exists(8, 2)
    assert res.status is Existence.EXISTS
    assert verify(res.design).passed


def test_oracle_skips_matchings_that_no_open_column_takes():
    # the budget counts placements, so the time between them is the
    # matchings tried: only those that some open column can take are built
    start = time.perf_counter()
    res = brute_force_exists(12, 3, budget=20_000)
    assert (res.status, res.nodes) == (Existence.EXHAUSTED, 20_001)
    assert time.perf_counter() - start < 3.0


def test_brute_force_search_is_pinned():
    # verdicts, node counts and witnesses over small parameters, at budgets
    # that stop the search early, midway and never; (10, 1) is too slow to
    # run to its end here
    digest = hashlib.sha256()
    for n in range(2, 11):
        for k in range(1, 5):
            for budget in (10, 1000, 10**7):
                if (n, k, budget) == (10, 1, 10**7):
                    continue
                res = brute_force_exists(n, k, budget=budget)
                cells = sorted(res.design.cells.items()) if res.design else None
                digest.update(repr((n, k, budget, res.status.value, res.nodes, cells)).encode())
    assert digest.hexdigest() == "01de7cdb2129ec01997182d299567f9e1e02fa6a91d235ef4b4c3394140719df"
