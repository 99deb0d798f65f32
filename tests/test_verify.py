"""The verifier and the exhaustive existence oracle."""

import hashlib
import json

import pytest

from omd.bases import build_2k, build_m1k, six_point_square
from omd.compose import construct
from omd.core import (
    Complete,
    CompleteMultipartite,
    DesignArray,
    Hole,
    Transversal,
    canonical_block,
)
from omd.room import build_room
from omd.verify import (
    Existence,
    brute_force_exists,
    expected_side,
    verify,
    verify_hole,
    verify_transversal,
)


def test_expected_side_per_host():
    assert expected_side(Complete(8)) == 7
    assert expected_side(CompleteMultipartite((3, 3))) == 3
    assert expected_side(CompleteMultipartite((2, 3))) is None
    assert expected_side(CompleteMultipartite((2, 2, 2))) == 4
    assert expected_side(CompleteMultipartite((1, 2))) is None


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
    report = verify(DesignArray(arr.side, arr.n, arr.k, arr.host, cells))
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert not checks["pair-coverage"].passed
    assert "covered 2 times" in checks["pair-coverage"].detail


def test_deleted_block_fails_resolution_and_coverage():
    arr, _, _ = build_2k(3)
    cells = dict(arr.cells)
    del cells[(0, 0)]
    broken = DesignArray(arr.side, arr.n, arr.k, arr.host, cells)
    report = verify(broken)
    checks = {c.name: c for c in report.checks}
    assert not checks["row-resolution"].passed
    assert not checks["pair-coverage"].passed
    assert "uncovered" in checks["pair-coverage"].detail


def test_foreign_pair_fails_coverage():
    arr = build_m1k(2)
    # k=1 host edge (0,1) is within one side of the bipartition
    cells = dict(arr.cells)
    cells[(0, 0)] = canonical_block(((0, 1), (2, 3)))
    report = verify(DesignArray(arr.side, arr.n, arr.k, arr.host, cells))
    checks = {c.name: c for c in report.checks}
    assert not checks["pair-coverage"].passed
    assert "not a host edge" in checks["pair-coverage"].detail


def test_host_shape_failures():
    report = verify(DesignArray(3, 6, 1, Complete(4), {}))
    assert "host-shape: array says n=6" in report.failure()

    report = verify(DesignArray(2, 5, 1, CompleteMultipartite((2, 3)), {}))
    checks = {c.name: c for c in report.checks}
    assert not checks["host-shape"].passed
    assert "irregular" in checks["host-shape"].detail

    report = verify(DesignArray(4, 6, 1, Complete(6), {}))
    checks = {c.name: c for c in report.checks}
    assert "side is 4" in checks["host-shape"].detail


def test_block_shape_failures():
    arr, _, _ = build_2k(2)
    cells = dict(arr.cells)
    cells[(0, 0)] = canonical_block(((0, 1),))
    report = verify(DesignArray(arr.side, arr.n, arr.k, arr.host, cells))
    checks = {c.name: c for c in report.checks}
    assert "holds 1 edges" in checks["block-shape"].detail

    cells = dict(arr.cells)
    cells[(0, 0)] = canonical_block(((0, 9), (1, 2)))
    report = verify(DesignArray(arr.side, arr.n, arr.k, arr.host, cells))
    checks = {c.name: c for c in report.checks}
    assert "outside" in checks["block-shape"].detail

    # a cell past either edge is named, not an IndexError or a wrapped row
    for cell in ((5, 0), (0, 5), (-1, 0), (0, -1)):
        cells = dict(arr.cells)
        cells[cell] = cells.pop((0, 0))
        report = verify(DesignArray(arr.side, arr.n, arr.k, arr.host, cells))
        checks = {c.name: c for c in report.checks}
        assert not report.passed
        assert checks["block-shape"].detail == f"cell {cell} outside side-3 array"


def test_report_serializes():
    report = verify(build_m1k(2))
    data = report.to_dict()
    assert data["passed"] is True
    assert data["total_blocks"] == 2
    assert {c["name"] for c in data["checks"]} >= {"row-resolution", "pair-coverage"}
    assert report.failure() is None


def _edit(arr, drop=(), put=()):
    cells = dict(arr.cells)
    for cell in drop:
        del cells[cell]
    cells.update(put)
    return DesignArray(arr.side, arr.n, arr.k, arr.host, cells)


def _two_k(k):
    return build_2k(k)[0]


# (design, first failure, detail of host-shape, block-shape, row-resolution,
# column-resolution, pair-coverage). The lex-matching-complete case leaves
# (2, 5) and (0, 1) uncovered, the multipartite case (1, 2) and (0, 4); a
# walk over groups or parts meets the first of each pair first, but the
# report names the lexicographically smaller.
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
    "foreign-pair": (
        lambda: _edit(build_m1k(2), put={(0, 0): canonical_block(((0, 1), (2, 3)))}),
        "pair-coverage: pair (0, 1) is not a host edge",
        (None, None, None, None, "pair (0, 1) is not a host edge"),
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
    "uncovered-bipartite": (
        # build_m1k(4) is on CompleteMultipartite((4, 4)), i.e. K_{4,4}
        lambda: _edit(build_m1k(4), drop=[(1, 1)]),
        "row-resolution: row 1 covers point 0 0 times",
        (None, None, "row 1 covers point 0 0 times",
         "column 1 covers point 0 0 times", "host edge (0, 5) is uncovered"),
    ),
    "uncovered-multipartite": (
        lambda: _edit(six_point_square(), drop=[(2, 3), (3, 3)]),
        "row-resolution: row 2 covers point 1 0 times",
        (None, None, "row 2 covers point 1 0 times",
         "column 3 covers point 0 0 times", "host edge (0, 4) is uncovered"),
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


def _product_deletion():
    arr = construct(80, 2).design
    return _edit(arr, drop=[max(arr.cells)])


def _product_swap():
    arr = construct(80, 2).design
    (a, first), (b, last) = arr.occupied()[0], arr.occupied()[-1]
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


def test_transversal_back_diagonal_passes():
    arr, transversal, _ = build_2k(2)
    assert verify_transversal(arr, transversal).passed


def test_transversal_main_diagonal_fails_coverage():
    arr, _, _ = build_2k(2)
    diag = Transversal(tuple((i, i) for i in range(arr.side)))
    report = verify_transversal(arr, diag)
    checks = {c.name: c for c in report.checks}
    assert checks["one-per-row-and-column"].passed
    assert not checks["exact-point-coverage"].passed


def test_transversal_single_cell_passes():
    arr, _ = build_room(2)
    assert verify_transversal(arr, Transversal(((0, 0),))).passed


def test_transversal_bad_permutation():
    arr, _, _ = build_2k(2)
    report = verify_transversal(arr, Transversal(((0, 0), (0, 1), (2, 2))))
    checks = {c.name: c for c in report.checks}
    assert not checks["one-per-row-and-column"].passed


def test_hole_of_diagonal_design():
    arr, _, hole = build_2k(3)
    assert verify_hole(arr, hole).passed
    assert verify_hole(arr, Hole((), ())).passed
    report = verify_hole(arr, Hole((0,), (0,)))
    assert not report.passed
    assert "holds a block" in report.failure()


def test_hole_range_check():
    arr, _, _ = build_2k(2)
    report = verify_hole(arr, Hole((9,), (0,)))
    assert "outside" in report.failure()


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
