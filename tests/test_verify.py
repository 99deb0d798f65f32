"""The verifier and the exhaustive existence oracle."""

import pytest

from omd.bases import build_2k, build_m1k, six_point_square
from omd.compose import construct
from omd.core import (
    Complete,
    CompleteBipartite,
    CompleteMultipartite,
    DesignArray,
    Hole,
    LexMatching,
    LexMatchingComplete,
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
    assert expected_side(CompleteBipartite(3, 3)) == 3
    assert expected_side(CompleteBipartite(2, 3)) is None
    assert expected_side(LexMatching(1, 4)) == 4
    assert expected_side(LexMatchingComplete(1, 3)) == 5
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

    report = verify(DesignArray(2, 5, 1, CompleteBipartite(2, 3), {}))
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


def _edit(arr, drop=(), put=(), host=None):
    cells = dict(arr.cells)
    for cell in drop:
        del cells[cell]
    cells.update(put)
    return DesignArray(arr.side, arr.n, arr.k, host or arr.host, cells)


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
    "uncovered-lex-matching-complete": (
        # LexMatchingComplete(1, 4) has the edges of Complete(8)
        lambda: _edit(
            build_room(8)[0], drop=[(4, 3), (5, 3)], host=LexMatchingComplete(1, 4)
        ),
        "row-resolution: row 4 covers point 2 0 times",
        (None, None, "row 4 covers point 2 0 times",
         "column 3 covers point 0 0 times", "host edge (0, 1) is uncovered"),
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
