"""Properties of construct outputs under relabelling and serialisation.

A design stays a design when its rows, its columns or its points (on a
complete host) are permuted, stops being one when two cells with
different point sets swap blocks, and the JSON format carries every cell
through a round trip. Each construction path contributes one case.
"""

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from omd.compose import construct  # noqa: E402
from omd.core import DesignArray, canonical_block  # noqa: E402
from omd.formats import dumps_design, loads_design  # noqa: E402
from omd.verify import verify  # noqa: E402

# one (n, k) per construction path: room, order 10's fixed square,
# diagonal, quad-split, hex-split, and two products
CASES = [(8, 1), (10, 1), (4, 2), (8, 2), (12, 2), (16, 2), (24, 3)]

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def _design(n: int, k: int) -> DesignArray:
    return construct(n, k).design


@st.composite
def relabelled(draw):
    """A construct output with rows, columns and points permuted."""
    n, k = draw(st.sampled_from(CASES))
    arr = _design(n, k)
    rows = draw(st.permutations(range(arr.side)))
    cols = draw(st.permutations(range(arr.side)))
    points = draw(st.permutations(range(arr.n)))
    cells = {
        (rows[r], cols[c]): canonical_block((points[u], points[v]) for u, v in block)
        for (r, c), block in arr.cells.items()
    }
    return arr, DesignArray(arr.side, arr.n, arr.k, cells)


@PROPERTY
@given(relabelled())
def test_relabelling_keeps_a_design_valid(pair):
    original, moved = pair
    report = verify(moved)
    assert report.passed, report.failure()
    assert report.total_blocks == verify(original).total_blocks


def _points(block) -> tuple[int, ...]:
    return tuple(sorted(p for edge in block for p in edge))


@st.composite
def support_swapped(draw):
    """A construct output with the blocks of two cells of different points swapped.

    Every block of (4, 2) covers all four points, so it has no such swap.
    """
    n, k = draw(
        st.sampled_from(CASES).filter(
            lambda case: len({_points(b) for b in _design(*case).cells.values()}) > 1
        )
    )
    arr = _design(n, k)
    occupied = sorted(arr.cells)
    a = draw(st.sampled_from(occupied))
    others = [c for c in occupied if _points(arr.cells[c]) != _points(arr.cells[a])]
    b = draw(st.sampled_from(others))
    cells = dict(arr.cells)
    cells[a], cells[b] = cells[b], cells[a]
    return a, b, DesignArray(arr.side, arr.n, arr.k, cells)


@PROPERTY
@given(support_swapped())
def test_swap_changing_support_is_rejected(swap):
    a, b, arr = swap
    report = verify(arr)
    assert not report.passed, f"swapping cells {a} and {b} kept a valid design"


@PROPERTY
@given(relabelled())
def test_json_round_trip_keeps_every_cell(pair):
    original, moved = pair
    for arr in (original, moved):
        back = loads_design(dumps_design(arr))[0]
        assert back.cells == arr.cells
        assert (back.side, back.n, back.k) == (arr.side, arr.n, arr.k)
