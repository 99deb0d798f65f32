"""Serialization: JSON wire format, grid text, LaTeX arrays."""

import enum
import json

import pytest

from omd.bases import build_2k, build_4k, build_m1k, six_point_square
from omd.compose import construct
from omd.core import Complete, DesignArray, canonical_block
from omd.errors import FormatError
from omd.formats import (
    design_from_dict,
    design_to_dict,
    dumps_design,
    host_from_dict,
    host_to_dict,
    loads_design,
    render_grid,
    render_latex,
)
from omd.room import build_room
from omd.verify import verify


def _samples():
    return [
        build_2k(3)[0],
        build_4k(2)[0],
        build_m1k(3),
        six_point_square(),
        build_room(8)[0],
    ]


@pytest.mark.parametrize("arr", _samples(), ids=lambda a: f"n{a.n}k{a.k}")
def test_round_trip_identity(arr):
    assert loads_design(dumps_design(arr)) == arr


def test_dumps_is_deterministic_and_sorted():
    cells = {(1, 1): canonical_block([(2, 3)]), (0, 0): canonical_block([(0, 1)])}
    arr = DesignArray(2, 4, 1, Complete(4), cells)
    text = dumps_design(arr)
    assert text == dumps_design(arr)
    data = json.loads(text)
    assert [(c["row"], c["col"]) for c in data["cells"]] == [(0, 0), (1, 1)]
    assert data["cells"][0]["edges"] == [[0, 1]]


def _writer_samples():
    mixed = {(0, 0): ((0, 1),), (0, 1): ((2, 3), (4, 5)), (1, 2): ((1, 4),)}
    return _samples() + [
        DesignArray(3, 4, 1, Complete(4), {}),
        construct(16, 2).design,
        build_room(122)[0],
        DesignArray(3, 6, 1, Complete(6), mixed),
        DesignArray(3, 6, 1, Complete(6), {**mixed, (2, 1): ()}),
    ]


# one value for each way the header writer lays a value out, and the same
# again one level deeper: empty values, int lists ([True, 1] prints true),
# int pairs and near-pairs, dicts in a list, a float, escaped strings
_EVERY_LAYOUT = {
    "list": [],
    "dict": {},
    "none": None,
    "ints": [1, 2],
    "bool-int": [True, 1],
    "pairs": [[0, 1], [2, 3]],
    "bool-pair": [[0, True]],
    "triple": [[1, 2, 3]],
    "dicts": [{"a": 1, "b": [2, 3]}, {}],
    "int-keys": {1: "a"},
    "float": 0.5,
    "text": ['"', "\\", "\x07", "\u00e9\u20ac", "a\tb"],
}


@pytest.mark.parametrize(
    "arr",
    _writer_samples(),
    ids=lambda a: f"n{a.n}k{a.k}c{len(a.cells)}",
)
@pytest.mark.parametrize(
    "meta",
    [None, {"t": [[0, 1]], "m": {}, "s": "\n"}, {**_EVERY_LAYOUT, "in": _EVERY_LAYOUT}],
)
def test_dumps_writes_the_indenting_encoders_bytes(arr, meta):
    reference = json.dumps(design_to_dict(arr, meta), indent=2) + "\n"
    assert dumps_design(arr, meta) == reference


def test_meta_is_carried_but_not_parsed():
    arr = build_m1k(2)
    text = dumps_design(arr, meta={"provenance": "test", "seed": 0})
    assert json.loads(text)["meta"]["provenance"] == "test"
    assert loads_design(text) == arr


@pytest.mark.parametrize("arr", _samples(), ids=lambda a: f"n{a.n}k{a.k}")
def test_host_round_trip(arr):
    assert host_from_dict(host_to_dict(arr.host)) == arr.host


def test_parse_rejects_non_json():
    with pytest.raises(FormatError):
        loads_design("not a design")


@pytest.mark.parametrize(
    "text",
    [b"\xff\xff{}", "[" * 200_000 + "]" * 200_000, '{"n": ' + "9" * 5000 + "}"],
    ids=["not-utf8", "nested-200000-deep", "int-past-digit-limit"],
)
def test_parse_turns_decoding_errors_into_format_errors(text):
    with pytest.raises(FormatError, match="not valid JSON"):
        loads_design(text)


def test_parse_rejects_non_object():
    with pytest.raises(FormatError):
        design_from_dict([1, 2, 3])


def test_parse_rejects_missing_fields():
    with pytest.raises(FormatError, match="missing field"):
        design_from_dict({"n": 4, "k": 1, "side": 3})


def test_parse_rejects_bool_as_int():
    data = design_to_dict(build_m1k(2))
    data["n"] = True
    with pytest.raises(FormatError):
        design_from_dict(data)


def test_parse_rejects_unknown_host():
    for host in [
        {"type": "moebius", "n": 5},
        {"type": "complete_bipartite", "a": 2, "b": 2},
        {"type": "lex_matching", "l": 1, "s": 4},
        {"type": "lex_matching_complete", "l": 1, "s": 4},
    ]:
        with pytest.raises(FormatError, match=f"unknown host type {host['type']!r}"):
            host_from_dict(host)
    with pytest.raises(FormatError, match="missing"):
        host_from_dict({"type": "complete"})
    with pytest.raises(FormatError):
        host_from_dict({"type": "complete_multipartite", "parts": []})
    with pytest.raises(FormatError, match="negative"):
        host_from_dict({"type": "complete", "n": -5})


def test_parse_rejects_cell_problems():
    base = design_to_dict(build_m1k(2))

    bad = json.loads(json.dumps(base))
    bad["cells"][0]["row"] = 9
    with pytest.raises(FormatError, match="outside"):
        design_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["cells"][1]["row"] = bad["cells"][0]["row"]
    bad["cells"][1]["col"] = bad["cells"][0]["col"]
    with pytest.raises(FormatError, match="twice"):
        design_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["cells"][0]["edges"] = [[0]]
    with pytest.raises(FormatError, match="malformed"):
        design_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["cells"][0]["edges"] = []
    with pytest.raises(FormatError, match="non-empty"):
        design_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["cells"] = "nope"
    with pytest.raises(FormatError, match="list"):
        design_from_dict(bad)


class _Label(enum.IntEnum):
    ZERO = 0


def _put(data, field, value):
    """Set the first cell's row or col, or the first point of its first edge."""
    cell = data["cells"][0]
    if field == "edge point":
        cell["edges"][0][0] = value
    else:
        cell[field.removeprefix("cell.")] = value


@pytest.mark.parametrize("field", ["cell.row", "cell.col", "edge point"])
@pytest.mark.parametrize("value", [True, 1.0, None], ids=repr)
def test_parse_rejects_non_integers_in_cells(field, value):
    data = design_to_dict(build_2k(2)[0])
    _put(data, field, value)
    with pytest.raises(FormatError) as info:
        design_from_dict(data)
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize("field", ["cell.row", "cell.col", "edge point"])
def test_parse_accepts_int_subclasses_in_cells(field):
    # the first cell is (0, 0) and its first edge (0, 3): ZERO stands for a 0
    arr = build_2k(2)[0]
    data = design_to_dict(arr)
    _put(data, field, _Label.ZERO)
    assert design_from_dict(data) == arr


def test_round_trip_identity_at_scale():
    arr = build_room(122)[0]
    assert loads_design(dumps_design(arr)) == arr


def test_cell_that_is_no_matching_parses_and_fails_verify():
    # a loop, a shared endpoint or a negative point is well-formed JSON;
    # whether a cell is a matching is for verify to say
    base = design_to_dict(build_m1k(2))
    cases = [
        ([[1, 1], [0, 2]], "repeats an endpoint"),
        ([[0, 2], [2, 1]], "repeats an endpoint"),
        ([[-1, 2], [1, 3]], "uses a point outside 0..3"),
    ]
    for edges, detail in cases:
        bad = json.loads(json.dumps(base))
        bad["cells"][0]["edges"] = edges
        report = verify(design_from_dict(bad))
        assert report.failure() == f"block-shape: cell (0, 0) {detail}"


def test_reversed_pairs_parse_to_canonical_edges():
    data = design_to_dict(build_m1k(2))
    assert data["cells"][0]["edges"] == [[0, 2], [1, 3]]
    data["cells"][0]["edges"] = [[3, 1], [2, 0]]
    arr = design_from_dict(data)
    assert arr.block_at(0, 0) == ((0, 2), (1, 3))
    assert arr == build_m1k(2)
    assert verify(arr).passed


def test_parse_rejects_bad_parameters():
    data = design_to_dict(build_m1k(2))
    data["k"] = 0
    with pytest.raises(FormatError, match="parameters"):
        design_from_dict(data)


def test_grid_render_frozen():
    arr, _, _ = build_2k(2)
    assert render_grid(arr) == (
        "0-3,1-2|.|.\n"
        ".|0-2,1-3|.\n"
        ".|.|0-1,2-3\n"
    )


def test_latex_render_frozen():
    arr, _, _ = build_2k(1)
    assert render_latex(arr) == (
        "\\begin{array}{|c|}\n"
        "\\hline\n"
        "0\\!-\\!1 \\\\\n"
        "\\hline\n"
        "\\end{array}\n"
    )


def test_latex_refuses_large_sides():
    big = DesignArray(16, 18, 1, Complete(18), {})
    with pytest.raises(ValueError, match="exceeds 15"):
        render_latex(big)


def test_latex_accepts_side_fifteen():
    arr = DesignArray(15, 16, 1, Complete(16), {})
    assert "\\begin{array}" in render_latex(arr)
