"""Serialization: JSON wire format, grid text, LaTeX arrays."""

import enum
import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from omd.bases import _SIX_PATTERN, build_2k, build_4k, build_6k
from omd.cli import main
from omd.compose import _expand, construct
from omd.core import DesignArray, canonical_block
from omd import formats
from omd.errors import FormatError
from omd.formats import (
    design_from_dict,
    design_to_dict,
    dumps_design,
    loads_design,
    render_grid,
    render_latex,
)
from omd.room import build_room
from omd.verify import verify


def _samples():
    # besides designs, two partial arrays on K_6: the product's cell
    # ingredient for s = 3 (one outer edge off the transversal) and the
    # 4 x 4 one-edge pattern build_6k expands
    edge = DesignArray(1, 2, 1, {(0, 0): canonical_block([(0, 1)])})
    pattern = {(r, c): ((u, v),) for r, c, u, v in _SIX_PATTERN}
    return [
        build_2k(3)[0],
        build_4k(2)[0],
        _expand(edge, (), 3)[0],
        DesignArray(4, 6, 1, pattern),
        build_6k(2)[0],
        construct(24, 3).design,
        build_room(8)[0],
    ]


@pytest.mark.parametrize("arr", _samples(), ids=lambda a: f"n{a.n}k{a.k}")
def test_round_trip_identity(arr):
    assert loads_design(dumps_design(arr))[0] == arr


def test_dumps_is_deterministic_and_sorted():
    cells = {(1, 1): canonical_block([(2, 3)]), (0, 0): canonical_block([(0, 1)])}
    arr = DesignArray(2, 4, 1, cells)
    text = dumps_design(arr)
    assert text == dumps_design(arr)
    data = json.loads(text)
    assert [(c["row"], c["col"]) for c in data["cells"]] == [(0, 0), (1, 1)]
    assert data["cells"][0]["edges"] == [[0, 1]]


def _writer_samples():
    mixed = {(0, 0): ((0, 1),), (0, 1): ((2, 3), (4, 5)), (1, 2): ((1, 4),)}
    return _samples() + [
        DesignArray(3, 4, 1, {}),
        construct(16, 2).design,
        build_room(122)[0],
        DesignArray(3, 6, 1, mixed),
        DesignArray(3, 6, 1, {**mixed, (2, 1): ()}),
        # cells out of (row, col) order; values past 0..n-1 on either side
        DesignArray(3, 4, 1, {(2, 0): ((0, 3),), (0, 1): ((1, 2),), (1, 2): ((0, 1),)}),
        DesignArray(3, 4, 1, {(0, 0): ((0, 10**12),)}),
        DesignArray(3, 4, 1, {(0, 2): ((-3, 1),), (1, 0): ((2, 3),)}),
    ]


# meta values of every JSON kind, and the same again one level deeper:
# empty values, int lists ([True, 1] prints true), int pairs and
# near-pairs, dicts in a list, int keys, a float, escaped strings, and the
# text the writer splits its header at, as a string and as a key
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
    "splice": '"cells": []',
    "cells": [],
}


def _every_writer_case(test):
    test = pytest.mark.parametrize(
        "meta",
        [None, {"t": [[0, 1]], "m": {}, "s": "\n"}, {**_EVERY_LAYOUT, "in": _EVERY_LAYOUT}],
    )(test)
    return pytest.mark.parametrize(
        "arr", _writer_samples(), ids=lambda a: f"n{a.n}k{a.k}c{len(a.cells)}"
    )(test)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _first_difference(got, want):
    """The first offset where the texts differ and about 80 characters of
    each around it; the tests below compare digests and print this, as
    diffing two large texts on failure takes minutes."""
    pairs = enumerate(zip(got, want))
    at = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
    lo = max(at - 40, 0)
    return (
        f"texts differ first at offset {at} (lengths {len(got)}, {len(want)}): "
        f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}"
    )


@_every_writer_case
def test_dumps_writes_the_encoders_bytes(arr, meta):
    reference = json.dumps(design_to_dict(arr, meta)) + "\n"
    text = dumps_design(arr, meta)
    assert _sha256(text) == _sha256(reference), _first_difference(text, reference)


@_every_writer_case
def test_dumps_writes_the_indenting_encoders_bytes(arr, meta):
    # the content is what the indenting encoder wrote: files of either
    # layout re-indent to the same bytes
    reindented = json.dumps(json.loads(dumps_design(arr, meta)), indent=2) + "\n"
    reference = json.dumps(design_to_dict(arr, meta), indent=2) + "\n"
    assert _sha256(reindented) == _sha256(reference), _first_difference(
        reindented, reference
    )


def test_meta_is_carried_but_not_parsed():
    arr = build_2k(2)[0]
    text = dumps_design(arr, meta={"provenance": "test", "seed": 0})
    assert json.loads(text)["meta"]["provenance"] == "test"
    assert loads_design(text)[0] == arr


def test_parse_returns_the_stored_transversal():
    arr, transversal, _ = build_2k(2)
    data = design_to_dict(arr, {"transversal": [list(c) for c in transversal]})
    assert loads_design(json.dumps(data)) == (arr, transversal)
    data["meta"] = {"provenance": "test"}
    assert loads_design(json.dumps(data)) == (arr, None)
    data["meta"] = [1]
    assert loads_design(json.dumps(data)) == (arr, None)


@pytest.mark.parametrize("arr", _samples(), ids=lambda a: f"n{a.n}k{a.k}")
def test_host_round_trip(arr):
    # the host is K_n, on the wire only: written from n, read back as n
    data = design_to_dict(arr)
    assert data["host"] == {"type": "complete", "n": arr.n}
    assert design_from_dict(data).n == arr.n


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
    data = design_to_dict(build_2k(2)[0])
    data["n"] = True
    with pytest.raises(FormatError):
        design_from_dict(data)


def test_parse_rejects_unknown_host():
    data = design_to_dict(build_2k(2)[0])
    for host in [
        {"type": "moebius", "n": 5},
        {"type": "complete_bipartite", "a": 2, "b": 2},
        {"type": "lex_matching", "l": 1, "s": 4},
        {"type": "lex_matching_complete", "l": 1, "s": 4},
        {"type": "complete_multipartite", "parts": [2, 2]},
    ]:
        with pytest.raises(FormatError, match=f"unknown host type {host['type']!r}"):
            design_from_dict({**data, "host": host})
    with pytest.raises(FormatError, match="missing"):
        design_from_dict({**data, "host": {"type": "complete"}})
    for n in (-5, 6):
        with pytest.raises(FormatError, match=f"host has {n} points but the design says n=4"):
            design_from_dict({**data, "host": {"type": "complete", "n": n}})


def test_parse_rejects_cell_problems():
    base = design_to_dict(build_2k(2)[0])

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
    assert loads_design(dumps_design(arr))[0] == arr


def _read_whole(text):
    """The reference reader: the whole text through json.loads and
    design_from_dict, then the stored transversal, if any, as a cell tuple."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    arr = design_from_dict(data)
    meta = data.get("meta")
    if not isinstance(meta, dict) or "transversal" not in meta:
        return arr, None
    raw = meta["transversal"]
    if not isinstance(raw, list):
        raise FormatError("meta.transversal must be a list of cells")
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2 or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in entry
        ):
            raise FormatError(f"meta.transversal entry {entry!r} is not a cell")
    return arr, tuple(map(tuple, raw))


def _outcome(read, text):
    try:
        return read(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


def _differential_corpus():
    """Design texts in three layouts, then truncations, seeded one-character
    edits and a few hand-made irregular texts derived from them."""
    product = construct(24, 3)
    designs = [
        build_2k(3)[:2],
        build_4k(2),
        build_room(8),
        (product.design, product.transversal),
        (DesignArray(3, 4, 1, {}), ()),
    ]
    bases = []
    for arr, transversal in designs:
        meta = {"provenance": "test", "transversal": [list(c) for c in transversal]}
        text = dumps_design(arr, meta)
        data = json.loads(text)
        bases += [
            text,
            json.dumps(data, indent=2),
            json.dumps(data, separators=(",", ":")),
            json.dumps(data, indent="\t").replace("\n", "\r\n"),
        ]
    rng = random.Random(22)
    alphabet = '{}[],:" \n0123456789-abcnrow'
    corpus = list(bases)
    for text in bases:
        corpus += [text[:i] for i in range(0, len(text), max(len(text) // 40, 1))]
        for _ in range(60):
            i = rng.randrange(len(text))
            ch = rng.choice(alphabet)
            corpus.append(rng.choice([
                text[:i] + ch + text[i + 1:],
                text[:i] + ch + text[i:],
                text[:i] + text[i + 1:],
            ]))
    text = bases[0]
    head, cells = text.split(', "cells": ', 1)
    cells_list = cells[:cells.index("]]}]") + 4]
    first = cells_list[1:cells_list.index("]]}") + 3]
    outside = '{"row": 5000, "col": 0, "edges": [[0, 1]]}'
    corpus += [
        text.replace('"cells": ', '"cells": [], "cells": ', 1),
        text.replace('"side": ', '"side": 9, "side": ', 1),
        text.rstrip()[:-1] + ', "side": 2}',
        '{"cells": ' + cells_list + ", " + head[1:] + "}",
        "\ufeff" + text,
        text.encode(),
        text + "x",
        text.replace('"side": 5', '"side": -1', 1),
        text.replace('"side": 5', '"side": "5"', 1),
        text.replace('"side": 5', '"side": null', 1),
        text.replace('"n": 6', '"n": 1', 1),
        text.replace('"type": "complete"', '"type": "lex_matching"', 1),
        text.replace('"transversal": [', '"transversal": [true, ', 1),
        # a "cells" list before the design's own, in meta or in host
        head + ', "meta": {"cells": [{"row": 0}], "transversal": []}, "cells": ' + cells_list + "}",
        head + ', "meta": {"cells": [1, 2]}, "cells": ' + cells_list + "}",
        text.replace('"type": ', '"cells": [{"row": 0, "col": 0, "edges": [[0, 1]]}], "type": ', 1),
        text.replace('"provenance": "test"', '"provenance": NaN', 1),
        text.replace('"provenance": "test"', '"provenance": "NaN"', 1),
        text.replace('"row": 2', '"row": NaN', 1),
        text.replace('"cells"', '"c\\u0065lls"', 1),
        "[" + text + "]",
        text.replace('"cells": ', '"cells": 5, "cells": ', 1),
        text.rstrip()[:-1] + ', "cells": []}',
        text.replace('"row": 2,', '"x": "},]", "row": 2,', 1),
        text.replace('"row": 2,', '"x": "}]", "row": 2,', 1),
        text.replace('"row": 2,', '"x": {"a": [{}]}, "row": 2,', 1),
        bases[-3].replace('"provenance": "test"', '"provenance": [{"a": 1}]', 1),
        # a bad cell: the last, one before a syntax error, one with a bad header
        text.replace('"row": 4', '"row": 5000', 1),
        text.replace('"row": 1', '"row": 5000', 1).replace('"col": 4', '"col" 4', 1),
        text.replace('"row": 2', '"row": 5000', 1).replace('"n": 6', '"n": 1', 1),
        # a cell twice: right after itself, as the last cell, and before a
        # cell outside the array, whose error must not win
        text.replace(first, first + ", " + first, 1),
        text.replace(cells_list, cells_list[:-1] + ", " + first + "]", 1),
        text.replace(cells_list, "[" + first + ", " + cells_list[1:-1] + ", " + outside + "]", 1),
    ]
    corpus += _layout_texts(bases[0], bases[4])
    return bases, corpus


def _layout_texts(text, pairs_text):
    """Texts that the cells scan must refuse, at the first cell or at a
    later one, each read alike either way: from the one-line text of a
    design with one edge a cell, and of one with two."""
    cells = json.loads(text)["cells"]
    second = json.dumps(cells[1])
    texts = [
        text.replace('{"row": ', '{"row":  ', 1),  # the first cell laid out unlike the rest
        text.replace(second, second.replace(", ", ",  ", 1), 1),
        text.replace(second, second.replace(", ", ",\n", 1), 1),
        text.replace(second, second.replace("}", "\n}", 1), 1),
        text.replace(second, second + ",\t", 1),
        text.replace(second, "{}", 1),
        text.replace('"cells": [', '"cells": [{}, ', 1),
        text.replace(second, second + ", {}", 1),
        text.replace(second, second.replace('{"row": ', '{"row": 2, "row": ', 1), 1),
        text.replace(second, second.replace('"edges"', '"x": 0, "edges"', 1), 1),
        text.replace('{"row": ', '{"x": 0, "row": ', 1),
        text.replace(second, second.replace('"row"', '"col"', 1), 1),
        text.replace(second, second.replace('"row": ', '"row": "row", "x": ', 1), 1),
        # ints json reads alike in another spelling, and texts it refuses
        text.replace('"row": 0', '"row": -0', 1),
        text.replace(second, second.replace('"col": ', '"col": -0', 1), 1),
        text.replace(second, second.replace('"col": ', '"col": 00', 1), 1),
        text.replace(second, second.replace('"col": ', '"col": 007', 1), 1),
        text.replace(second, second.replace("]]", ".0]]", 1), 1),
        text.replace(second, second.replace("]]", "e0]]", 1), 1),
        text.replace(second, second.replace("]]", "1e2]]", 1), 1),
        text.replace(second, second.replace("[[", "[[-", 1), 1),
        text.replace(second, second.replace("[[", "[[1-", 1), 1),
        text.replace(second, second.replace("[[", '[["row", ', 1), 1),
        text.replace(second, second.replace("[[", "[[" + "9" * 40, 1), 1),
        text.replace(second, second.replace("[[", "[[\u0031", 1), 1),
    ]
    # cells out of order, twice, or past the array; edges as [v, u] or out of
    # order; mixed edge counts
    changes = [
        lambda cells, side: cells.insert(2, cells.pop(1)),
        lambda cells, side: cells.insert(2, cells[1]),
        lambda cells, side: cells.append(cells[-1]),
        lambda cells, side: cells.append({**cells[-1], "col": side - 1}),
        lambda cells, side: cells[1].update(row=side),
        lambda cells, side: cells[-1].update(col=side),
        lambda cells, side: next(c for c in cells if c["row"] == 1).update(col=-1),
        lambda cells, side: cells[1]["edges"][0].reverse(),
        lambda cells, side: cells[0]["edges"][-1].reverse(),
        lambda cells, side: cells[1]["edges"].reverse(),
        lambda cells, side: cells[1]["edges"].append(cells[1]["edges"][-1]),
        lambda cells, side: cells[1]["edges"].append([0, 1]),
        lambda cells, side: cells[1]["edges"].pop(),
    ]
    for data_text in (text, pairs_text):
        for change in changes:
            data = json.loads(data_text)
            change(data["cells"], data["side"])
            texts += [json.dumps(data), json.dumps(data, indent=2)]
    return texts


def test_sliced_read_matches_the_whole_text_read(monkeypatch):
    # one-character slices cut the cells list at every cell boundary
    monkeypatch.setattr(formats, "_SLICE_CHARS", 1)
    bases, corpus = _differential_corpus()
    assert all(formats._read_sliced(text) is not None for text in bases)
    sliced = 0
    for text in corpus:
        assert _outcome(loads_design, text) == _outcome(_read_whole, text), text
        sliced += isinstance(text, str) and _outcome(formats._read_sliced, text) is not None
    assert sliced > len(bases)


def test_the_scan_hands_over_to_the_slices_at_any_cell(monkeypatch):
    # one-cell chunks: the scan reads every cell before the first it refuses
    monkeypatch.setattr(formats, "_SLICE_CHARS", 1)
    monkeypatch.setattr(formats, "_SCAN_CHARS", 1)
    read_cells, scanned = formats._read_cells, []

    def counting(entries, arr, seen):
        if entries:  # not the header's empty list
            scanned.append(len(seen))
        return read_cells(entries, arr, seen)

    _, corpus = _differential_corpus()
    handed_over = 0
    for text in corpus:
        whole = _outcome(_read_whole, text)
        monkeypatch.setattr(formats, "_read_cells", counting)
        scanned.clear()
        assert _outcome(loads_design, text) == whole, text
        monkeypatch.setattr(formats, "_read_cells", read_cells)
        handed_over += bool(scanned and scanned[0])
    assert handed_over > 100, handed_over


@pytest.mark.parametrize("n, k", [(122, 1), (320, 4)])
def test_the_scan_reads_every_cell_of_writer_and_indent_2_texts(monkeypatch, n, k):
    arr = construct(n, k).design
    text = dumps_design(arr)
    fed = []
    monkeypatch.setattr(formats, "_read_cells", lambda entries, arr, seen: fed.extend(entries))
    for text in (text, json.dumps(json.loads(text), indent=2)):
        assert loads_design(text)[0] == arr
    assert fed == []


@pytest.mark.parametrize("scan_chars", [1, formats._SCAN_CHARS])
def test_a_bad_last_cell_reaches_the_slices_alone(monkeypatch, scan_chars):
    # the scan refuses the last chunk alone, so the slices parse only its cells
    text = dumps_design(build_room(122)[0])
    head, _, tail = text.rpartition('"row": ')
    text = head + '"row": 5000' + tail[tail.index(","):]
    with pytest.raises(FormatError) as whole:
        _read_whole(text)
    read_cells, fed = formats._read_cells, []

    def counting(entries, arr, seen):
        fed.extend(entries)
        return read_cells(entries, arr, seen)

    monkeypatch.setattr(formats, "_SCAN_CHARS", scan_chars)
    monkeypatch.setattr(formats, "_read_cells", counting)
    with pytest.raises(FormatError) as sliced:
        loads_design(text)
    assert str(sliced.value) == str(whole.value)
    assert fed[-1]["row"] == 5000
    # a one-line cell of this design takes at least 38 characters
    assert len(fed) <= scan_chars // 38 + 1, len(fed)


@pytest.mark.parametrize(
    "value, place, failed, digest",
    [
        (
            10**30, 1,
            [
                "[FAIL] block-shape (cell (60, 64) uses a point outside 0..121)",
                "[FAIL] row-resolution (row 60 covers point 105 0 times)",
                "[FAIL] column-resolution (column 64 covers point 105 0 times)",
                "[FAIL] pair-coverage (pair (19, 1000000000000000000000000000000)"
                " is not a host edge)",
            ],
            "1c0448db39847bfa1e87c1a81181cdce576dcd64c5bd9f1feb0f6f0a83281cc0",
        ),
        (
            -1, 0,
            [
                "[FAIL] block-shape (cell (60, 64) uses a point outside 0..121)",
                "[FAIL] row-resolution (row 60 covers point 19 0 times)",
                "[FAIL] column-resolution (column 64 covers point 19 0 times)",
                "[FAIL] pair-coverage (pair (-1, 105) is not a host edge)",
            ],
            "5c330f0c51face4d7565e9c6a92b475f5c1a788179d381af36114c061e76b191",
        ),
    ],
    ids=["10^30", "-1"],
)
def test_a_point_no_int_table_holds_keeps_its_report(tmp_path, capsys, value, place, failed, digest):
    # the middle cell of a writer-laid side-121 file; the report was recorded
    # when every cell went through json slices
    data = json.loads(dumps_design(build_room(122)[0]))
    data["cells"][len(data["cells"]) // 2]["edges"][0][place] = value
    path = tmp_path / "design.json"
    path.write_text(json.dumps(data) + "\n")
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == failed
    assert _sha256(out) == digest


def test_sliced_read_names_a_bad_last_cell():
    # the sliced read words the cell's error itself, with no second parse
    text = dumps_design(build_room(8)[0])
    head, _, tail = text.rpartition('"row": ')
    text = head + '"row": 5000' + tail[tail.index(","):]
    with pytest.raises(FormatError) as whole:
        _read_whole(text)
    with pytest.raises(FormatError) as sliced:
        formats._read_sliced(text)
    assert str(sliced.value) == str(whole.value)
    assert str(sliced.value).startswith("cell (5000, ")


def test_sliced_read_never_holds_the_whole_parsed_json():
    res = construct(320, 4)
    text = dumps_design(res.design, {"transversal": [list(c) for c in res.transversal]})
    head, cells = text.split(', "cells": ', 1)
    cells_list = cells[:cells.index("]]}]") + 4]
    # the writer's layout, cells first, and a repeated top-level key
    texts = [
        text,
        '{"cells": ' + cells_list + ", " + head[1:] + cells[len(cells_list):],
        text.replace('"side": ', '"side": 0, "side": ', 1),
    ]

    def peak(read, text):
        tracemalloc.start()
        try:
            read(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for text in texts:
        assert formats._read_sliced(text)[0] == res.design
        assert peak(loads_design, text) <= peak(_read_whole, text) / 2

    # the writer's layout reads back into the builder's lists, and reading
    # holds little beyond what the design keeps
    tracemalloc.start()
    try:
        arr = loads_design(texts[0])[0]
        kept, most = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    built = res.design
    assert (arr.rows, arr.cols, arr.sizes, arr.points) == (
        built.rows, built.cols, built.sizes, built.points
    )
    assert most <= 1.75 * kept, (most, kept)


@pytest.mark.parametrize("k", [4, 8])
def test_a_slice_parses_below_a_young_collection(k):
    """Each slice's dicts and lists are freed before the next is parsed, so
    a read whose slices stay below the GC's young threshold leaves nothing
    to promote: at most 2 young collections and no older one."""
    text = dumps_design(construct(320, k).design)
    gc.collect()
    before = [stats["collections"] for stats in gc.get_stats()]
    loads_design(text)
    young, *older = (s["collections"] - b for s, b in zip(gc.get_stats(), before))
    assert young <= 2 and not any(older), (young, older)


def test_cell_that_is_no_matching_parses_and_fails_verify():
    # a loop, a shared endpoint or a negative point is well-formed JSON;
    # whether a cell is a matching is for verify to say
    base = design_to_dict(build_2k(2)[0])
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
    data = design_to_dict(build_2k(2)[0])
    assert data["cells"][0]["edges"] == [[0, 3], [1, 2]]
    data["cells"][0]["edges"] = [[2, 1], [3, 0]]
    arr = design_from_dict(data)
    assert arr.block_at(0, 0) == ((0, 3), (1, 2))
    assert arr == build_2k(2)[0]
    assert verify(arr).passed


def test_parse_rejects_bad_parameters():
    data = design_to_dict(build_2k(2)[0])
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
    big = DesignArray(16, 18, 1, {})
    with pytest.raises(ValueError, match="exceeds 15"):
        render_latex(big)


def test_latex_accepts_side_fifteen():
    arr = DesignArray(15, 16, 1, {})
    assert "\\begin{array}" in render_latex(arr)
