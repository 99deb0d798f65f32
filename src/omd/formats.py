"""Serialization: JSON interchange, plain-text grids, LaTeX arrays.

The JSON layout is a stable wire contract:

    {"n": .., "k": .., "side": .., "host": {"type": .., ..},
     "cells": [{"row": .., "col": .., "edges": [[u, v], ..]}, ..]}

The host is {"type": "complete", "n": ..}, K_n, and its n must equal the
design's n; any other host fails to parse. This module is the only one
that names the host: a DesignArray holds n alone.

A file is one line, laid out as json.dumps writes it with its default
separators. Cells are sorted by (row, col) and every edge is written as
[min, max], so serializing the same design always yields identical bytes.
The reader accepts any JSON whitespace, so a file spread over many lines
parses the same. An optional top-level "meta" object carries provenance
and certificates; parsing reads only its "transversal", a list of
[row, col] cells, and ignores a meta that is not an object. Parsing is
strict about structure (exit path for malformed files): types, cell
range, duplicate cells, edge shape. It appends each cell, its block in
canonical form, to the design's lists in file order, and finds a cell
read twice by a set of row * side + col ints. It leaves semantic
validity to the verifier, so a structurally fine file describing a
broken design, a cell that is not a matching included, parses and then
fails verification.

A well-formed text, its keys in any order, has its cells list read by a
scan while it can, then by JSON slices. The scan accepts each chunk of
about 16 KiB whose runs of digits, read as ints from one shared table,
re-lay in the first cell's layout to the chunk's exact text and give
cells inside the array, in strictly increasing (row, col), with
canonical blocks; it appends those ints itself. From the first refused
chunk on, the list is parsed about 4 KiB at a time, the scanned cells
counted as read, so the parsed JSON of the whole list is never alive at
once. Errors are worded as a whole-text parse words them: a header
error, then the first bad cell, once the rest of the text has parsed.
Any other input is parsed whole, and that parse words every error:
bytes, a syntax error, a NaN, the "cells" key written with escapes, or a
"cells" list nested in a value written before it.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress, cycle, islice, repeat
from operator import add, lt, mul
from typing import Any

from .core import Block, DesignArray, Transversal
from .errors import FormatError

GRID_EMPTY = "."


def _require_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def design_to_dict(arr: DesignArray, meta: dict | None = None) -> dict:
    arr = arr.row_major()
    cells = [
        {"row": r, "col": c, "edges": [[u, v] for u, v in block]}
        for r, c, block in zip(arr.rows, arr.cols, arr.blocks())
    ]
    return _design_dict(arr, cells, meta)


def _design_dict(arr: DesignArray, cells: list, meta: dict | None) -> dict:
    data = {
        "n": arr.n,
        "k": arr.k,
        "side": arr.side,
        "host": {"type": "complete", "n": arr.n},
        "cells": cells,
    }
    if meta is not None:
        data["meta"] = meta
    return data


def design_from_dict(data: Any) -> DesignArray:
    if not isinstance(data, dict):
        raise FormatError("design must be an object")
    for field in ("n", "k", "side", "host", "cells"):
        if field not in data:
            raise FormatError(f"design is missing field {field!r}")
    n = _require_int(data["n"], "n")
    k = _require_int(data["k"], "k")
    side = _require_int(data["side"], "side")
    if side < 0 or n < 2 or k < 1:
        raise FormatError(f"bad design parameters n={n}, k={k}, side={side}")
    host = data["host"]
    if not isinstance(host, dict):
        raise FormatError("host must be an object")
    if host.get("type") != "complete":
        raise FormatError(f"unknown host type {host.get('type')!r}")
    if "n" not in host:
        raise FormatError("host is missing field 'n'")
    if _require_int(host["n"], "host.n") != n:
        raise FormatError(f"host has {host['n']} points but the design says n={n}")
    raw_cells = data["cells"]
    if not isinstance(raw_cells, list):
        raise FormatError("cells must be a list")

    arr = DesignArray.of_arrays(side, n, k, [], [], [], [])
    _read_cells(raw_cells, arr, set())
    return arr


def _read_cells(entries: list, arr: DesignArray, seen: set[int]) -> None:
    """Check parsed cell entries against arr's side and append each one,
    its block in canonical form, to arr's lists; seen holds row * side +
    col of every cell read so far. FormatError names the first bad one."""
    side = arr.side
    rows, cols, sizes, points = arr.rows, arr.cols, arr.sizes, arr.points
    # exact ints skip _require_int, which keeps its verdict on all else
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("each cell must be an object")
        try:
            r = entry["row"]
            if type(r) is not int:
                r = _require_int(r, "cell.row")
            c = entry["col"]
            if type(c) is not int:
                c = _require_int(c, "cell.col")
            raw_edges = entry["edges"]
        except KeyError as exc:
            raise FormatError(f"cell is missing field {exc.args[0]!r}") from exc
        if not (0 <= r < side and 0 <= c < side):
            raise FormatError(f"cell ({r}, {c}) outside side-{side} array")
        key = r * side + c
        if key in seen:
            raise FormatError(f"cell ({r}, {c}) appears twice")
        seen.add(key)
        if not isinstance(raw_edges, list) or not raw_edges:
            raise FormatError(f"cell ({r}, {c}) must hold a non-empty edge list")
        edges = []
        for raw in raw_edges:
            if not isinstance(raw, list) or len(raw) != 2:
                raise FormatError(f"cell ({r}, {c}) has a malformed edge {raw!r}")
            u, v = raw
            if type(u) is not int or type(v) is not int:
                u, v = _require_int(u, "edge point"), _require_int(v, "edge point")
            edges.append((u, v) if u < v else (v, u))
        edges.sort()
        rows.append(r)
        cols.append(c)
        sizes.append(len(edges))
        points += sum(edges, ())


class _Texts(dict):
    """fmt % v for each int v: made for 0..size-1 at once, others on demand."""

    def __init__(self, fmt: str, size: int) -> None:
        super().__init__(zip(range(size), map(fmt.__mod__, range(size))))
        self.fmt = fmt

    def __missing__(self, value: int) -> str:
        return self.fmt % value


class _Ints(dict):
    """int(token) for each ASCII token, one object per value: made for
    0..size-1 at once, others in 0..bound-1 on demand; KeyError for an int
    outside, ValueError for a token that is no int."""

    def __init__(self, size: int, bound: int) -> None:
        super().__init__(zip(map(b"%d".__mod__, range(size)), range(size)))
        self.bound = bound

    def __missing__(self, token: bytes) -> int:
        value = int(token)
        if not 0 <= value < self.bound:
            raise KeyError(token)
        self[token] = value
        return value


def dumps_design(arr: DesignArray, meta: dict | None = None) -> str:
    """json.dumps(design_to_dict(arr, meta)) + "\\n", byte for byte: one line
    with the default separators, which loads_design reads back along with
    any other JSON whitespace. The header, host and meta go through
    json.dumps. When every cell holds k edges, k >= 1, the cells are one
    join, in (row, col) order, of a text per value that holds it and the
    layout up to the next value: '{"row": 7, "col": ', '12, "edges": [[',
    '3, ' and '40]]}, ' for a cell of one edge. Arrays not in that order
    are sorted into it first; others go through json.dumps whole."""
    arr = arr.row_major()
    n, k, side, step = arr.n, arr.k, arr.side, 2 * arr.k
    if k < 1 or arr.sizes.count(k) < len(arr.sizes):
        return json.dumps(design_to_dict(arr, meta)) + "\n"
    # host comes first and cannot hold this text, so it opens the cells
    head, key, tail = json.dumps(_design_dict(arr, [], meta)).partition('"cells": [')
    first, middle, last = (_Texts(f, n).__getitem__ for f in ("%d, ", "%d], [", "%d]]}, "))
    ends = [first, middle] * (k - 1) + [first, last]
    points = [map(end, islice(arr.points, j, None, step)) for j, end in enumerate(ends)]
    rows = map(_Texts('{"row": %d, "col": ', side).__getitem__, arr.rows)
    cols = map(_Texts('%d, "edges": [[', side).__getitem__, arr.cols)
    pieces = [head, key]
    pieces += chain.from_iterable(zip(rows, cols, *points))
    if len(pieces) > 2:  # no ", " after the last cell
        pieces[-1] = pieces[-1][:-2]
    pieces += (tail, "\n")
    return "".join(pieces)


def loads_design(text: str | bytes) -> tuple[DesignArray, Transversal | None]:
    """The design a JSON text holds, and the transversal its meta stores,
    or None when meta is not an object or has no "transversal" field.

    A str is first read by _read_sliced, which parses the top-level cells
    list a slice at a time and the rest of the text whole, and raises a
    header's or a cell's FormatError only once all of it has parsed. Bytes,
    and any str that _read_sliced finds irregular, are parsed whole, and
    that parse words every error; so a text gives the same result or the
    same FormatError either way."""
    read = _read_sliced(text) if isinstance(text, str) else None
    if read is not None:
        arr, meta = read
        return arr, _stored_transversal(meta)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, an int past the digit limit; RecursionError: deep nesting
        raise FormatError(f"not valid JSON: {exc}") from exc
    del text  # the text and, below, the parsed JSON go early to keep the peak low
    arr = design_from_dict(data)
    meta = data.get("meta")
    del data
    return arr, _stored_transversal(meta)


def _stored_transversal(meta: Any) -> Transversal | None:
    if not isinstance(meta, dict) or "transversal" not in meta:
        return None
    raw = meta["transversal"]
    if not isinstance(raw, list):
        raise FormatError("meta.transversal must be a list of cells")
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2 or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in entry
        ):
            raise FormatError(f"meta.transversal entry {entry!r} is not a cell")
    return tuple(map(tuple, raw))


# characters of cells text parsed at once. 4 KiB parses to about 300 dicts
# and lists, below the 700 allocations that start a young collection of the
# cyclic GC, so few slices are caught mid-parse and promoted to the old
# generation: reading the (2000, 2) file in a fresh process made 5 young
# collections and 1 middle one at 1, 4 and 8 KiB, and at 16 KiB 3,531, 321
# and 29 full ones, taking about 1.5 times as long. 8 KiB is at the edge:
# after a gc.collect(), a (320, 8) read made 1 young collection, 0 at 4 KiB.
_SLICE_CHARS = 4096
_CELLS = re.compile(r'"cells"[ \t\n\r]*:[ \t\n\r]*\[[ \t\n\r]*')
_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*")
_LIST_END = re.compile(r"\}[ \t\n\r]*\]")
# characters of cells text _scan re-lays at once. It makes a few lists a
# chunk, not a dict a cell, so the GC does not bound it as it bounds a
# slice: reading the 36 bench design files took 0.40 s at 4 KiB, 0.33 s at
# 16 KiB and 0.30 s at 128 KiB (2-vCPU host, Python 3.11.7)
_SCAN_CHARS = 16384
# each byte that may be part of a JSON int to itself, every other to a space
_DIGITS = bytes(c if chr(c) in "0123456789-" else 32 for c in range(256))
_NUMBER = re.compile(r"[0-9-]+")
# a cell whose keys are "row", "col" and "edges", in that order, whose
# edges are k >= 1 lists of two ints, and whose ints are non-negative and
# written as "%d" writes them; W is any JSON whitespace
_FIRST = re.compile(
    r'\{W"row"W:WNW,W"col"W:WNW,W"edges"W:W\[W\[WNW,WN(?:W\]W,W\[WNW,WN)*W\]W\]W\}'
    .replace("W", r"[ \t\n\r]*").replace("N", "(?:0|[1-9][0-9]*)")
)


def _read_sliced(text: str) -> tuple[DesignArray, Any] | None:
    """The design and the meta value of a regular text, or None.

    The first "cells" key whose value is a list has that list parsed in
    slices that each end just after a "}" followed by "," (or by "]", at
    the list's end). A slice that starts on an element boundary and parses
    as array content also ends on one, since the lexer sees the same
    characters as in the whole-text parse; so the slices' elements are
    exactly the list's. The rest of the text, with NaN in the list's place,
    is parsed whole. NaN, a token json accepts, has one spelling: when the
    rest holds it once and json keeps it as the top-level "cells", a
    whole-text parse keeps the sliced list. None means irregular: any
    other NaN, a list not kept, a slice that does not parse, bad JSON.
    design_from_dict checks the header and makes the empty array that
    _read_cells fills. The header's error, or else the first cell that
    _read_cells rejects, is kept and raised once the later slices have
    parsed."""
    found = _CELLS.search(text)
    if found is None:
        return None
    at = found.end()
    if text[at:at + 1] == "]":
        stop, end = at, at + 1
    else:
        last = _LIST_END.search(text, at)
        if last is None:
            return None
        stop, end = last.start() + 1, last.end()
    rest = text[:found.start()] + '"cells": NaN' + text[end:]
    if rest.count("NaN") != 1:
        return None
    try:
        data = json.loads(rest)
        hole = data.get("cells") if isinstance(data, dict) else None
        if type(hole) is not float or hole == hole:
            return None
        data["cells"] = []
        fault = None
        try:
            arr = design_from_dict(data)
        except FormatError as exc:
            fault = exc
        seen: set[int] = set()
        if fault is None:
            at = _scan(text, at, stop, arr)
            if at < stop:  # the slices read on from the first refused chunk
                seen.update(map(add, map(mul, arr.rows, repeat(arr.side)), arr.cols))
        while at < stop:
            cut = _CUT.search(text, at + _SLICE_CHARS, stop)
            to = stop if cut is None else cut.start() + 1
            entries = json.loads("[" + text[at:to] + "]")
            at = stop if cut is None else cut.end()
            if fault is None:
                try:
                    _read_cells(entries, arr, seen)
                except FormatError as exc:
                    fault = exc
    except (ValueError, RecursionError):
        return None
    if fault is not None:
        raise fault
    return arr, data.get("meta")


def _scan(text: str, at: int, stop: int, arr: DesignArray) -> int:
    """Append to arr's lists the cells of text[at:stop], a chunk of about
    _SCAN_CHARS at a time; return where the first refused chunk starts.

    The first cell, up to its "}", must be laid out as _FIRST matches.
    The text around its ints, and the separator after it, make a format
    for each value. A chunk is accepted when these formats re-lay its runs
    of digits and "-", as ints in 0..max(n, side)-1, to its own text, so
    JSON would read the same ints; when its cells lie in the array and
    strictly increase in (row, col), from the last one accepted on, so
    none is read twice; and when each block's edges are (min, max) with
    strictly increasing first ends, as _read_cells would append them. It
    parses no JSON and raises nothing: the slices word every error."""
    cut = _CUT.search(text, at, stop)
    to, sep = (stop, "") if cut is None else (cut.start() + 1, text[cut.start() + 1:cut.end()])
    if _FIRST.fullmatch(text, at, to) is None:
        return at
    pieces = _NUMBER.split(text[at:to] + sep)
    formats = [pieces[0] + "%d" + pieces[1]] + ["%d" + piece for piece in pieces[2:]]

    m, side = len(formats), arr.side
    k = m // 2 - 1
    bound = max(arr.n, side)
    # made at once only while far smaller than the text, whatever the header says
    size = min(bound, len(text) // (64 * m))
    ints = _Ints(size, bound)
    texts = {fmt: _Texts(fmt, size).__getitem__ for fmt in formats}
    lay = [texts[fmt] for fmt in formats]
    ends = (0, 0) + (1,) * (m - 2)
    rows, cols, sizes, points = arr.rows, arr.cols, arr.sizes, arr.points
    last = -1
    while at < stop:
        cut = _CUT.search(text, at + _SCAN_CHARS, stop)
        chunk = text[at:stop] + sep if cut is None else text[at:cut.end()]
        runs = chunk.encode("ascii", "replace").translate(_DIGITS).split()
        try:
            got = list(map(ints.__getitem__, runs))
        except (KeyError, ValueError):
            break
        by_place = [got[j::m] for j in range(m)]
        relaid = "".join(chain.from_iterable(zip(*map(map, lay, by_place))))
        if relaid != chunk:
            break
        r, c, us, vs = by_place[0], by_place[1], by_place[2::2], by_place[3::2]
        keys = list(map(add, map(mul, r, repeat(side)), c))
        if (
            max(r) >= side or max(c) >= side or keys[0] <= last
            or not all(map(lt, keys, keys[1:]))
            or not all(all(map(lt, u, v)) for u, v in zip(us, vs))
            # a block with two equal first ends is left to the slices, which sort it
            or not all(all(map(lt, u, w)) for u, w in zip(us, us[1:]))
        ):
            break
        rows += r
        cols += c
        sizes += repeat(k, len(r))
        points += compress(got, cycle(ends))
        last = keys[-1]
        at = stop if cut is None else cut.end()
    return at


def _cell_text(block: Block | None) -> str:
    if block is None:
        return GRID_EMPTY
    return ",".join(f"{u}-{v}" for u, v in block)


def render_grid(arr: DesignArray) -> str:
    """One line per row, cells separated by '|', empty cells as '.'."""
    cells, lines = arr.cells, []
    for r in range(arr.side):
        lines.append("|".join(_cell_text(cells.get((r, c))) for c in range(arr.side)))
    return "\n".join(lines) + "\n"


LATEX_MAX_SIDE = 15


def render_latex(arr: DesignArray) -> str:
    """LaTeX array with one edge list per cell; refuses side > 15."""
    if arr.side > LATEX_MAX_SIDE:
        raise ValueError(
            f"side {arr.side} exceeds {LATEX_MAX_SIDE}; LaTeX output is for small arrays"
        )
    blocks = arr.cells
    header = "|" + "c|" * max(arr.side, 1)
    lines = [f"\\begin{{array}}{{{header}}}", "\\hline"]
    for r in range(arr.side):
        cells = []
        for c in range(arr.side):
            block = blocks.get((r, c))
            if block is None:
                cells.append("")
            else:
                cells.append(",\\,".join(f"{u}\\!-\\!{v}" for u, v in block))
        lines.append(" & ".join(cells) + " \\\\")
        lines.append("\\hline")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"
