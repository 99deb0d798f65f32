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
canonical form, to a draft's lists in file order; with the parse freed,
of_arrays puts the lists in (row, col) order and finds a cell given
twice, so a repeat is reported only when no cell has another fault, and
of several repeats the smallest (row, col). It leaves semantic validity
to the verifier, so a structurally fine file describing a broken design,
a cell that is not a matching included, parses and then fails
verification.

A well-formed text, its keys in any order, has its cells list read by a
scan while it can, then by JSON slices, in 64 KiB pieces sliced from a
str or read from a file, which is never held whole. The scan accepts
each chunk whose runs of digits, read as ints from one shared table,
re-lay in the first cell's layout to the chunk's exact text and give
cells inside the array, in any order, with canonical blocks; it appends
those ints itself. From the first refused chunk on, the list is parsed
about 4 KiB at a time, so the parsed JSON of the whole list is never
alive at once. Errors are worded as a whole-text parse words them: a header
error, then the first bad cell, once the rest of the text has parsed.
Any other input is parsed whole, and that parse words every error:
bytes, a syntax error, a NaN, the "cells" key written with escapes, or a
"cells" list nested in a value written before it.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress, cycle, islice, repeat
from operator import lt
from types import SimpleNamespace
from typing import Any, Iterator, TextIO

from .core import Block, DesignArray, Transversal
from .errors import FormatError

GRID_EMPTY = "."


def _require_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def design_to_dict(arr: DesignArray, meta: dict | None = None) -> dict:
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
    return _design_of(_read_design(data))


def _design_of(draft: SimpleNamespace) -> DesignArray:
    """The array of a read draft; of_arrays finds a cell given twice."""
    try:
        return DesignArray.of_arrays(**vars(draft))
    except ValueError as exc:
        r, c = exc.args[1]
        raise FormatError(f"cell ({r}, {c}) appears twice") from exc


def _read_design(data: Any) -> SimpleNamespace:
    """A draft of of_arrays' arguments: the side, n and k of a parsed
    design, checked, and its cells read by _read_cells into rows, cols,
    sizes and points, in file order."""
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

    draft = SimpleNamespace(side=side, n=n, k=k, rows=[], cols=[], sizes=[], points=[])
    _read_cells(raw_cells, draft)
    return draft


def _read_cells(entries: list, draft: SimpleNamespace) -> None:
    """Check parsed cell entries against the draft's side and append each
    one, its block in canonical form, to the draft's lists, in any order
    and repeats included. FormatError names the first bad one."""
    side = draft.side
    rows, cols, sizes, points = draft.rows, draft.cols, draft.sizes, draft.points
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
    '3, ' and '40]]}, ' for a cell of one edge. Others go through
    json.dumps whole."""
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
    same FormatError either way. Either way of_arrays orders the cells,
    and finds one given twice, once the parse is freed."""
    read = _read_sliced(text) if isinstance(text, str) else None
    if read is not None:
        return read
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, an int past the digit limit; RecursionError: deep nesting
        raise FormatError(f"not valid JSON: {exc}") from exc
    del text  # the text and, below, the parsed JSON go early to keep the peak low
    draft = _read_design(data)
    meta = data.get("meta")
    del data
    return _design_of(draft), _stored_transversal(meta)


def load_design(fh: TextIO) -> tuple[DesignArray, Transversal | None]:
    """loads_design(fh.read()): a seekable file is read in pieces by
    _read_sliced; a pipe, or a file it finds irregular, is parsed whole."""
    if fh.seekable():
        read = _read_sliced(fh)
        if read is not None:
            return read
        fh.seek(0)
    return loads_design(fh.read())


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


# characters of cells text parsed at once, from the first chunk the scan
# refuses: the writer's layout never gets here, but keys in another order
# or an edge written [max, min] do from the first cell. 4 KiB parses to
# about 300 dicts and lists, below the 700 allocations that start a young
# collection of the cyclic GC, so few slices are caught mid-parse and
# promoted to the old generation: after a gc.collect(), reading the
# (320, 4) design dumped with sorted keys made 1 young collection at 4 KiB,
# and 60 young and 5 middle ones at 16 KiB; it peaked at 0.20 of a
# whole-text parse's tracemalloc peak, and 1.00 as one slice (Python 3.11.7).
_SLICE_CHARS = 4096
_CELLS = re.compile(r'"cells"[ \t\n\r]*:[ \t\n\r]*\[[ \t\n\r]*')
_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*")
_LIST_END = re.compile(r"\}[ \t\n\r]*\]")
# characters of text read, and of cells _scan re-lays, at once. _scan makes
# a few lists a chunk, not a dict a cell, so the GC does not bound it as it
# bounds a slice: reading the 36 bench design files from their files took
# 460 ms at 4 KiB, 356 ms at 16 KiB, 325 ms at 64 KiB and 325 ms at 128 KiB
# (best of 7, 2-vCPU host, Python 3.11.7)
_SCAN_CHARS = 65536
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


def _read_sliced(source: str | TextIO) -> tuple[DesignArray, Transversal | None] | None:
    """The design and stored transversal of a regular text, a str or a
    seekable text file read as _pieces, or None.

    A first pass keeps the text around the first "cells" key whose value
    is a list (a key or end split by a piece is found within 64 characters).
    A second goes back to the list and parses it in slices that each end
    just after a "}" followed by "," (or by "]", at the list's end). A
    slice that starts on an element boundary and parses as array content
    also ends on one, since the lexer sees the same characters as in the
    whole-text parse; so the slices' elements are exactly the list's. The
    rest of the text, with NaN in the list's place, is parsed whole. NaN,
    a token json accepts, has one spelling: when the rest holds it once
    and json keeps it as the top-level "cells", a whole-text parse keeps
    the sliced list. None means irregular: any other NaN, a list not kept,
    a slice that does not parse, bad JSON or UTF-8. _read_design checks
    the header and makes the empty draft that _scan and _read_cells fill.
    The header's error, or else the first cell that _read_cells rejects,
    is kept and raised once the later slices have parsed."""
    try:
        pieces, head, marks, found = _pieces(source, 0), "", [], None
        for mark, piece in pieces:
            marks.append((len(head), mark))
            head += piece
            found = _CELLS.search(head, max(len(head) - len(piece) - 64, 0))
            if found is not None and found.end() < len(head):
                break
        if found is None:
            return None
        at = found.end()
        window, base, head = head[at:], at, head[:found.start()]
        stop, end = at, at + 1
        if window[:1] != "]":
            while (last := _LIST_END.search(window)) is None:
                base += max(len(window) - 64, 0)
                window = window[-64:] + next(pieces)[1]
            stop, end = base + last.start() + 1, base + last.end()
        rest = head + '"cells": NaN' + window[end - base:] + "".join(p for _, p in pieces)
        if rest.count("NaN") != 1:
            return None
        data = json.loads(rest)
        hole = data.get("cells") if isinstance(data, dict) else None
        if type(hole) is not float or hole == hole:
            return None
        data["cells"] = []
        fault = None
        try:
            draft = _read_design(data)
        except FormatError as exc:
            fault = exc
        first, mark = next(m for m in reversed(marks) if m[0] <= at)
        cells = _Cells(_pieces(source, mark), at - first, stop - at)
        if fault is None:  # the slices take over at the chunk the scan refuses
            cells.buf = _scan(cells, draft) + cells.sep + cells.buf
        while text := cells.take(_SLICE_CHARS):
            entries = json.loads("[" + text + "]")
            if fault is None:
                try:
                    _read_cells(entries, draft)
                except FormatError as exc:
                    fault = exc
    except (ValueError, RecursionError, StopIteration):  # StopIteration: the list has no end
        return None
    if fault is not None:
        raise fault
    return _design_of(draft), _stored_transversal(data.get("meta"))


def _pieces(source: str | TextIO, start: int) -> Iterator[tuple[int, str]]:
    """(mark, piece) for each _SCAN_CHARS characters of a str or a seekable text
    file from start on; mark, a str index or a tell() value, is its start."""
    if isinstance(source, str):
        for at in range(start, len(source), _SCAN_CHARS):
            yield at, source[at:at + _SCAN_CHARS]
        return
    source.seek(start)
    while piece := source.read(_SCAN_CHARS):
        yield start, piece
        start = source.tell()


class _Cells:
    """A cells list's text, size characters from skip on in its pieces."""

    def __init__(self, pieces: Iterator[tuple[int, str]], skip: int, size: int) -> None:
        self.pieces, self.size, self.sep = (piece for _, piece in pieces), size, ""
        self.buf = next(self.pieces, "")[skip:skip + size]
        self.left = size - len(self.buf)

    def take(self, size: int) -> str:
        """The text up to the "}" of the first "}" "," cut at or after size
        characters, the cut kept as sep; else the rest of the list, sep ""."""
        buf, self.buf = self.buf, ""  # so buf grows in place
        cut = _CUT.search(buf, size)
        while self.left and (cut is None or cut.end() == len(buf)):
            piece = next(self.pieces, "")[:self.left]
            self.left = self.left - len(piece) if piece else 0
            buf += piece
            cut = _CUT.search(buf, max(size, len(buf) - len(piece) - 64))
        if cut is None:
            self.buf, self.sep = "", ""
            return buf
        self.buf, self.sep = buf[cut.end():], cut.group()[1:]
        return buf[:cut.start() + 1]


def _scan(cells: _Cells, draft: SimpleNamespace) -> str:
    """Append to the draft's lists the cells it takes, a chunk of about
    _SCAN_CHARS at a time; return the first refused chunk, or "".

    The first cell, up to its "}", must be laid out as _FIRST matches.
    The text around its ints, and the separator after it, make a format
    for each value. A chunk is accepted when these formats re-lay its runs
    of digits and "-", as ints in 0..max(n, side)-1, to its own text, so
    JSON would read the same ints; when its cells lie in the array, in
    any order; and when each block's edges are (min, max) with strictly
    increasing first ends, as _read_cells would append them. It parses
    no JSON and raises nothing: the slices word every error, and
    of_arrays finds a cell given twice."""
    chunk = cells.take(_SCAN_CHARS)
    cut = _CUT.search(chunk)
    to, sep = (len(chunk), cells.sep) if cut is None else (cut.start() + 1, cut.group()[1:])
    if _FIRST.fullmatch(chunk, 0, to) is None:
        return chunk
    pieces = _NUMBER.split(chunk[:to] + sep)
    formats = [pieces[0] + "%d" + pieces[1]] + ["%d" + piece for piece in pieces[2:]]

    m, side = len(formats), draft.side
    k = m // 2 - 1
    bound = max(draft.n, side)
    # made at once only while far smaller than the list, whatever the header says
    size = min(bound, cells.size // (64 * m))
    int_of = _Ints(size, bound).__getitem__
    texts = {fmt: _Texts(fmt, size).__getitem__ for fmt in formats}
    lay = [texts[fmt] for fmt in formats]
    ends = (0, 0) + (1,) * (m - 2)
    rows, cols, sizes, points = draft.rows, draft.cols, draft.sizes, draft.points
    while chunk:
        # the separator holds no digits, so the chunk's runs are its cells' ints
        try:
            got = list(map(int_of, chunk.encode("ascii", "replace").translate(_DIGITS).split()))
        except (KeyError, ValueError):
            break
        by_place = [got[j::m] for j in range(m)]
        relaid = "".join(chain.from_iterable(zip(*map(map, lay, by_place))))
        if relaid != chunk + sep:
            break
        r, c, us, vs = by_place[0], by_place[1], by_place[2::2], by_place[3::2]
        if (
            max(r) >= side or max(c) >= side
            or not all(all(map(lt, u, v)) for u, v in zip(us, vs))
            # a block with two equal first ends is left to the slices, which sort it
            or not all(all(map(lt, u, w)) for u, w in zip(us, us[1:]))
        ):
            break
        rows += r
        cols += c
        sizes += repeat(k, len(r))
        points += compress(got, cycle(ends))
        del got, by_place, relaid, r, c, us, vs  # before the next chunk is read
        chunk = cells.take(_SCAN_CHARS)
    return chunk


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
