"""Serialization: JSON interchange, plain-text grids, LaTeX arrays.

The JSON layout is a stable wire contract:

    {"n": .., "k": .., "side": .., "host": {"type": .., ..},
     "cells": [{"row": .., "col": .., "edges": [[u, v], ..]}, ..]}

The host is {"type": "complete", "n": ..} or {"type":
"complete_multipartite", "parts": [..]}; any other type fails to parse.

Cells are sorted by (row, col) and every edge is written as [min, max],
so serializing the same design always yields identical bytes. An optional
top-level "meta" object carries provenance and certificates; parsing
ignores it. Parsing is strict about structure (exit path for malformed
files): types, cell range, duplicate cells, edge shape. It reads each cell
into its canonical block and leaves semantic validity to the verifier, so
a structurally fine file describing a broken design, a cell that is not
a matching included, parses and then fails verification.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any

from . import core
from .core import Block, DesignArray
from .errors import FormatError

GRID_EMPTY = "."


def host_to_dict(host: core.HostGraph) -> dict:
    if isinstance(host, core.Complete):
        return {"type": "complete", "n": host.n}
    if isinstance(host, core.CompleteMultipartite):
        return {"type": "complete_multipartite", "parts": list(host.parts)}
    raise TypeError(f"unknown host graph {host!r}")


def _require_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def host_from_dict(data: Any) -> core.HostGraph:
    if not isinstance(data, dict):
        raise FormatError("host must be an object")
    kind = data.get("type")
    try:
        if kind == "complete":
            return core.Complete(_require_int(data["n"], "host.n"))
        if kind == "complete_multipartite":
            parts = data["parts"]
            if not isinstance(parts, list) or not parts:
                raise FormatError("host.parts must be a non-empty list")
            return core.CompleteMultipartite(
                tuple(_require_int(p, "host.parts[]") for p in parts)
            )
    except KeyError as exc:
        raise FormatError(f"host is missing field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    raise FormatError(f"unknown host type {kind!r}")


def design_to_dict(arr: DesignArray, meta: dict | None = None) -> dict:
    cells = []
    for (r, c), block in arr.occupied():
        cells.append(
            {"row": r, "col": c, "edges": [[u, v] for u, v in block]}
        )
    data = {
        "n": arr.n,
        "k": arr.k,
        "side": arr.side,
        "host": host_to_dict(arr.host),
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
    host = host_from_dict(data["host"])
    raw_cells = data["cells"]
    if not isinstance(raw_cells, list):
        raise FormatError("cells must be a list")

    # exact ints skip _require_int, which keeps its verdict on all else
    cells: dict[core.Cell, Block] = {}
    for entry in raw_cells:
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
        cell = (r, c)
        if cell in cells:
            raise FormatError(f"cell ({r}, {c}) appears twice")
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
        cells[cell] = tuple(edges)

    return DesignArray(side, n, k, host, cells)


# a cell and an edge as json.dumps(..., indent=2) lays them out in a design
_CELL = '    {\n      "row": %%d,\n      "col": %%d,\n      "edges": %s\n    }'
_EDGE = "        [\n          %d,\n          %d\n        ]"


def _cell_template(size: int) -> str:
    """The % template of a cell whose block holds size edges."""
    if not size:
        return _CELL % "[]"
    return _CELL % ("[\n" + ",\n".join([_EDGE] * size) + "\n      ]")


# looked up only for None and bools: 1 and 1.0 would find True's entry
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _indented(value: Any, depth: int) -> str:
    """json.dumps(value, indent=2) laid out at nesting depth. Strings, ints,
    None, bools, dicts with str keys and lists are written here, int lists
    by one join and int-pair lists by one % format; anything else goes
    through json.dumps."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    if value is None or type(value) is bool:
        return _CONSTANTS[value]
    pad = "\n" + "  " * (depth + 1)
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = [
            encode_basestring_ascii(key) + ": " + _indented(item, depth + 1)
            for key, item in value.items()
        ]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if type(value) is list and value:
        if all(
            type(item) is list and len(item) == 2
            and type(item[0]) is int and type(item[1]) is int
            for item in value
        ):
            pair = "[" + pad + "  %d," + pad + "  %d" + pad + "]"
            values = tuple(chain.from_iterable(value))
            items = [("," + pad).join([pair] * len(value)) % values]
        elif all(type(item) is int for item in value):
            items = map(str, value)
        else:
            items = [_indented(item, depth + 1) for item in value]
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    return json.dumps(value, indent=2).replace("\n", pad[:-2])


def dumps_design(arr: DesignArray, meta: dict | None = None) -> str:
    """json.dumps(design_to_dict(arr, meta), indent=2) + "\\n", byte for byte.
    The header, host and meta are laid out by _indented; the cells are one
    % format over (row, col, u, v, ...) in cell order."""
    text = _indented(design_to_dict(replace(arr, cells={}), meta), 0)
    occupied = arr.occupied()
    blocks = list(map(itemgetter(1), occupied))
    sizes = list(map(len, blocks))
    templates = {size: _cell_template(size) for size in set(sizes)}
    # sum(block, (row, col)) is the tuple (row, col, u, v, ...)
    values = chain.from_iterable(map(sum, blocks, map(itemgetter(0), occupied)))
    cells = ",\n".join(map(templates.__getitem__, sizes)) % tuple(values)
    if cells:
        # host comes first and cannot hold this text, so it is the cells key
        text = text.replace('"cells": []', '"cells": [\n' + cells + "\n  ]", 1)
    return text + "\n"


def loads_design(text: str) -> DesignArray:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; so is an
        # integer past Python's digit limit; deep nesting is a RecursionError
        raise FormatError(f"not valid JSON: {exc}") from exc
    return design_from_dict(data)


def _cell_text(block: Block | None) -> str:
    if block is None:
        return GRID_EMPTY
    return ",".join(f"{u}-{v}" for u, v in block)


def render_grid(arr: DesignArray) -> str:
    """One line per row, cells separated by '|', empty cells as '.'."""
    lines = []
    for r in range(arr.side):
        lines.append("|".join(_cell_text(arr.block_at(r, c)) for c in range(arr.side)))
    return "\n".join(lines) + "\n"


LATEX_MAX_SIDE = 15


def render_latex(arr: DesignArray) -> str:
    """LaTeX array with one edge list per cell; refuses side > 15."""
    if arr.side > LATEX_MAX_SIDE:
        raise ValueError(
            f"side {arr.side} exceeds {LATEX_MAX_SIDE}; LaTeX output is for small arrays"
        )
    header = "|" + "c|" * max(arr.side, 1)
    lines = [f"\\begin{{array}}{{{header}}}", "\\hline"]
    for r in range(arr.side):
        cells = []
        for c in range(arr.side):
            block = arr.block_at(r, c)
            if block is None:
                cells.append("")
            else:
                cells.append(",\\,".join(f"{u}\\!-\\!{v}" for u, v in block))
        lines.append(" & ".join(cells) + " \\\\")
        lines.append("\\hline")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"
