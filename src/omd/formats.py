"""Serialization: JSON interchange, plain-text grids, LaTeX arrays.

The JSON layout is a stable wire contract:

    {"n": .., "k": .., "side": .., "host": {"type": .., ..},
     "cells": [{"row": .., "col": .., "edges": [[u, v], ..]}, ..]}

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
from typing import Any

from . import core
from .core import Block, DesignArray, canonical_block
from .errors import FormatError

GRID_EMPTY = "."


def host_to_dict(host: core.HostGraph) -> dict:
    if isinstance(host, core.Complete):
        return {"type": "complete", "n": host.n}
    if isinstance(host, core.CompleteBipartite):
        return {"type": "complete_bipartite", "a": host.a, "b": host.b}
    if isinstance(host, core.LexMatching):
        return {"type": "lex_matching", "l": host.l, "s": host.s}
    if isinstance(host, core.LexMatchingComplete):
        return {"type": "lex_matching_complete", "l": host.l, "s": host.s}
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
        if kind == "complete_bipartite":
            return core.CompleteBipartite(
                _require_int(data["a"], "host.a"), _require_int(data["b"], "host.b")
            )
        if kind == "lex_matching":
            return core.LexMatching(
                _require_int(data["l"], "host.l"), _require_int(data["s"], "host.s")
            )
        if kind == "lex_matching_complete":
            return core.LexMatchingComplete(
                _require_int(data["l"], "host.l"), _require_int(data["s"], "host.s")
            )
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

    cells: dict[core.Cell, Block] = {}
    for entry in raw_cells:
        if not isinstance(entry, dict):
            raise FormatError("each cell must be an object")
        try:
            r = _require_int(entry["row"], "cell.row")
            c = _require_int(entry["col"], "cell.col")
            raw_edges = entry["edges"]
        except KeyError as exc:
            raise FormatError(f"cell is missing field {exc.args[0]!r}") from exc
        if not (0 <= r < side and 0 <= c < side):
            raise FormatError(f"cell ({r}, {c}) outside side-{side} array")
        if (r, c) in cells:
            raise FormatError(f"cell ({r}, {c}) appears twice")
        if not isinstance(raw_edges, list) or not raw_edges:
            raise FormatError(f"cell ({r}, {c}) must hold a non-empty edge list")
        edges = []
        for raw in raw_edges:
            if not isinstance(raw, list) or len(raw) != 2:
                raise FormatError(f"cell ({r}, {c}) has a malformed edge {raw!r}")
            edges.append(
                (_require_int(raw[0], "edge point"), _require_int(raw[1], "edge point"))
            )
        cells[(r, c)] = canonical_block(edges)

    return DesignArray(side, n, k, host, cells)


# a cell and an edge as json.dumps(..., indent=2) lays them out in a design
_CELL = '    {\n      "row": %d,\n      "col": %d,\n      "edges": [\n%s\n      ]\n    }'
_EDGE = "        [\n          %d,\n          %d\n        ]"


def dumps_design(arr: DesignArray, meta: dict | None = None) -> str:
    """json.dumps(design_to_dict(arr, meta), indent=2) + "\\n", byte for byte;
    only the header, host and meta go through that pure-Python encoder."""
    text = json.dumps(design_to_dict(replace(arr, cells={}), meta), indent=2)
    cells = ",\n".join(
        _CELL % (r, c, ",\n".join(_EDGE % edge for edge in block))
        for (r, c), block in arr.occupied()
    )
    if cells:
        # host comes first and cannot hold this text, so it is the cells key
        text = text.replace('"cells": []', '"cells": [\n' + cells + "\n  ]", 1)
    return text + "\n"


def loads_design(text: str) -> DesignArray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
