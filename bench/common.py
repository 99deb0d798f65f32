"""Shared pieces of the benchmark: program loading, op calls, output checks.

The benchmark drives the checkout's own ``src/omd`` in-process through
``omd.cli.main``, exactly as the ``omd`` console script would, and checks
every output with a re-check of its own that shares no code with the
package's verifier.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import platform
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# omd sweep --n-max 60 --k-max 6, in the order cmd_sweep visits the cases
SWEEP_CASES = [(n, k) for k in range(1, 7) for n in range(2 * k, 61, 2 * k)]
# the two genuine exclusions: omd generate must exit 2 for them
NONEXISTENT = {(4, 1), (6, 1)}
# k = 1 orders n = 2 (mod 10) from 62 to 122. The starter search has no
# wall-time bound: construct(200, 1) did not return within 10 minutes, even
# with --budget 500000, and r in {125, 127, 131} found no starter within
# 12 s, so the range stops at 122 until the search is bounded
ROOM_LARGE = [(n, 1) for n in range(62, 123, 10)]
# outer order m in {40, 80} times k in {2, 4, 6, 8}
PRODUCT_LARGE = [(m * k, k) for m in (40, 80) for k in (2, 4, 6, 8)]


class MissingProgram(RuntimeError):
    """The checkout holds no omd sources to benchmark."""


def load_program():
    """Import omd.cli, omd.room and friends fresh from the checkout.

    Any omd module already imported is dropped first, so each call pays
    the whole import, which is what every ``omd`` invocation pays.
    Returns a dict of module name -> module object.
    """
    if not (SRC / "omd" / "cli.py").is_file():
        raise MissingProgram(f"no omd sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "omd" or m.startswith("omd.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    # omd/__init__.py rebinds omd.compose and omd.verify to functions, so
    # modules are taken from import_module, never from attribute access
    mods = {
        name: importlib.import_module(f"omd.{name}")
        for name in ("cli", "compose", "room", "bases", "core", "formats", "verify")
    }
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"omd was imported from {origin}, not from {SRC}")
    return mods


def clear_room_cache(room_mod) -> None:
    """Empty the memo of built single-edge designs, if the module has one."""
    cached = getattr(room_mod, "_cached_room", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()


def call_main(main, argv):
    """Run one CLI invocation; returns (exit code, stdout, wall s, stderr).

    Only the call itself is timed. An exception escaping main leaves a
    None exit code and its traceback in stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
        wall = time.perf_counter() - start
    return rc, out.getvalue(), wall, err.getvalue()


def check_design(data, n: int, k: int):
    """Independent re-check of a parsed design file as an ORMD(n, k).

    Every design the benchmark asks for lives on the complete graph K_n,
    so the checks are: the header, block shape, every row and every column
    covering each point exactly once, every pair of points covered exactly
    once, and the stored transversal (if any) choosing one cell per row and
    column whose blocks partition the points.
    Returns (problem or None, stored transversal certified).
    """
    try:
        return _check_design(data, n, k)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed design: {exc!r}", False


def _check_design(data, n, k):
    side = n - 1
    header = (data.get("n"), data.get("k"), data.get("side"))
    if header != (n, k, side):
        return f"header (n, k, side) = {header}, expected {(n, k, side)}", False
    if data.get("host") != {"type": "complete", "n": n}:
        return f"host {data.get('host')!r} is not K_{n}", False
    cells = data["cells"]
    want = n * (n - 1) // 2 // k
    if len(cells) != want:
        return f"{len(cells)} cells, expected {want}", False

    rows = [bytearray(n) for _ in range(side)]
    cols = [bytearray(n) for _ in range(side)]
    pairs = bytearray(n * n)
    blocks = {}
    for cell in cells:
        r, c, edges = cell["row"], cell["col"], cell["edges"]
        if not (0 <= r < side and 0 <= c < side) or (r, c) in blocks:
            return f"cell ({r}, {c}) out of range or repeated", False
        if len(edges) != k:
            return f"cell ({r}, {c}) holds {len(edges)} edges", False
        points = []
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < v < n):
                return f"cell ({r}, {c}) has edge {[u, v]!r}", False
            if pairs[u * n + v]:
                return f"pair {(u, v)} covered twice", False
            pairs[u * n + v] = 1
            points += (u, v)
        row, col = rows[r], cols[c]
        for p in points:
            if row[p] or col[p]:
                return f"point {p} repeated in row {r} or column {c}", False
            row[p] = col[p] = 1
        blocks[(r, c)] = points
    # distinct pairs, all in K_n, as many as K_n has: coverage is exact
    for i in range(side):
        if rows[i].count(1) != n or cols[i].count(1) != n:
            return f"row or column {i} misses a point", False

    meta = data.get("meta")
    chosen = meta.get("transversal") if isinstance(meta, dict) else None
    if chosen is None:
        return None, False
    if len(chosen) != side:
        return f"transversal has {len(chosen)} cells", False
    if sorted(r for r, _ in chosen) != list(range(side)) or sorted(
        c for _, c in chosen
    ) != list(range(side)):
        return "transversal repeats a row or column", False
    covered = sorted(p for r, c in chosen for p in blocks.get((r, c), ()))
    if covered != list(range(n)):
        return "transversal blocks do not partition the points", False
    return None, True


def env_info() -> dict:
    """Python version, CPU count, CPU model and the program's identity."""
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    digest = hashlib.sha256()
    for path in sorted((SRC / "omd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
