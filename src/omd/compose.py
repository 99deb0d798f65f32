"""Recursive product: expand each cell of a single-edge design into a subarray.

Given a single-edge design on m points (a Room square) with a certified
transversal, every point is split into s copies. Each outer cell grows
into an s x s block, and s - 1 extra rows and columns are appended, for a
side of s(m-1) + s - 1 = sm - 1. The ingredients are always build_m1k(s),
on the doubled edge K_{s,s}, and build_2k(s), on K_{2s} with its hole of
size s - 1. Cells on the outer transversal receive a copy of build_2k(s)
with its hole rows and columns laid onto the extra rows and columns; all
other filled cells receive a copy of build_m1k(s). The copies tile the new
edge set exactly once, which the verifier confirms on every output.
The product's transversal is the image of build_2k(s)'s back diagonal in
every outer transversal cell; no transversal is searched for here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Complete, DesignArray, Transversal
from .errors import NonExistent, VerificationFailed
from .room import DEFAULT_BUDGET, build_room
from .bases import build_2k, build_4k, build_6k, build_m1k
from .verify import VerificationReport, verify, verify_transversal


def _expand(
    outer: DesignArray, outer_transversal: Transversal, s: int
) -> tuple[DesignArray, Transversal]:
    """Blow up a single-edge outer design by s; no checks.
    The transversal is the union of build_2k(s)'s back diagonal images in
    every outer transversal cell, empty or not (hole images coincide)."""
    small = build_m1k(s)
    big, big_transversal, hole = build_2k(s)
    # build_2k's rows and columns in the order they are laid out: first
    # those outside the hole, then the hole's, which go to the extra lines
    row_order = [r for r in range(big.side) if r not in hole.rows] + list(hole.rows)
    col_order = [c for c in range(big.side) if c not in hole.cols] + list(hole.cols)
    row_at = {r: p for p, r in enumerate(row_order)}
    col_at = {c: p for p, c in enumerate(col_order)}
    big_cells = [(row_at[r], col_at[c], b) for (r, c), b in big.cells.items()]
    big_chosen = [(row_at[r], col_at[c]) for r, c in big_transversal.cells]
    small_cells = [(r, c, b) for (r, c), b in small.cells.items()]
    extras = range(s * outer.side, s * outer.side + s - 1)

    def lines(x: int) -> list[int]:
        """Outer line x's s rows (or columns), then the s - 1 extra ones."""
        return [*range(x * s, x * s + s), *extras]

    chosen = set()
    for i, j in outer_transversal.cells:
        rows, cols = lines(i), lines(j)
        chosen.update((rows[r], cols[c]) for r, c in big_chosen)
    on_transversal = set(outer_transversal.cells)
    cells = {}
    for (i, j), ((u, v),) in outer.cells.items():
        rows, cols = lines(i), lines(j)
        # point a of the ingredient goes to u's copies for a < s, else to
        # v's; u < v keeps every edge canonical and the block in order
        pmap = [*range(u * s, u * s + s), *range(v * s, v * s + s)]
        source = big_cells if (i, j) in on_transversal else small_cells
        for r, c, block in source:
            cells[rows[r], cols[c]] = tuple([(pmap[a], pmap[b]) for a, b in block])
    n = s * outer.n
    design = DesignArray(s * outer.side + s - 1, n, s, Complete(n), cells)
    return design, Transversal(tuple(sorted(chosen)))


@dataclass(frozen=True)
class ConstructionResult:
    """A verified design plus its certified transversal, which comes from
    the path's builder: build_room's anti-diagonal (or order 10's constant)
    for k = 1, build_2k's, build_4k's or build_6k's fixed rule, or on the
    product path the image of build_2k(k)'s back diagonal in every cell of
    the Room square's transversal.
    """

    design: DesignArray
    report: VerificationReport
    path: str
    transversal: Transversal
    transversal_report: VerificationReport


def _certify(
    design: DesignArray, path: str, transversal: Transversal
) -> ConstructionResult:
    report = verify(design)
    if not report.passed:
        raise VerificationFailed(
            f"{path} construction failed verification: {report.failure()}"
        )
    t_report = verify_transversal(design, transversal)
    if not t_report.passed:
        raise VerificationFailed(
            f"{path} construction produced a bad transversal: {t_report.failure()}"
        )
    return ConstructionResult(design, report, path, transversal, t_report)


def construct(
    n: int,
    k: int,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ConstructionResult:
    """Build a verified design for any admissible (n, k).

    Dispatch: order not divisible by 2k is impossible; k = 1 goes to the
    square builders (orders 4 and 6 impossible); n = 2k, 4k, 6k use the
    direct constructions; everything from 8k up expands a single-edge
    design of order n/k by s = k. Each builder returns its transversal.
    Every returned design and transversal has passed the verifier;
    NonExistent names the violated condition.
    """
    if n < 2 or k < 1:
        raise ValueError(f"need n >= 2 and k >= 1, got ({n}, {k})")
    if n % (2 * k) != 0:
        raise NonExistent(
            f"no design of order {n} with {k}-edge blocks: "
            f"the order must be a multiple of 2k = {2 * k}"
        )
    if k == 1:
        design, transversal = build_room(n, seed=seed, budget=budget)
        return _certify(design, "room", transversal)
    if n == 2 * k:
        design, transversal, _hole = build_2k(k)
        return _certify(design, "diagonal", transversal)
    if n == 4 * k:
        design, transversal = build_4k(k)
        return _certify(design, "quad-split", transversal)
    if n == 6 * k:
        design, transversal = build_6k(k)
        return _certify(design, "hex-split", transversal)

    m = n // k
    outer, outer_transversal = build_room(m, seed=seed, budget=budget)
    design, transversal = _expand(outer, outer_transversal, k)
    return _certify(design, f"product(room({m}), s={k})", transversal)
