"""Recursive product: expand each cell of a single-edge design into a subarray.

Given a single-edge design on m points (a Room square) with a certified
transversal, every point is split into s copies. Each outer cell grows
into an s x s block, and s - 1 extra rows and columns are appended, for a
side of s(m-1) + s - 1 = sm - 1. The ingredients are always the s factors
of ofact_bipartite(s), which partition the doubled edge K_{s,s}, and
build_2k(s), on K_{2s} with its hole of size s - 1. build_2k(s)'s layout
is fixed (factor f of ofact_complete(2s) at (f, f), the hole rows 0..s-2 x
columns s..2s-2), so it is laid from those factors without being built.
Cells on the outer transversal receive it with its hole rows and columns
laid onto the extra rows and columns; every other filled cell grows into
an s x s block with factor t at its diagonal cell (t, t). The copies tile
the new edge set exactly once, which the verifier confirms on every output.
The product's transversal is the image of build_2k(s)'s back diagonal in
every outer transversal cell; no transversal is searched for here.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

from .core import DesignArray, Transversal
from .errors import NonExistent, VerificationFailed
from .room import DEFAULT_BUDGET, build_room
from .bases import build_2k, build_4k, build_6k
from .factorizations import ofact_bipartite, ofact_complete
from .verify import VerificationReport, verify, verify_transversal


def _expand(
    outer: DesignArray, outer_transversal: Transversal, s: int
) -> tuple[DesignArray, Transversal]:
    """Blow up a single-edge outer design by s; no checks.
    A cell off the outer transversal takes factor t of ofact_bipartite(s)
    at (t, t); one on it takes build_2k(s) with its hole rows laid last, so
    its row p holds factor (p + s - 1) mod (2s - 1) of ofact_complete(2s):
    row 0 at column s - 1, row t in 1..s-1 at extra column t - 1, and extra
    row e at column e. The transversal is build_2k(s)'s back diagonal, so
    laid at ((s - 1 - c) mod (2s - 1), c), in every outer transversal cell,
    empty or not (hole images coincide). The cells are written in (row,
    col) order: each outer row's s rows, then the s - 1 extra rows."""
    factors = [[p for e in factor for p in e] for factor in ofact_bipartite(s)]
    big = [[p for e in factor for p in e] for factor in ofact_complete(2 * s)]
    extra = s * outer.side

    def lines(x: int) -> list[int]:
        """Outer line x's s rows (or columns), then the s - 1 extra ones."""
        return [*range(x * s, x * s + s), *range(extra, extra + s - 1)]

    chosen = set()
    for i, j in outer_transversal:
        rows, cols = lines(i), lines(j)
        chosen.update((rows[(s - 1 - c) % (2 * s - 1)], cols[c]) for c in range(2 * s - 1))
    on_transversal = set(outer_transversal)
    orows, ocols, opoints = outer.rows, outer.cols, outer.points
    bounds = list(map(bisect_left, repeat(orows), range(outer.side + 1)))
    rows, cols, points = [], [], []
    placed = []
    for i in range(outer.side):
        row_cells = []
        for q in range(bounds[i], bounds[i + 1]):
            # point a of the ingredient goes to u's copies for a < s, else to
            # v's; u < v keeps every edge canonical and the block in order
            u, v = opoints[2 * q], opoints[2 * q + 1]
            pmap = [*range(u * s, u * s + s), *range(v * s, v * s + s)]
            row_cells.append((ocols[q] * s, pmap, (i, ocols[q]) in on_transversal))
        row_chosen = [(base, pmap) for base, pmap, on in row_cells if on]
        placed += row_chosen
        for t in range(s):
            before = len(cols)
            for base, pmap, on in row_cells:
                if not on:
                    cols.append(base + t)
                    points += map(pmap.__getitem__, factors[t])
                elif t == 0:
                    cols.append(base + s - 1)
                    points += map(pmap.__getitem__, big[s - 1])
            # rows 1..s-1 of build_2k(s) lie in the extra columns, last
            if t:
                for _, pmap in row_chosen:
                    cols.append(extra + t - 1)
                    points += map(pmap.__getitem__, big[t + s - 1])
            rows += repeat(i * s + t, len(cols) - before)
    # the hole leaves build_2k's extra rows no cell in the extra columns
    placed.sort()
    for e in range(s - 1):
        rows += repeat(extra + e, len(placed))
        for base, pmap in placed:
            cols.append(base + e)
            points += map(pmap.__getitem__, big[e])
    design = DesignArray.of_arrays(
        extra + s - 1, s * outer.n, s, rows, cols, [s] * len(cols), points
    )
    return design, tuple(sorted(chosen))


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
