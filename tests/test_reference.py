"""verify against a checker that reads the definition literally, and the
verdicts, reports and bytes of every construction path against the order
its cells are given in.

The reference checker counts what the definition names and nothing more:
the points of each row and column of the array, the pairs placed against
K_n, and each cell's shape. It shares no code with verify, so the seeded
mutants below, half of them given to DesignArray in shuffled cell order,
compare two independent readings of each condition.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from omd.compose import construct
from omd.core import DesignArray, canonical_block
from omd.formats import dumps_design
from omd.verify import verify, verify_transversal

CHECKS = ("host-shape", "block-shape", "row-resolution", "column-resolution", "pair-coverage")


def reference_checks(arr: DesignArray) -> tuple[bool, ...]:
    """Each condition's verdict, in verify's order, from counts alone: a line
    is a resolution class when each of 0..n-1 lies once in its cells inside
    the array, whatever else they hold."""
    n, k, side = arr.n, arr.k, arr.side
    rows, cols, pairs = Counter(), Counter(), Counter()
    shape = True
    for (r, c), block in arr.cells.items():
        points = [p for edge in block for p in edge]
        inside = 0 <= r < side and 0 <= c < side
        shape = shape and inside and len(block) == k and len(set(points)) == 2 * k
        shape = shape and all(0 <= p < n for p in points)
        shape = shape and all(u < v for u, v in block)
        if inside:
            rows.update((r, p) for p in points)
            cols.update((c, p) for p in points)
        pairs.update(block)
    lines = [(i, p) for i in range(side) for p in range(n)]
    host = Counter((u, v) for u in range(n) for v in range(u + 1, n))
    return (
        side == n - 1,
        shape,
        all(rows[line] == 1 for line in lines),
        all(cols[line] == 1 for line in lines),
        pairs == host,
    )


def _designs():
    """One construct output per (n, k), n <= 32, k <= 4: every path."""
    return [
        construct(n, k).design
        for k in range(1, 5)
        for n in range(2 * k, 33, 2 * k)
        if (n, k) not in ((4, 1), (6, 1))
    ]


def _mutant(arr: DesignArray, rng: random.Random) -> DesignArray:
    """arr with one random fault of the kinds a broken builder or file makes."""
    cells, side, n = dict(arr.cells), arr.side, arr.n
    cell = rng.choice(sorted(cells))
    block = cells[cell]
    kind = rng.randrange(7)
    if kind == 0:  # delete a cell
        del cells[cell]
    elif kind == 1:  # move a cell, perhaps outside the array or onto another
        cells[rng.randrange(-1, side + 1), rng.randrange(-1, side + 1)] = cells.pop(cell)
    elif kind == 2:  # swap two cells
        other = rng.choice(sorted(cells))
        cells[cell], cells[other] = cells[other], block
    elif kind == 3:  # relabel a cell's points, kept canonical or not
        relabel = rng.sample(range(n), n)
        pairs = [(relabel[u], relabel[v]) for u, v in block]
        cells[cell] = canonical_block(pairs) if rng.random() < 0.5 else tuple(pairs)
    elif kind == 4:  # edit one point, perhaps outside 0..n-1
        edges = [list(edge) for edge in block]
        rng.choice(edges)[rng.randrange(2)] = rng.randrange(-2, n + 2)
        cells[cell] = tuple(map(tuple, edges))
    elif kind == 5:  # drop an edge, or double one
        at = rng.randrange(len(block))
        if rng.random() < 0.5:
            cells[cell] = block[:at] + block[at + 1:]
        else:
            cells[cell] = canonical_block(block + block[at:at + 1])
    else:  # change the side by one
        side += rng.choice((-1, 1))
    items = list(cells.items())
    if rng.random() < 0.5:
        rng.shuffle(items)
    return DesignArray(side, n, arr.k, dict(items))


def test_reference_checker_accepts_every_path():
    for arr in _designs():
        assert reference_checks(arr) == (True,) * 5, (arr.n, arr.k)


@pytest.mark.parametrize("seed", range(4))
def test_verify_agrees_with_the_reference_checker(seed):
    rng = random.Random(seed)
    designs = _designs()
    for _ in range(1000):
        mutant = _mutant(rng.choice(designs), rng)
        report = verify(mutant)
        assert tuple(c.name for c in report.checks) == CHECKS
        verdicts = tuple(c.passed for c in report.checks)
        assert verdicts == reference_checks(mutant), sorted(mutant.cells.items())
        assert report.passed == all(verdicts)


# per seed, the sha256 of json.dumps(report.to_dict(), sort_keys=True) of
# each of the test above's mutants in turn: every check's detail and every
# line count, not only the verdicts, recorded before verify's line checks
# became one routine
REPORT_DIGESTS = {
    0: "5622c4d385fb036c386f0eafedc83a1847cb4f31609b077a2b57db18b4d54a13",
    1: "22d2b6af1b6133eff960dd9d94a1d049665621cc1877fb812150418a95269b1c",
    2: "08e30a8309a9fbd3bd1bfd5cc606c2f87bc560d8b083ec248992fa153363ac09",
    3: "16d053cc5baa57a3454903454341e47ff2f73119b1b48a22fa6d0165201f3f6e",
}


@pytest.mark.parametrize("seed", range(4))
def test_mutant_reports_are_pinned(seed):
    rng = random.Random(seed)
    designs = _designs()
    digest = hashlib.sha256()
    for _ in range(1000):
        report = verify(_mutant(rng.choice(designs), rng))
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == REPORT_DIGESTS[seed]


# one design per construction path, with its transversal
PATHS = {
    "room": (30, 1),
    "diagonal": (8, 4),
    "quad-split": (12, 3),
    "hex-split": (18, 3),
    "product": (40, 4),
}


@pytest.mark.parametrize("path", PATHS)
def test_reports_and_bytes_do_not_depend_on_cell_order(path):
    res = construct(*PATHS[path])
    arr, transversal = res.design, res.transversal
    meta = {"transversal": [list(cell) for cell in transversal]}
    items = list(arr.cells.items())
    for seed in range(3):
        random.Random(seed).shuffle(items)
        shuffled = DesignArray(arr.side, arr.n, arr.k, dict(items))
        assert verify(shuffled).to_dict() == verify(arr).to_dict()
        assert (
            verify_transversal(shuffled, transversal).to_dict()
            == verify_transversal(arr, transversal).to_dict()
        )
        assert dumps_design(shuffled, meta) == dumps_design(arr, meta)
