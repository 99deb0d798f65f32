"""Acceptance: one test per criterion, one printed verdict line each.

Verdict lines go to the unbuffered original stdout so they show up in the
test log even under capture. Time limits are checked with a cold room
cache so the measured numbers mean what they claim.
"""

import json
import random
import sys
import time

import pytest

from omd.bases import build_2k, build_4k, build_6k
from omd.cli import main
from omd.compose import construct
from omd.core import DesignArray
from omd.errors import NonExistent
from omd.room import _cached_room, build_room
from omd.verify import (
    Existence,
    brute_force_exists,
    verify,
    verify_hole,
    verify_transversal,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {label}{suffix}", file=sys.__stdout__)
    assert ok, f"criterion {num}: {label}{suffix}"


def _admissible(n_max: int, k_max: int):
    for k in range(1, k_max + 1):
        for n in range(2 * k, n_max + 1, 2 * k):
            if k == 1 and n in (4, 6):
                continue
            yield n, k


def test_criterion_1_base_constructions():
    start = time.monotonic()
    ok = True
    for k in range(1, 11):
        arr, transversal, hole = build_2k(k)
        ok = ok and verify(arr).passed
        ok = ok and verify_transversal(arr, transversal).passed
        ok = ok and verify_hole(arr, hole).passed
    for k in range(2, 9):
        ok = ok and verify(build_4k(k)[0]).passed
        ok = ok and verify(build_6k(k)[0]).passed
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "base constructions verify with certificates",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s of 5s",
    )


def test_criterion_2_room_engine():
    _cached_room.cache_clear()
    start = time.monotonic()
    ok = True
    for n in (2, 8, 10, 12, 14, 16):
        arr, transversal = build_room(n)
        ok = ok and verify(arr).passed
        ok = ok and verify_transversal(arr, transversal).passed
    for n in (4, 6):
        try:
            build_room(n)
            ok = False
        except NonExistent:
            pass
        # exhaustive refutation, not a budget stop
        ok = ok and brute_force_exists(n, 1).status is Existence.NOT_EXISTS
    elapsed = time.monotonic() - start
    _verdict(
        2,
        "single-edge designs built and exclusions refuted",
        ok and elapsed < 60.0,
        f"{elapsed:.2f}s of 60s",
    )


def test_criterion_3_full_sweep(capsys):
    _cached_room.cache_clear()
    start = time.monotonic()
    code = main(["sweep", "--n-max", "60", "--k-max", "6"])
    elapsed = time.monotonic() - start
    out, _ = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()[1:]]
    by_params = {(int(r[0]), int(r[1])): r for r in rows}

    ok = code == 0 and len(rows) == 73
    for (n, k), row in by_params.items():
        expected = "nonexistent" if (k == 1 and n in (4, 6)) else "verified"
        ok = ok and row[-1] == expected
    paths = {row[2] for row in rows}
    ok = ok and {"room", "diagonal", "quad-split", "hex-split"} <= paths
    ok = ok and any(p.startswith("product(") for p in paths)
    _verdict(
        3,
        "sweep n<=60 k<=6 verifies every admissible case",
        ok and elapsed < 300.0,
        f"{len(rows)} cases, {elapsed:.2f}s of 300s",
    )


def test_criterion_4_counting_law():
    ok = True
    for n, k in _admissible(60, 6):
        report = construct(n, k).report
        ok = ok and report.total_blocks == n * (n - 1) // (2 * k)
        ok = ok and set(report.row_blocks) == {n // (2 * k)}
        ok = ok and set(report.col_blocks) == {n // (2 * k)}
    _verdict(4, "block counts match n(n-1)/2k and n/2k per line", ok)


def test_criterion_5_oracle_equivalence():
    _cached_room.cache_clear()
    start = time.monotonic()
    ok = True
    for n in range(2, 9):
        for k in range(1, 5):
            res = brute_force_exists(n, k)
            try:
                construct(n, k)
                expected = Existence.EXISTS
            except NonExistent:
                expected = Existence.NOT_EXISTS
            ok = ok and res.status is expected
    elapsed = time.monotonic() - start
    _verdict(
        5,
        "exhaustive oracle agrees with construct for n<=8 k<=4",
        ok and elapsed < 120.0,
        f"{elapsed:.2f}s of 120s",
    )


def _points(block) -> set[int]:
    return {p for edge in block for p in edge}


def _swap(arr: DesignArray, a, b) -> DesignArray:
    cells = dict(arr.cells)
    cells[a], cells[b] = cells[b], cells[a]
    return DesignArray(arr.side, arr.n, arr.k, cells)


def test_criterion_6_mutation_sensitivity():
    designs = [construct(n, k).design for n, k in _admissible(16, 8)]

    deletions = 0
    deletions_killed = 0
    for arr in designs:
        for cell in arr.cells:
            cells = dict(arr.cells)
            del cells[cell]
            mutant = DesignArray(arr.side, arr.n, arr.k, cells)
            deletions += 1
            deletions_killed += not verify(mutant).passed

    # Swapping two blocks with identical point sets permutes whole
    # resolution classes and provably yields another valid design (row,
    # column, and pair coverage are all multisets over supports), so such
    # swaps are equivalent mutants: they are asserted to still verify and
    # excluded from the kill count. Any support-changing swap must die.
    rng = random.Random(20240817)
    swaps_killed = 0
    equivalents_checked = 0
    equivalents_valid = 0
    attempts = 0
    target = 100
    killed_total = 0
    while killed_total < target and attempts < 100_000:
        attempts += 1
        arr = rng.choice(designs)
        if len(arr.cells) < 2:
            continue
        a, b = rng.sample(sorted(arr.cells), 2)
        mutant = _swap(arr, a, b)
        if _points(arr.cells[a]) == _points(arr.cells[b]):
            if equivalents_checked < 20:
                equivalents_checked += 1
                equivalents_valid += verify(mutant).passed
            continue
        swaps_killed += not verify(mutant).passed
        killed_total += 1

    ok = (
        deletions_killed == deletions
        and killed_total == target
        and swaps_killed == target
        and equivalents_valid == equivalents_checked
    )
    _verdict(
        6,
        "every deletion and sampled support-changing swap is rejected",
        ok,
        f"{deletions_killed}/{deletions} deletions, "
        f"{swaps_killed}/{target} swaps, "
        f"{equivalents_valid}/{equivalents_checked} equivalent swaps still valid",
    )


@pytest.mark.parametrize("n,k", [(16, 2), (10, 1), (24, 3)])
def test_criterion_7_reproducibility(n, k, tmp_path, capsys):
    outputs = []
    for name in ("first.json", "second.json"):
        _cached_room.cache_clear()
        path = tmp_path / name
        args = ["generate", "--n", str(n), "--k", str(k), "--seed", "7"]
        assert main(args + ["--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["n"] == n
    _verdict(
        7,
        f"cmd_generate ({n}, {k}) is byte-identical across runs",
        ok,
        f"{len(outputs[0])} bytes",
    )
