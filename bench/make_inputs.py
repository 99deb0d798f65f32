"""Write the verify-files inputs: generated designs, their mutants, stubs.

run.py starts this as a child process, so that building the inputs stays
out of the measuring process's memory and import state:

    python3 bench/make_inputs.py --cases 640x8,480x6 --seed 0 --out DIR \
        --manifest DIR/manifest-0.json [--stubs]

For every case n x k it runs ``omd generate --seed SEED --out``,
re-checks the file with the benchmark's own checker, and writes one
deletion mutant and one support-changing swap mutant chosen from the
seed. --stubs also writes the header-inflated stubs. The manifest lists
each file with the exit code ``omd verify`` must give it. Exits 1 if any
input is not what it claims to be.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
from pathlib import Path  # noqa: E402

from common import call_main, check_design, load_program  # noqa: E402

# headers that claim far more than the file holds: (n, k, cells held).
# Each takes up to about a second to refute today.
STUBS = [
    (1000, 1, []),
    (800, 2, [{"row": 0, "col": 0, "edges": [[0, 1], [2, 3]]}]),
    (600, 1, [{"row": 0, "col": 0, "edges": [[0, 599]]}]),
]


class BadInput(Exception):
    pass


def _points(cell) -> set[int]:
    return {p for edge in cell["edges"] for p in edge}


def _mutants(data: dict, rng: random.Random) -> dict[str, dict]:
    """One cell deleted, and two cells with different points swapped."""
    cells = data["cells"]
    gone = rng.randrange(len(cells))
    deletion = dict(data, cells=cells[:gone] + cells[gone + 1 :])
    while True:
        a, b = rng.sample(range(len(cells)), 2)
        if _points(cells[a]) != _points(cells[b]):
            break
    swapped = list(cells)
    swapped[a] = dict(cells[a], edges=cells[b]["edges"])
    swapped[b] = dict(cells[b], edges=cells[a]["edges"])
    return {"deletion": deletion, "swap": dict(data, cells=swapped)}


def _entry(path: Path, n: int, k: int, expect: int, data: dict, size: int) -> dict:
    return {
        "name": path.stem,
        "path": str(path),
        "n": n,
        "k": k,
        "expect": expect,
        "cells": len(data["cells"]),
        "size": size,
        "valid": expect == 0,
    }


def _write_invalid(path: Path, data: dict, n: int, k: int) -> int:
    problem, _ = check_design(data, n, k)
    if problem is None:
        raise BadInput(f"{path.name} was meant to be invalid but checks out")
    text = json.dumps(data, indent=2) + "\n"
    path.write_text(text, encoding="ascii")
    return len(text)


def make_inputs(cases, seed: int, out: Path, stubs: bool) -> list[dict]:
    main = load_program()["cli"].main
    entries = []
    for n, k in cases:
        path = out / f"design-{n}-{k}.json"
        argv = ["generate", "--n", str(n), "--k", str(k), "--seed", str(seed)]
        rc, _, _, err = call_main(main, argv + ["--out", str(path)])
        if rc != 0:
            raise BadInput(f"omd generate --n {n} --k {k} exited {rc}: {err}")
        raw = path.read_bytes()
        data = json.loads(raw)
        problem, _ = check_design(data, n, k)
        if problem is not None:
            raise BadInput(f"{path.name}: {problem}")
        entries.append(_entry(path, n, k, 0, data, len(raw)))

        rng = random.Random(f"verify-files:{seed}:{n}:{k}")
        for kind, mutant in _mutants(data, rng).items():
            mpath = out / f"design-{n}-{k}-{kind}.json"
            size = _write_invalid(mpath, mutant, n, k)
            entries.append(_entry(mpath, n, k, 1, mutant, size))

    for n, k, cells in STUBS if stubs else ():
        stub = {
            "n": n,
            "k": k,
            "side": n - 1,
            "host": {"type": "complete", "n": n},
            "cells": cells,
        }
        spath = out / f"stub-{n}-{k}.json"
        size = _write_invalid(spath, stub, n, k)
        entries.append(_entry(spath, n, k, 1, stub, size))
    return entries


def _case(text: str) -> tuple[int, int]:
    n, k = text.split("x")
    return int(n), int(k)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", required=True, help="comma-separated NxK")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--stubs", action="store_true")
    args = parser.parse_args(argv)
    cases = [_case(text) for text in args.cases.split(",")]
    try:
        entries = make_inputs(cases, args.seed, args.out, args.stubs)
    except BadInput as exc:
        print(f"make_inputs: {exc}", file=sys.stderr)
        return 1
    args.manifest.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
