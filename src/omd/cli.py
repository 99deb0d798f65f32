"""Command-line entry point: generate, verify, and sweep.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 nonexistent parameters, 3 search budget exhausted, 4 unparsable input
or an unwritable --out. With the same arguments and seed the written
output is byte-identical across runs; progress notes go to stderr so
stdout stays clean when it carries the design itself.

The argument parser is built on the first main() call and reused for the
life of the process.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .compose import ConstructionResult, construct
from .errors import (
    DesignError,
    FormatError,
    NonExistent,
    SearchExhausted,
    VerificationFailed,
)
from .formats import (
    LATEX_MAX_SIDE,
    dumps_design,
    load_design,
    render_grid,
    render_latex,
)
from .room import DEFAULT_BUDGET
from .verify import verify, verify_transversal

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_NONEXISTENT = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4
# the exit code and stderr prefix of each failure, found by the error's
# nearest type here; any other DesignError reaching main is a bug surfacing
FAILURES = {
    FormatError: (EXIT_PARSE, "parse error"),
    NonExistent: (EXIT_NONEXISTENT, "nonexistent"),
    SearchExhausted: (EXIT_BUDGET, "budget exhausted"),
    VerificationFailed: (EXIT_VERIFY, "verification failed"),
    DesignError: (EXIT_VERIFY, "internal error"),
}


def _emit(text: str, out_path: str | None) -> bool:
    """Write the payload to out_path or stdout; False, after one stderr
    line, when out_path cannot be written."""
    if out_path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _note(message: str, out_path: str | None) -> None:
    """Status line: stdout when the payload went to a file, else stderr."""
    stream = sys.stdout if out_path is not None else sys.stderr
    print(message, file=stream)


def _result_meta(res: ConstructionResult, seed: int, budget: int) -> dict:
    return {
        "provenance": res.path,
        "seed": seed,
        "budget": budget,
        "verification": res.report.to_dict(),
        "transversal": [list(cell) for cell in res.transversal],
        "transversal_verification": res.transversal_report.to_dict(),
    }


def cmd_generate(args) -> int:
    res = construct(args.n, args.k, seed=args.seed, budget=args.budget)
    if args.format == "json":
        text = dumps_design(res.design, meta=_result_meta(res, args.seed, args.budget))
    elif args.format == "grid":
        text = render_grid(res.design)
    else:
        try:
            text = render_latex(res.design)
        except ValueError as exc:
            print(f"cannot render: {exc}", file=sys.stderr)
            return EXIT_PARSE
    if not _emit(text, args.out):
        return EXIT_PARSE

    _note(
        f"built ({args.n}, {args.k}): side {res.design.side}, "
        f"{len(res.design.rows)} blocks via {res.path}; "
        "verification passed; transversal certified",
        args.out,
    )
    return EXIT_OK


def _print_checks(report, prefix: str) -> None:
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"[{tag}] {prefix}{check.name}{detail}")


def _counts(values) -> str:
    """One number when every line holds the same count, else the list."""
    return str(values[0]) if len(set(values)) == 1 else str(list(values))


def cmd_verify(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            arr, transversal = load_design(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {args.path}: {exc}") from exc

    report = verify(arr)
    _print_checks(report, "")
    print(
        f"blocks: {report.total_blocks} total, "
        f"{_counts(report.row_blocks)} per row, "
        f"{_counts(report.col_blocks)} per column"
    )
    passed = report.passed
    if transversal is not None:
        t_report = verify_transversal(arr, transversal)
        _print_checks(t_report, "transversal ")
        passed = passed and t_report.passed
    print("verdict:", "valid" if passed else "INVALID")
    return EXIT_OK if passed else EXIT_VERIFY


def _sweep_row(n: int, k: int, seed: int, budget: int) -> tuple:
    """How construct(n, k) ends, as a row of the sweep table."""
    try:
        res = construct(n, k, seed=seed, budget=budget)
    except NonExistent:
        expected = k == 1 and n in (4, 6)
        return n, k, "-", "-", "-", "nonexistent" if expected else "UNEXPECTED-nonexistent"
    except SearchExhausted:
        return n, k, "-", "-", "-", "budget-exhausted"
    return n, k, res.path, res.design.side, len(res.design.rows), "verified"


def cmd_sweep(args) -> int:
    rows = [
        _sweep_row(n, k, args.seed, args.budget)
        for k in range(1, args.k_max + 1)
        for n in range(2 * k, args.n_max + 1, 2 * k)
    ]
    header = ("n", "k", "path", "side", "blocks", "status")
    table = [header] + [tuple(str(x) for x in row) for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = [
        "  ".join(text.ljust(widths[i]) for i, text in enumerate(line)).rstrip()
        for line in table
    ]
    if not _emit("\n".join(lines) + "\n", args.out):
        return EXIT_PARSE

    statuses = {row[-1] for row in rows}
    if "UNEXPECTED-nonexistent" in statuses:
        return EXIT_VERIFY
    if "budget-exhausted" in statuses:
        return EXIT_BUDGET
    return EXIT_OK


def _at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process. A one-shot omd process builds it once
    either way; the saving goes to callers that run main() many times in
    one process. parse_args returns a fresh Namespace per call."""
    parser = argparse.ArgumentParser(
        prog="omd",
        description=(
            "Construct and check matching designs: square arrays whose "
            "cells hold k-edge matchings, with every point met once per "
            "row and once per column and every pair covered exactly once."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument(
            "--budget",
            type=_at_least(1),
            default=DEFAULT_BUDGET,
            help=f"strong starter climb step budget (default {DEFAULT_BUDGET})",
        )

    gen = sub.add_parser("generate", help="construct one design")
    gen.add_argument("--n", type=_at_least(2), required=True, help="number of points")
    gen.add_argument("--k", type=_at_least(1), required=True, help="edges per block")
    common(gen)
    gen.add_argument(
        "--format",
        choices=("json", "grid", "latex"),
        default="json",
        help=f"output format (latex only up to side {LATEX_MAX_SIDE})",
    )
    gen.add_argument("--out", help="write to this path instead of stdout")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="check a JSON design file")
    ver.add_argument("path", help="design file to check")
    ver.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="build and check a whole range")
    sweep.add_argument("--n-max", type=_at_least(2), required=True, help="largest order")
    sweep.add_argument("--k-max", type=_at_least(1), required=True, help="largest block size")
    common(sweep)
    sweep.add_argument("--out", help="write the table to this path")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, but 2 means nonexistent here
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        return args.func(args)
    except DesignError as exc:
        code, prefix = next(FAILURES[t] for t in type(exc).__mro__ if t in FAILURES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
