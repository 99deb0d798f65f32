"""Benchmark of omd: closed-loop runs of the omd CLI, timed from outside.

    python3 bench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

One caller, no threads: each op is one ``omd.cli.main(argv)`` call made
in-process, the next starts only after the last returned, and only the
call is timed. A run repeats passes over its workload's ops until
``--seconds`` have passed, at least twice and always a whole number of
sweep's cycle of four passes, so every (10, 1) seed is timed equally
often. Untraced, room-large times each op up to three times in a row in a
pass (see REPEAT).

Workloads (``--seed`` picks the omd ``--seed`` values and the mutants):

- sweep: ``omd generate`` for each of the 73 cases of
  ``omd sweep --n-max 60 --k-max 6`` at omd seed 25s for workload seed
  s, the room cache cleared at the start, as a fresh sweep process sees
  it; then (10, 1), whose room_search time varies from 0.005 s to over
  6 s with the seed, at 24 more seeds with a cold cache, six in each pass of a
  cycle of four: 25s+1..25s+6, then 25s+7..25s+12, and so on. (4, 1) and
  (6, 1) must exit 2.
- room-large: ``omd generate --k 1 --seed s`` for n = 62, 72, ..., 122,
  room cache cleared before each op.
- verify-files: ``omd verify`` on the room-large outputs up to n = 112
  and the product-large outputs up to n = 320 (exit 0), a deletion and a
  swap mutant of each, and three header-inflated stubs (exit 1). Two
  child processes write them in set-up.
- product-large: ``omd generate --seed s`` for n = m k, m in {40, 80},
  k in {2, 4, 6, 8}, room cache cleared before each op. Not listed in
  BENCHMARK.json: a steady run of it takes about 45 s today.

Every op is checked outside the timed region: its exit code, and for
generate the file re-parsed and re-checked with the benchmark's own
checker (design and stored transversal), for verify the verdict line.
Each op's output gets a SHA-256; an output that differs from the same
op's first output in the run is a failure too.

Every timed stretch is bracketed by a fixed reference loop, and its wall
time scaled by the loop's nominal over its measured time, so that the
host's slow drifts in speed cancel (see REFERENCE_S). End-to-end metrics
(``--trace 0``) are taken over case times: an op's time is its fastest
scaled time across the run's passes, and a case's time is the
mean over its ops, which differ only in the omd seed (sweep's (10, 1)
has 25, every other case one). ops_per_s and cells_per_s (cells
written or checked) are cases over summed case times; op_p50_s;
op_tail_s, the case time at the highest percentile with at least ten
cases beyond it (the maximum with ten cases or fewer);
transversal_ratio, designs whose stored transversal certified over
designs made (for verify-files: over valid files, as certified by
``omd verify``); peak_rss_mb of this process; setup_s, the median of
five fresh imports of omd (verify-files: the time of writing its
inputs), scaled too. The unscaled figures are printed alongside.

``--trace 1`` runs an untraced pass and then a traced pass, in turn, and
reports the per-module metrics of tracing.py per traced pass, with
trace.overhead_ratio = traced wall / untraced wall - 1 over the ops run
both ways, and fail_ratio. Sweep's extra (10, 1) seeds run traced only.

Every metric is printed by name with its unit; the last line is one JSON
object with correct, attempted, failed and metrics. Details go to
.bench_out/. The exit code is 1 when any output check failed, and 2
when the checkout holds no omd sources.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    NONEXISTENT,
    PRODUCT_LARGE,
    ROOM_LARGE,
    ROOT,
    SRC,
    SWEEP_CASES,
    MissingProgram,
    call_main,
    check_design,
    clear_room_cache,
    env_info,
    load_program,
)
from tracing import LAYER_METRICS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

GENERATE_CASES = {
    "sweep": SWEEP_CASES,
    "room-large": ROOM_LARGE,
    "product-large": PRODUCT_LARGE,
}
WORKLOADS = (*GENERATE_CASES, "verify-files")
# room_search's time at n = 10 ranges from 0.005 s to over 6 s over the omd seed
# (mean 0.85 s, median 0.54 s over 159 seeds on a 2.1 GHz Xeon), so
# sweep times this case at this many seeds and takes their mean (with nine,
# the mean still moved sweep's ops_per_s by +-10% from one workload seed to
# the next); the seeds beyond the sweep's own are split over a cycle of
# SWEEP_TURNS passes
ROOM_SEARCH_CASE = (10, 1)
ROOM_SEARCH_SEEDS = 25
SWEEP_TURNS = 4
# a run times each op at least this often and keeps its fastest time
MIN_PASSES = 2
# room-large's pass takes ~11 s, so a run has two; untraced, it times each op
# back to back until the op has run REPEAT_S in the pass or been timed
# REPEAT_MAX times, so the fastest is taken over more than two tries
REPEAT = {"room-large": (3, 1.5)}  # workload -> (REPEAT_MAX, REPEAT_S)
# the verify-files designs, built by two children of about 3 s each. (122, 1),
# (480, 6) and (640, 8) are left out: building them took ~22 s of set-up, and
# verifying them and their mutants ~7 s of each ~9 s pass, too few passes a run
VERIFY_CASES = ROOM_LARGE[:6] + [(80, 2), (160, 4), (240, 6), (320, 8), (160, 2), (320, 4)]
VERIFY_INPUT_SPLIT = [VERIFY_CASES[:8], VERIFY_CASES[8:]]

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("cells_per_s", "cells/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("transversal_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
SETUP_REPEATS = 5
# The host's speed drifts by up to ~45% for seconds to minutes at a time (a
# fixed loop took 17 to 25 ms; process time drifts with it, so this is a
# slower CPU, not lost turns), and a run's fastest pass shifts with it. So
# every timed stretch is bracketed by a fixed pure-Python reference loop and
# scaled to the loop's nominal time: scaled = wall * REFERENCE_S / loop time.
# REFERENCE_S is the loop's time on a 2.1 GHz Xeon in its fast phase, so
# scaled figures read as wall time on such a host.
REFERENCE_LOOPS = 40_000
REFERENCE_S = 0.002
# a run must end within 180 s; past this, the op in flight is abandoned
DEADLINE_S = 165


class Deadline(BaseException):
    """The run reached its wall-time limit (not an Exception, so omd's
    own handlers cannot swallow it)."""


def _on_alarm(signum, frame):
    raise Deadline


def reference_s() -> float:
    """The fastest of two runs of the fixed reference loop, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        x = 0
        for i in range(REFERENCE_LOOPS):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expect: int  # exit code the CLI contract requires
    n: int
    k: int
    out: str | None = None  # file omd generate writes
    src: str | None = None  # file omd verify reads
    cells: int = 0  # cells held by the verify input
    size: int = 0  # bytes of the verify input
    valid: bool = False  # the verify input is a certified design
    cold: bool = False  # clear the room cache first, as a fresh process has it
    extra: bool = False  # one of sweep's added (10, 1) seeds: traced runs time it traced only

    @property
    def case(self) -> str:
        """Ops of one case differ only in the omd seed."""
        return self.name if self.src is not None else f"generate-{self.n}-{self.k}"

    @property
    def checks_design(self) -> bool:
        """The op makes a design or reads a design file."""
        return self.src is not None or self.expect == 0


@dataclass
class Record:
    op: str
    case: str
    wall_s: float
    rc: int | None
    problem: str | None
    sha256: str
    cells: int = 0
    design: bool = False
    transversal: bool = False
    reference_s: float = REFERENCE_S  # the reference loop's time around the op

    @property
    def scaled_s(self) -> float:
        return self.wall_s * REFERENCE_S / self.reference_s


def generate_op(n: int, k: int, omd_seed: int, workdir: Path, cold: bool, extra=False) -> Op:
    tag = f"{n}-{k}-s{omd_seed}"
    out = str(workdir / f"design-{tag}.json")
    argv = ("generate", "--n", str(n), "--k", str(k), "--seed", str(omd_seed), "--out", out)
    expect = 2 if (n, k) in NONEXISTENT else 0
    return Op(f"generate-{tag}", argv, expect, n, k, out=out, cold=cold, extra=extra)


def generate_passes(workload: str, seed: int, workdir: Path) -> list[list[Op]]:
    """The omd generate ops of each pass in a cycle. A sweep starts with a
    cold room cache, as a fresh ``omd sweep`` process does; the other
    workloads, and sweep's extra (10, 1) seeds, clear it before every op,
    as a fresh ``omd generate`` process does."""
    if workload != "sweep":
        return [[generate_op(n, k, seed, workdir, True) for n, k in GENERATE_CASES[workload]]]
    base = ROOM_SEARCH_SEEDS * seed
    sweep = [
        generate_op(n, k, base, workdir, index == 0)
        for index, (n, k) in enumerate(SWEEP_CASES)
    ]
    per_turn = (ROOM_SEARCH_SEEDS - 1) // SWEEP_TURNS
    n, k = ROOM_SEARCH_CASE
    passes = []
    for turn in range(SWEEP_TURNS):
        first = base + 1 + turn * per_turn
        extra = [
            generate_op(n, k, s, workdir, True, extra=True) for s in range(first, first + per_turn)
        ]
        passes.append(sweep + extra)
    return passes


def make_verify_inputs(seed: int, workdir: Path) -> tuple[list[Op], float]:
    """Write verify-files' inputs with two children at once; returns the
    ops and the wall time taken."""
    start = time.perf_counter()
    procs = []
    try:
        for index, cases in enumerate(VERIFY_INPUT_SPLIT):
            command = [
                sys.executable, str(BENCH / "make_inputs.py"),
                "--cases", ",".join(f"{n}x{k}" for n, k in cases),
                "--seed", str(seed), "--out", str(workdir),
                "--manifest", str(workdir / f"manifest-{index}.json"),
            ]
            if index == 0:
                command.append("--stubs")
            with open(workdir / f"make-{index}.log", "w", encoding="utf-8") as log:
                procs.append(
                    subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=log, stderr=log)
                )
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - start
    entries = {}
    for index, code in enumerate(codes):
        if code != 0:
            log = (workdir / f"make-{index}.log").read_text(encoding="utf-8")
            raise RuntimeError(f"writing the verify-files inputs failed:\n{log}")
        for e in json.loads((workdir / f"manifest-{index}.json").read_text()):
            entries[e["name"]] = e
    # a fixed op order: each design and its two mutants, then the stubs
    names = [
        f"design-{n}-{k}{kind}" for n, k in VERIFY_CASES for kind in ("", "-deletion", "-swap")
    ]
    names += sorted(name for name in entries if name.startswith("stub-"))
    ops = []
    for e in (entries[name] for name in names):
        ops.append(
            Op(f"verify-{e['name']}", ("verify", e["path"]), e["expect"], e["n"], e["k"],
               src=e["path"], cells=e["cells"], size=e["size"], valid=e["valid"])
        )
    return ops, elapsed


def check(op: Op, rc, stdout: str, stderr: str, wall: float, first) -> Record:
    """Judge one op against the CLI contract and the benchmark's checker.

    first is the same op's first record in the run, or None. A
    later output must match it byte for byte, and then inherits its
    verdict instead of being re-parsed.
    """
    text = hashlib.sha256(stdout.encode()).hexdigest()
    if rc != op.expect:
        return Record(op.name, op.case, wall, rc, f"exit {rc}, expected {op.expect}: "
                      f"{stderr.strip()[-500:]}", text)
    if op.src is not None:
        record = Record(op.name, op.case, wall, rc, None, text, op.cells, op.valid)
        want = "verdict: valid" if op.expect == 0 else "verdict: INVALID"
        lines = stdout.splitlines()
        if not lines or lines[-1] != want:
            record.problem = f"verdict line {lines[-1:]}, expected {want!r}"
        elif op.valid:
            record.transversal = "[PASS] transversal" in stdout and "[FAIL]" not in stdout
    elif op.expect != 0:
        record = Record(op.name, op.case, wall, rc, None, text)
    else:
        raw = Path(op.out).read_bytes()
        record = Record(op.name, op.case, wall, rc, None, hashlib.sha256(raw).hexdigest())
        if first is not None and first.sha256 == record.sha256:
            record.problem, record.cells = first.problem, first.cells
            record.design, record.transversal = first.design, first.transversal
            return record
        try:
            data = json.loads(raw)
        except ValueError as exc:
            record.problem = f"output is not JSON: {exc}"
            return record
        record.problem, record.transversal = check_design(data, op.n, op.k)
        if record.problem is None:
            record.cells, record.design = len(data["cells"]), True
    if record.problem is None and first is not None and first.sha256 != record.sha256:
        record.problem = "output differs from the op's first output in the run"
    return record


def run_pass(ops, mods, main, records: list, firsts: dict, tracer=None, repeat=(1, 0.0)):
    """One closed-loop pass over ops, appending a Record per op call; firsts
    maps each op timed before to its first record, and gains the new ones.
    Each op is called up to repeat[0] times in a row, until its calls
    have taken repeat[1] seconds."""
    room = mods["room"]
    for op in ops:
        calls, spent = 0, 0.0
        while calls < repeat[0] and (calls == 0 or spent < repeat[1]):
            if op.out is not None:
                Path(op.out).unlink(missing_ok=True)
            if op.cold:
                clear_room_cache(room)
            gc.collect()
            if tracer is not None:
                tracer.begin_op(op.name)
                tracer.counts["formats.bytes_in"] += op.size
            before = reference_s()
            rc, stdout, wall, stderr = call_main(main, list(op.argv))
            after = reference_s()
            record = check(op, rc, stdout, stderr, wall, firsts.get(op.name))
            record.reference_s = (before + after) / 2
            records.append(record)
            firsts.setdefault(op.name, record)
            calls, spent = calls + 1, spent + wall


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves ten samples beyond it, or the maximum with ten or fewer."""
    ordered = sorted(values)
    count = len(ordered)
    index = count - 11 if count > 10 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count - 1 - index


def end_to_end(records: list[Record], firsts: dict, setup_s: float) -> tuple[dict, str]:
    """Metrics over case times: an op's fastest scaled time across the
    run's passes, and a case's the mean of its ops' (one op per omd seed).

    Neighbours on a shared host only ever add time to an op, in bursts, so
    the fastest of several passes is the figure that stays put best from
    run to run; scaling by the reference loop takes out the slower drift
    of the host's speed. The mean over 25 seeds keeps one seed's lucky or
    unlucky search from deciding a run.
    """
    fastest: dict[str, float] = {}
    unscaled: dict[str, float] = {}
    timed: dict[str, int] = {}
    for record in records:
        fastest[record.op] = min(fastest.get(record.op, record.scaled_s), record.scaled_s)
        unscaled[record.op] = min(unscaled.get(record.op, record.wall_s), record.wall_s)
        timed[record.op] = timed.get(record.op, 0) + 1
    first = list(firsts.values())
    cases: dict[str, list[Record]] = {}
    for record in first:
        cases.setdefault(record.case, []).append(record)
    walls = [statistics.fmean(fastest[r.op] for r in ops) for ops in cases.values()]
    plain = [statistics.fmean(unscaled[r.op] for r in ops) for ops in cases.values()]
    busy = sum(walls)
    designs = [r for r in first if r.design]
    value, pct, beyond = tail(walls)
    metrics = {
        "ops_per_s": len(walls) / busy,
        "cells_per_s": sum(ops[0].cells for ops in cases.values()) / busy,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "transversal_ratio": (
            sum(r.transversal for r in designs) / len(designs) if designs else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    note = (
        f"{len(first)} ops in {len(walls)} cases, each op timed at least "
        f"{min(timed.values())} times; op_tail_s is p{pct:.1f} of {len(walls)} cases, "
        f"{beyond} beyond it; unscaled, ops_per_s {len(plain) / sum(plain):.6g} 1/s and "
        f"op_p50_s {statistics.median(plain):.6g} s; reference loop median "
        f"{statistics.median(r.reference_s for r in records) * 1e3:.3f} ms"
    )
    return metrics, note


def per_layer(tracer: Tracer, pass_ops, plain, traced, passes, attempted, failed) -> dict:
    designs = sum(op.checks_design for ops in pass_ops for op in ops) / len(pass_ops)
    metrics = tracer.layer_values(passes, designs)
    # over the ops timed both ways (not sweep's extra seeds)
    untraced = {r.op for r in plain}
    base = sum(r.wall_s for r in plain)
    with_trace = sum(r.wall_s for r in traced if r.op in untraced)
    metrics["trace.overhead_ratio"] = with_trace / base - 1 if base else 0.0
    metrics["fail_ratio"] = failed / attempted
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the omd CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omd" / "cli.py").is_file():
        print(f"bench: no omd sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        return run(args, workdir)
    except (MissingProgram, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


def setup(workload: str, seed: int, workdir: Path):
    """Load omd and prepare the ops; returns (modules, the ops of each
    alternating pass, setup seconds)."""
    if workload == "verify-files":
        before = reference_s()
        ops, elapsed = make_verify_inputs(seed, workdir)
        return load_program(), [ops], scaled(elapsed, before)
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        start = time.perf_counter()
        mods = load_program()
        pass_ops = generate_passes(workload, seed, workdir)
        times.append(scaled(time.perf_counter() - start, before))
    return mods, pass_ops, statistics.median(times)


def scaled(wall: float, before: float) -> float:
    """wall scaled by the reference loop timed before it and now."""
    return wall * REFERENCE_S / ((before + reference_s()) / 2)


def run(args, workdir: Path) -> int:
    env = env_info()
    mods, pass_ops, setup_s = setup(args.workload, args.seed, workdir)
    main = mods["cli"].main
    tracer = Tracer() if args.trace else None
    plain: list[Record] = []
    traced: list[Record] = []
    firsts: dict[str, Record] = {}
    passes = 0
    timed_out = False
    start = time.perf_counter()
    try:
        while True:
            ops = pass_ops[passes % len(pass_ops)]
            if tracer is None:
                run_pass(ops, mods, main, plain, firsts, repeat=REPEAT.get(args.workload, (1, 0.0)))
            else:
                run_pass([op for op in ops if not op.extra], mods, main, plain, firsts)
            if tracer is not None:
                tracer.install(mods)
                try:
                    run_pass(ops, mods, tracer.wrap("cli.main", main), traced, firsts, tracer)
                finally:
                    tracer.uninstall()
            passes += 1
            # whole cycles only, so every op is timed and traced equally often
            enough = passes >= MIN_PASSES and passes % len(pass_ops) == 0
            if enough and time.perf_counter() - start >= args.seconds:
                break
    except Deadline:
        timed_out = True
    signal.alarm(0)

    if not plain:
        print(f"bench: no op finished within {DEADLINE_S} s", file=sys.stderr)
        return 1
    records = plain + traced
    attempted = len(records) + timed_out
    failed = sum(r.problem is not None for r in records) + timed_out

    if tracer is not None:
        declared = [(name, unit) for name, unit, _ in LAYER_METRICS]
        values = per_layer(tracer, pass_ops, plain, traced, max(passes, 1), attempted, failed)
        note = f"per traced pass, {passes} traced pass(es) of {len(pass_ops[0])} ops"
    else:
        declared = END_TO_END
        values, note = end_to_end(plain, firsts, setup_s)
    units = dict(declared)
    metrics = {name: values[name] for name, _ in declared}
    correct = failed == 0

    digest = hashlib.sha256("".join(r.sha256 for r in firsts.values()).encode())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    details = {
        "args": vars(args),
        "env": env,
        "setup_s": setup_s,
        "passes": passes,
        "timed_out": timed_out,
        "metrics": metrics,
        "note": note,
        "outputs_sha256": digest.hexdigest(),
        "ops": [asdict(r) for r in records],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.jsonl")

    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(note)
    print(
        f"python {env['python']}, nproc {env['nproc']}, cpu {env['cpu_model']}, "
        f"commit {env['commit']}, src {env['src_sha256'][:16]}"
    )
    print(f"outputs sha256 {digest.hexdigest()}; details in {OUT.name}/{tag}.json")
    for record in [r for r in records if r.problem is not None][:5]:
        print(f"FAILED {record.op}: {record.problem}", file=sys.stderr)
    if timed_out:
        print(f"FAILED: the run passed its {DEADLINE_S} s limit", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
