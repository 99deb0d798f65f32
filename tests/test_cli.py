"""Command-line contract: exit codes, formats, reproducibility."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from omd import cli
from omd.cli import _parser, main
from omd.errors import (
    DesignError,
    FormatError,
    InvalidStarter,
    NonExistent,
    SearchExhausted,
    VerificationFailed,
)
from omd.formats import dumps_design, loads_design
from omd.room import _cached_room, build_room
from omd.verify import verify


def test_generate_json_to_stdout(capsys):
    assert main(["generate", "--n", "12", "--k", "2"]) == 0
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["side"] == 11
    assert data["meta"]["provenance"] == "hex-split"
    assert "built (12, 2)" in err


def test_generate_design_actually_verifies(capsys):
    assert main(["generate", "--n", "16", "--k", "2"]) == 0
    out, _ = capsys.readouterr()
    arr = loads_design(out)[0]
    assert verify(arr).passed


def test_generate_writes_file_and_notes_stdout(tmp_path, capsys):
    path = tmp_path / "design.json"
    assert main(["generate", "--n", "8", "--k", "2", "--out", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "built (8, 2)" in out
    assert err == ""
    assert json.loads(path.read_text())["n"] == 8


@pytest.mark.parametrize("n,k", [(6, 1), (10, 2)])
def test_generate_nonexistent_exits_two(n, k, capsys):
    assert main(["generate", "--n", str(n), "--k", str(k)]) == 2
    _, err = capsys.readouterr()
    assert "nonexistent" in err


def test_generate_grid_format(capsys):
    assert main(["generate", "--n", "8", "--k", "1", "--format", "grid"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.count("|") == 6 for line in lines)


def test_generate_latex_format(capsys):
    assert main(["generate", "--n", "4", "--k", "2", "--format", "latex"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("\\begin{array}")


def test_generate_latex_refuses_large(capsys):
    assert main(["generate", "--n", "32", "--k", "2", "--format", "latex"]) == 4
    _, err = capsys.readouterr()
    assert "cannot render" in err


def test_round_trip_verify_passes(tmp_path, capsys):
    path = tmp_path / "d.json"
    assert main(["generate", "--n", "16", "--k", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "verdict: valid" in out
    assert "[PASS] pair-coverage" in out
    assert "[PASS] transversal exact-point-coverage" in out


def test_verify_reads_the_old_indented_layout(tmp_path, capsys):
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    assert main(["generate", "--n", "16", "--k", "2", "--out", str(compact)]) == 0
    data = json.loads(compact.read_text())
    indented.write_text(json.dumps(data, indent=2))
    capsys.readouterr()
    assert main(["verify", str(compact)]) == 0
    expected, _ = capsys.readouterr()
    assert main(["verify", str(indented)]) == 0
    assert capsys.readouterr()[0] == expected
    del data["cells"][len(data["cells"]) // 2]
    indented.write_text(json.dumps(data, indent=2))
    assert main(["verify", str(indented)]) == 1
    assert "verdict: INVALID" in capsys.readouterr()[0]


def test_verify_corrupted_design_exits_one(tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["generate", "--n", "12", "--k", "2", "--out", str(path)])
    data = json.loads(path.read_text())
    del data["cells"][0]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out, _ = capsys.readouterr()
    assert "verdict: INVALID" in out
    assert "[FAIL]" in out


def test_verify_bad_meta_transversal_exits_one(tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["generate", "--n", "4", "--k", "2", "--out", str(path)])
    data = json.loads(path.read_text())
    data["meta"]["transversal"] = [[0, 0], [1, 1], [2, 2]]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out, _ = capsys.readouterr()
    assert "[FAIL] transversal exact-point-coverage" in out


def test_verify_non_matching_cell_exits_one(tmp_path, capsys):
    # a loop parses; verify refutes the cell, so the exit is 1, not 4
    path = tmp_path / "d.json"
    main(["generate", "--n", "4", "--k", "2", "--out", str(path)])
    data = json.loads(path.read_text())
    data["cells"][0]["edges"] = [[1, 1], [0, 2]]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out, _ = capsys.readouterr()
    assert "[FAIL] block-shape (cell (0, 0) repeats an endpoint)" in out
    assert out.endswith("verdict: INVALID\n")


def test_verify_malformed_json_exits_four(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{{{")
    assert main(["verify", str(path)]) == 4
    _, err = capsys.readouterr()
    assert "parse error" in err


def _with_host(host):
    return json.dumps({"n": 8, "k": 1, "side": 7, "host": host, "cells": []}).encode()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"[" * 200_000 + b"]" * 200_000,
        b'{"n": ' + b"9" * 5000 + b"}",
        _with_host({"type": "complete", "n": -5}),
        _with_host({"type": "complete", "n": 6}),
        _with_host({"type": "complete_bipartite", "a": 4, "b": 4}),
        _with_host({"type": "lex_matching", "l": 1, "s": 4}),
        _with_host({"type": "lex_matching_complete", "l": 1, "s": 4}),
        _with_host({"type": "complete_multipartite", "parts": [4, 4]}),
    ],
    ids=["not-utf8", "nested-200000-deep", "int-past-digit-limit", "host-n-minus-5",
         "host-n-6-under-n-8", "host-complete_bipartite", "host-lex_matching", "host-lex_matching_complete",
         "host-complete_multipartite"],
)
def test_verify_undecodable_file_exits_four(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_verify_missing_file_exits_four(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == 4


def _unreadable(tmp_path, case):
    """A path omd verify cannot read, and the line it writes to stderr."""
    path = tmp_path / "d.json"
    if case == "missing":
        return path, f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
    if case == "directory":
        path.mkdir()
        return path, f"cannot read {path}: [Errno 21] Is a directory: '{path}'"
    data = json.loads(dumps_design(build_room(122)[0]))
    text = json.dumps(data)
    if case == "bad-utf-8-in-cells":
        # a byte no UTF-8 sequence starts with, past the first pieces of the list
        at = text.index("]]}", len(text) // 2)
        path.write_bytes(text[:at].encode() + b"\xff" + text[at:].encode())
        return path, f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    data["cells"][-1]["row"] = 5000
    path.write_text(json.dumps(data))
    return path, f"cell (5000, {data['cells'][-1]['col']}) outside side-121 array"


@pytest.mark.parametrize("case", ["missing", "directory", "bad-utf-8-in-cells", "cell-outside"])
def test_verify_read_errors_keep_their_exit_code_and_line(tmp_path, capsys, case):
    # the lines omd verify wrote when it read every file whole
    path, line = _unreadable(tmp_path, case)
    assert main(["verify", str(path)]) == 4
    assert capsys.readouterr() == ("", f"parse error: {line}\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_verify_reads_a_pipe_whole(tmp_path, capsys):
    # a pipe cannot seek, so its text is read whole, as every file once was
    path, pipe = tmp_path / "d.json", tmp_path / "pipe"
    assert main(["generate", "--n", "16", "--k", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    expected = capsys.readouterr()
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_text(path.read_text()), daemon=True)
    writer.start()
    assert main(["verify", str(pipe)]) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr() == expected


def test_verify_malformed_meta_cells_exits_four(tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["generate", "--n", "4", "--k", "2", "--out", str(path)])
    data = json.loads(path.read_text())
    data["meta"]["transversal"] = [[0]]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 4


@pytest.mark.parametrize(
    "meta",
    [{"transversal": None}, {"transversal": "x"}, {"transversal": [[0, True]]},
     {"transversal": [[0, 1.0]]}, [1]],
    ids=["null", "string", "bool-entry", "float-entry", "meta-not-an-object"],
)
def test_verify_reads_meta_transversal_strictly(meta, tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["generate", "--n", "4", "--k", "2", "--out", str(path)])
    data = json.loads(path.read_text())
    data["meta"] = meta
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    if isinstance(meta, dict):
        assert code == 4 and out == ""
        assert err.startswith("parse error: meta.transversal") and err.count("\n") == 1
    else:
        # a meta that is not an object is ignored, transversal and all
        assert code == 0 and err == ""
        assert "transversal" not in out and out.endswith("verdict: valid\n")


def test_bad_flags_exit_four(tmp_path, capsys):
    assert main(["generate", "--n", "abc", "--k", "1"]) == 4
    assert main(["generate", "--n", "0", "--k", "1"]) == 4
    assert main(["generate", "--n", "8", "--k", "0"]) == 4
    assert main(["generate", "--n", "8", "--k", "1", "--budget", "-5"]) == 4
    assert main(["generate", "--n", "8", "--k", "1", "--budget", "0"]) == 4
    assert main(["sweep", "--n-max", "8", "--k-max", "1", "--budget", "0"]) == 4
    assert main(["sweep", "--n-max", "0", "--k-max", "0"]) == 4
    assert main(["sweep", "--n-max", "1", "--k-max", "1"]) == 4
    assert main(["sweep", "--n-max", "8", "--k-max", "0"]) == 4
    assert main([]) == 4
    # verify builds nothing, so it takes no --seed or --budget
    path = tmp_path / "d.json"
    assert main(["generate", "--n", "8", "--k", "1", "--out", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert main(["verify", str(path), "--seed", "1"]) == 4
    assert main(["verify", str(path), "--budget", "10"]) == 4
    capsys.readouterr()


def test_generate_budget_exhaustion_is_prompt_and_names_the_starter_phase():
    src = Path(__file__).resolve().parent.parent / "src"
    args = ["generate", "--n", "4000", "--k", "1", "--budget", "1"]
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "omd.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert time.monotonic() - start < 5.0
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (
        "budget exhausted: order 4000: the strong starter phase gave up "
        "after 1 steps and 1 restarts\n"
    )


# headers that claim far more than the file holds, and the first check
# that refutes each; verify's work must follow the cells, not the claim
HEADER_ONLY = {
    "n-20000": ((20000, 19999, {"type": "complete", "n": 20000}), "row-resolution"),
    "n-1e9": ((10**9, 10**9 - 1, {"type": "complete", "n": 10**9}), "row-resolution"),
    "n-1e9-side-1": ((10**9, 1, {"type": "complete", "n": 10**9}), "host-shape"),
    "side-2000000": ((8, 2_000_000, {"type": "complete", "n": 8}), "host-shape"),
    "side-1e9": ((8, 10**9, {"type": "complete", "n": 8}), "host-shape"),
}


@pytest.mark.parametrize("case", HEADER_ONLY)
def test_verify_header_only_file_is_refuted_promptly(case, tmp_path):
    (n, side, host), first_failure = HEADER_ONLY[case]
    header = {"n": n, "k": 1, "side": side, "host": host}
    path = tmp_path / "stub.json"
    path.write_text(json.dumps(dict(header, cells=[])))
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "omd.cli", "verify", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert time.monotonic() - start < 2.0
    assert done.returncode == 1, done.stderr
    failed = [line for line in done.stdout.splitlines() if line.startswith("[FAIL]")]
    assert failed[0].startswith(f"[FAIL] {first_failure} ")
    assert failed[-1].startswith("[FAIL] pair-coverage (host edge (0, ")
    # fewer cells than lines: the per-line block counts are left out
    assert "blocks: 0 total, [] per row, [] per column\n" in done.stdout
    assert done.stdout.endswith("verdict: INVALID\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# usage errors, help, each subcommand and exit codes 0, 2 and 4
REUSE_SEQUENCE = [
    ["generate", "--n", "8", "--k", "1", "--bogus"],
    ["generate", "--n", "x", "--k", "1"],
    ["generate", "--n", "8", "--k", "1", "--budget", "0"],
    ["frobnicate"],
    ["--help"],
    ["generate", "--help"],
    ["generate", "--n", "12", "--k", "2", "--seed", "1"],
    ["generate", "--n", "6", "--k", "1"],
    ["verify", "no-such-file.json"],
    ["sweep", "--n-max", "12", "--k-max", "2"],
    ["generate", "--n", "8", "--k", "2", "--format", "grid"],
    [],
]


def _run_sequence(capsys, rebuild):
    results = []
    for argv in REUSE_SEQUENCE:
        if rebuild:
            _parser.cache_clear()
        rc = main(argv)
        results.append((rc, *capsys.readouterr()))
    return results


def test_reused_parser_leaks_nothing_between_calls(capsys):
    fresh = _run_sequence(capsys, rebuild=True)
    reused = _run_sequence(capsys, rebuild=False)
    assert [rc for rc, _, _ in fresh] == [4, 4, 4, 4, 0, 0, 0, 2, 4, 0, 0, 4]
    for argv, a, b in zip(REUSE_SEQUENCE, fresh, reused):
        assert a == b, argv


def test_parser_is_built_once_per_process(capsys):
    _parser.cache_clear()
    for argv in REUSE_SEQUENCE[:7]:
        main(argv)
    capsys.readouterr()
    info = _parser.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_sweep_climbs_each_room_order_once(capsys):
    # k = 1 builds every order up to 140; the k = 2 products ask again
    # for orders up to 70, long after a 64-entry memo would drop them;
    # order 2 is built without the memo
    _cached_room.cache_clear()
    assert main(["sweep", "--n-max", "140", "--k-max", "2"]) == 0
    out = capsys.readouterr()[0]
    asked = [int(n) for n in re.findall(r"^(\d+) +1 +room ", out, re.M) if n != "2"]
    asked += [int(m) for m in re.findall(r"product\(room\((\d+)\)", out)]
    info = _cached_room.cache_info()
    assert info.misses == len(set(asked)) == 67
    assert info.hits == len(asked) - len(set(asked)) > 0


@pytest.mark.parametrize("n,k", [(16, 2), (10, 1)])
def test_generate_is_byte_identical(n, k, tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        _cached_room.cache_clear()
        args = ["generate", "--n", str(n), "--k", str(k), "--seed", "3"]
        assert main(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


# SHA-256 of `omd generate` stdout re-serialised with indent 2, one case
# per construction path (room, order 10's fixed square, diagonal,
# quad-split, hex-split, products over room(8), room(10), room(12),
# room(40) and room(56)). The digest fixes the parsed content, and stdout
# being json.dumps of that content fixes its layout, so together they
# pin every output byte
GOLDEN_DIGESTS = {
    (2, 1, 0): "e55a5807525b3041ff5353d589b8584565dcb92c7d2a169a04a18189bdfb7532",
    (8, 1, 0): "31159029ae7f3d0cfb30675ceb5f50222945ce678e72cb12c72b37d602f71cbe",
    (10, 1, 0): "786cc0e7a668693b84bb2689aa0e52228c082b486aadecc904e508e41b21a0b2",
    (12, 1, 0): "4ba2e4ddd7e74f1d80051f791e7b8ae53f0a1523468d82154c0f3fcbd9ea2aae",
    (62, 1, 0): "b84a0525ff258a7a8575b3cf7d3ad2820f225f15ce15307fc1dcf5649be3fb70",
    (122, 1, 0): "d87b9bc0dd64a1b623fe23f52eeff3feb4e6cb720eea1277b7c82706c6df951e",
    (4, 2, 0): "443e753ac20f295184591bad131912f81f17cf4329928952edc7dbb67f58b7ac",
    (8, 2, 0): "5d34c27b84bf8e8d4295e4630303010b2a84284c733efe4dd97f7a8dad305254",
    (12, 2, 0): "b694e09ff514f52d878bc3f85969e9583527e4858ac10ce2bf9016de0779fc39",
    (16, 2, 0): "ee2f847ee81074b989e648222440d60effff2b3c586a8e6b9cea22d0e55e0275",
    (20, 2, 0): "7235ee379b64353ab4cee60db48ba72ceb8ac8a112d2d34f1b7e1e25f8f8f047",
    (24, 3, 0): "c27568c1e4d547ffdd6d39fcf24ee1f0c15beb5bc2884e27f07a4507b366dd99",
    (30, 3, 0): "189eb59eb936e7115f75da2d03f2dbd17514bc4edec9e85349994e1f0bcf1674",
    (60, 5, 0): "ce6bd031fac07f9e3de170e69ae08c2ea4b918b89a9e53aaabbfc8189385e546",
    (112, 2, 0): "e5c17c45c8e0e7564db561686c01d646ca523bae31b03eba0c37ce807c5ec2d6",
    (240, 6, 0): "481200607d198322b55a6cb113a61a674b25e595384f67275cbfcaab501b5a39",
    (2, 1, 3): "18de0246400768ed3ae769cfa052d3d8febf0c253b91f6fdbd4b5d811b786faf",
    (8, 1, 3): "febf289f0eb2d275dd5c1ee6871b59ca830721e82014e2bed90a1f2afc1ef837",
    (10, 1, 3): "3625415261230bf5b602d14433149062518f73de2895998a90fb37b0ee224d08",
    (12, 1, 3): "c3e3c3ccad15e62c886800175abc37957d0c0f04e7e633a540e9831772ce65a4",
    (62, 1, 3): "a4616732807b3b4377b9f8dbdc7c0a16c33900f4c52c8f0b6305ee62e3c356f8",
    (122, 1, 3): "a9c141846c3d2c2fb722f64252400e9ab0e66b81f6fb81c6b159d311bb289a48",
    (4, 2, 3): "5e767f2eb8f7bb7ac5e01a75629d07aa11820f17de147e8a6a18be936ce14d70",
    (8, 2, 3): "04c9d9dc92da8cbf2363f7e1d1a8014c08af62bde7b82647e2458eafda6fcadf",
    (12, 2, 3): "8736a4168871a78ff11c2ee8651a28f06b829a56a47e870e26d07b9df282ebe8",
    (16, 2, 3): "7060aae75e1ebd57f17d5c253148b9b14481d68095a6d112d750fecf6bc921e7",
    (20, 2, 3): "0f71c93d41082c239a18ea767028f8fb07e34dcd98c05f5b2d23f4fd8b2efa77",
    (24, 3, 3): "2f25f8666910b229f527aae2d647e7c744475e5e500e710f22e061c57729991d",
    (30, 3, 3): "c17fdedb1139d2a7c7c9ee57d563c999f692c4cbf2c3167b12f492efc1f3d45c",
    (60, 5, 3): "a2795942fa83552a56e69d92c1824811faad42d335cb71e3ed3cdb0aeafa3611",
}


@pytest.mark.parametrize("n,k,seed", sorted(GOLDEN_DIGESTS))
def test_generate_matches_golden_digest(n, k, seed, capsys):
    _cached_room.cache_clear()
    args = ["generate", "--n", str(n), "--k", str(k), "--seed", str(seed)]
    assert main(args) == 0
    out, _ = capsys.readouterr()
    assert out == json.dumps(json.loads(out)) + "\n"
    text = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[(n, k, seed)]


# SHA-256 of the same outputs with meta.transversal removed, re-serialised
# with indent 2: the cells, header and every other meta field. A change to
# how a path picks its transversal moves GOLDEN_DIGESTS, and moves these
# only where the cells depend on it (the outer transversal of a product)
CELL_DIGESTS = {
    (2, 1, 0): "3ca46d47fd877c4f36d37e32b294d059f1a21e1581e541bf6f1fbe36c573d413",
    (2, 1, 3): "79bce58ceed1cab520976c1e020fa4685d4dc9d70709990527e5c9daab92f498",
    (4, 2, 0): "e8a96b273047dbe68502b051b3950cc270ba650a2504e9bfb88c5bcd89f97bdd",
    (4, 2, 3): "0cb2df2aff7410f4d429b6eba9581f0c47ae9d7be9b61240e8cc3eeaf7954291",
    (8, 1, 0): "a07f2dc788f3ef9340379e2dfc6bb84efd7cca0860f82ca4d7f85cb33c5a9b13",
    (8, 1, 3): "4c02df2d40fbf781013c164d6d188f5810edeb46bb9096b94cf997b85c6aa699",
    (8, 2, 0): "cd522569ead6299ba313b4f55087ae2b023229a931ce5c0d70b692afa614dc0c",
    (8, 2, 3): "8c54f7c625303d4c821973060f86956e0a0e940d1a06eef6a54f2d12be56e6a9",
    (10, 1, 0): "00cbb43aad3caba4423d2d4898fe19545280088a6810004cafdcbfd54ae6f709",
    (10, 1, 3): "4bc9033e7b6772c3498982e9911ad337165fad1ed513a5d0ba5a0557a1f4275e",
    (12, 1, 0): "d09f95bf14a5c4765a7ffb0c8622308f5d04dd43d27cee2d840c27e722162151",
    (12, 1, 3): "1c5fc688cd65ee88c537118736efb60f327c2d2fedb9c1567b4e386c19a1bb78",
    (12, 2, 0): "7614e4ba3b19b9be8c02ca085d9d715f4b8d93faa4ee57ea5183e64b839943c6",
    (12, 2, 3): "a955ce6d3e0bf43db04d632103f198c7f5b3f6a780e31344092a7fdce7e4c637",
    (16, 2, 0): "7f3b5724f7f618b0aedabd248bff21626bd63debfd231a010cc4d85540b6d248",
    (16, 2, 3): "05bc00ba5d1cc6b20dd001a3532b597052c20b36f8329baae2aaaf20afb2a000",
    (20, 2, 0): "f0dd44cb654bd24d70e179566361ff115b614327ffafe445fc93da7dace421df",
    (20, 2, 3): "a36f1c1f78393f82ca3be57e676926d6415c5bfd86cf92fe1ad579bb368aebd8",
    (24, 3, 0): "2bf04e8c3dfb8f647747c9e927f9ccf03fbab1026fbc243567a7d72e5580669c",
    (24, 3, 3): "03dbf4bd969828520a11c690d34fbd863e14da16521e81cbf5f414a9efced04f",
    (30, 3, 0): "dd8bfc079f21afb0c6e65d9a15f1b0c5733baabde61aeeddae731d81a69dcd83",
    (30, 3, 3): "75a64d8c4427b069c17390dda3db443d7154d66e8671b7df21fb671adeea822c",
    (60, 5, 0): "e49874e759c1c5ce49e9bd67ee3a448bb79f22418148967fb3ef141605aa6c8d",
    (60, 5, 3): "205b403fb8890d82ee0f53c67ac402f96f541540753db7bf44f9caa8f14e8562",
    (62, 1, 0): "47dc8bdc6a0a1415198e43ab7cb74733c279ecada3e924d3e58f696fae7210ac",
    (62, 1, 3): "eeba7b6f35d7b789acefacb4c789c24c4a65fe1800093d41f1deccc27aaf86b6",
    (122, 1, 0): "9e723db47f371ccec61c4714502b5d489aabe96d4b58eb4c4d25849d6ecfa3c7",
    (122, 1, 3): "b4328eb1e941ae6cb013ac0253944472b4cf1b2f8c6111623e45f8280894c177",
    (112, 2, 0): "f120ece2675903e88b988e0bf1318c8b3181d8d47a287363cdfbfe97fea86a5f",
    (240, 6, 0): "2b2e2421343319ecfc45e1d334b41630d2aaae394c2a36600ae9a94c2943ef97",
}


@pytest.mark.parametrize("n,k,seed", sorted(CELL_DIGESTS))
def test_generate_cells_match_pinned_digest(n, k, seed, capsys):
    _cached_room.cache_clear()
    args = ["generate", "--n", str(n), "--k", str(k), "--seed", str(seed)]
    assert main(args) == 0
    data = json.loads(capsys.readouterr()[0])
    del data["meta"]["transversal"]
    text = json.dumps(data, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == CELL_DIGESTS[(n, k, seed)]


def test_sweep_single_row(capsys):
    assert main(["sweep", "--n-max", "2", "--k-max", "1"]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].split() == ["n", "k", "path", "side", "blocks", "status"]
    assert lines[1].split() == ["2", "1", "room", "1", "1", "verified"]


def test_sweep_small_range(capsys):
    assert main(["sweep", "--n-max", "24", "--k-max", "3"]) == 0
    out, _ = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 22
    by_params = {(int(r[0]), int(r[1])): r for r in rows}
    assert by_params[(4, 1)][-1] == "nonexistent"
    assert by_params[(6, 1)][-1] == "nonexistent"
    others = [r for r in rows if (int(r[0]), int(r[1])) not in {(4, 1), (6, 1)}]
    assert all(r[-1] == "verified" for r in others)
    paths = {r[2] for r in others}
    assert {"room", "diagonal", "quad-split", "hex-split"} <= paths
    assert any(p.startswith("product(") for p in paths)


def test_sweep_writes_table_file(tmp_path, capsys):
    path = tmp_path / "table.txt"
    assert main(["sweep", "--n-max", "8", "--k-max", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert "verified" in path.read_text()


@pytest.mark.parametrize(
    "command",
    [["generate", "--n", "8", "--k", "1"], ["sweep", "--n-max", "8", "--k-max", "1"]],
    ids=["generate", "sweep"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_four(command, target, tmp_path, capsys):
    path = tmp_path / "absent" / "out.txt" if target == "missing-dir" else tmp_path
    assert main([*command, "--out", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (FormatError, 4, "parse error"),
        (NonExistent, 2, "nonexistent"),
        (SearchExhausted, 3, "budget exhausted"),
        (VerificationFailed, 1, "verification failed"),
        (InvalidStarter, 1, "internal error"),
        (DesignError, 1, "internal error"),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_main_gives_each_failure_its_exit_code_and_one_line(error, code, prefix, monkeypatch, capsys):
    def construct(*args, **kwargs):
        raise error("the reason")

    monkeypatch.setattr(cli, "construct", construct)
    assert main(["generate", "--n", "8", "--k", "1"]) == code
    assert capsys.readouterr() == ("", f"{prefix}: the reason\n")


def test_a_verification_failure_escaping_sweep_is_named(monkeypatch, capsys):
    def construct(*args, **kwargs):
        raise VerificationFailed("the reason")

    monkeypatch.setattr(cli, "construct", construct)
    assert main(["sweep", "--n-max", "8", "--k-max", "1"]) == 1
    assert capsys.readouterr() == ("", "verification failed: the reason\n")


@pytest.mark.parametrize("unexpected, code", [(False, 3), (True, 1)])
def test_sweep_exit_follows_its_rows(unexpected, code, monkeypatch, capsys):
    # an unexpected nonexistent row outranks an exhausted one
    real = cli.construct

    def construct(n, k, **kwargs):
        if (n, k) == (8, 1):
            raise SearchExhausted("spent")
        if (n, k) == (12, 1) and unexpected:
            raise NonExistent("none")
        return real(n, k, **kwargs)

    monkeypatch.setattr(cli, "construct", construct)
    assert main(["sweep", "--n-max", "12", "--k-max", "1"]) == code
    out, err = capsys.readouterr()
    statuses = [line.split()[-1] for line in out.splitlines()[1:]]
    twelve = "UNEXPECTED-nonexistent" if unexpected else "verified"
    assert statuses == ["verified", "nonexistent", "nonexistent", "budget-exhausted", "verified", twelve]
    assert err == ""
