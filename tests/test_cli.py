"""Command-line contract: exit codes, formats, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omd.cli import main
from omd.formats import loads_design
from omd.room import _cached_room
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
    arr = loads_design(out)
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


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000, b'{"n": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "nested-200000-deep", "int-past-digit-limit"],
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


def test_verify_malformed_meta_cells_exits_four(tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["generate", "--n", "4", "--k", "2", "--out", str(path)])
    data = json.loads(path.read_text())
    data["meta"]["transversal"] = [[0]]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 4


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


# headers that claim far more than the file holds, and the first check
# that refutes each; verify's work must follow the cells, not the claim
HEADER_ONLY = {
    "n-20000": ((20000, 19999, {"type": "complete", "n": 20000}), "row-resolution"),
    "side-2000000": ((8, 2_000_000, {"type": "complete", "n": 8}), "host-shape"),
    "lex-matching-s-1e8": (
        (2 * 10**8, 1, {"type": "lex_matching", "l": 1, "s": 10**8}),
        "host-shape",
    ),
    "multipartite-1e8-1": (
        (10**8 + 1, 1, {"type": "complete_multipartite", "parts": [10**8, 1]}),
        "host-shape",
    ),
}


@pytest.mark.parametrize("case", HEADER_ONLY)
def test_verify_header_only_file_is_refuted_promptly(case, tmp_path):
    (n, side, host), first_failure = HEADER_ONLY[case]
    header = {"n": n, "k": 1, "side": side, "host": host}
    path = tmp_path / "stub.json"
    path.write_text(json.dumps(dict(header, cells=[])))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "omd.cli", "verify", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 1, done.stderr
    failed = [line for line in done.stdout.splitlines() if line.startswith("[FAIL]")]
    assert failed[0].startswith(f"[FAIL] {first_failure} ")
    assert failed[-1].startswith("[FAIL] pair-coverage (host edge (0, ")
    assert done.stdout.endswith("verdict: INVALID\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("n,k", [(16, 2), (10, 1)])
def test_generate_is_byte_identical(n, k, tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        _cached_room.cache_clear()
        args = ["generate", "--n", str(n), "--k", str(k), "--seed", "3"]
        assert main(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


# SHA-256 of `omd generate` stdout, one case per construction path (room,
# order 10's fixed square, diagonal, quad-split, hex-split, products over
# room(8), room(10) and room(12)); any change in output bytes shows here
GOLDEN_DIGESTS = {
    (2, 1, 0): "e55a5807525b3041ff5353d589b8584565dcb92c7d2a169a04a18189bdfb7532",
    (8, 1, 0): "31159029ae7f3d0cfb30675ceb5f50222945ce678e72cb12c72b37d602f71cbe",
    (10, 1, 0): "786cc0e7a668693b84bb2689aa0e52228c082b486aadecc904e508e41b21a0b2",
    (12, 1, 0): "1d1a48b79282e223de8d878a2b59771b98cad99da22e14c3805867a1b13eb124",
    (62, 1, 0): "47cdb3cdc3d36726b4b69792dc503534c81c04a0b1288296cefaa2eb56728f9a",
    (122, 1, 0): "ed95f0bfa95007d05dca3fb2b31a64d499ce71e8a451e6332522db9fc401228f",
    (4, 2, 0): "443e753ac20f295184591bad131912f81f17cf4329928952edc7dbb67f58b7ac",
    (8, 2, 0): "5d34c27b84bf8e8d4295e4630303010b2a84284c733efe4dd97f7a8dad305254",
    (12, 2, 0): "b694e09ff514f52d878bc3f85969e9583527e4858ac10ce2bf9016de0779fc39",
    (16, 2, 0): "ee2f847ee81074b989e648222440d60effff2b3c586a8e6b9cea22d0e55e0275",
    (20, 2, 0): "7235ee379b64353ab4cee60db48ba72ceb8ac8a112d2d34f1b7e1e25f8f8f047",
    (24, 3, 0): "c27568c1e4d547ffdd6d39fcf24ee1f0c15beb5bc2884e27f07a4507b366dd99",
    (30, 3, 0): "189eb59eb936e7115f75da2d03f2dbd17514bc4edec9e85349994e1f0bcf1674",
    (60, 5, 0): "307ed8db70a26e50e0620533b652a2dfa7142d3fbe5cbabf424abec1297e5860",
    (2, 1, 3): "18de0246400768ed3ae769cfa052d3d8febf0c253b91f6fdbd4b5d811b786faf",
    (8, 1, 3): "febf289f0eb2d275dd5c1ee6871b59ca830721e82014e2bed90a1f2afc1ef837",
    (10, 1, 3): "3625415261230bf5b602d14433149062518f73de2895998a90fb37b0ee224d08",
    (12, 1, 3): "a93bc2dd260a54d8a77ed5ee7298e1d36b47dba1b27468a07f40eef30187d6b9",
    (62, 1, 3): "c027785e9206b194d2ec1f82fd1eaab373861512b278d3ff6fe6af22af2a2569",
    (122, 1, 3): "0c5073eab29e84675aa7853639c8cdcd362bc3755e978d8d411788017ef846d0",
    (4, 2, 3): "5e767f2eb8f7bb7ac5e01a75629d07aa11820f17de147e8a6a18be936ce14d70",
    (8, 2, 3): "04c9d9dc92da8cbf2363f7e1d1a8014c08af62bde7b82647e2458eafda6fcadf",
    (12, 2, 3): "8736a4168871a78ff11c2ee8651a28f06b829a56a47e870e26d07b9df282ebe8",
    (16, 2, 3): "7060aae75e1ebd57f17d5c253148b9b14481d68095a6d112d750fecf6bc921e7",
    (20, 2, 3): "0f71c93d41082c239a18ea767028f8fb07e34dcd98c05f5b2d23f4fd8b2efa77",
    (24, 3, 3): "2f25f8666910b229f527aae2d647e7c744475e5e500e710f22e061c57729991d",
    (30, 3, 3): "c17fdedb1139d2a7c7c9ee57d563c999f692c4cbf2c3167b12f492efc1f3d45c",
    (60, 5, 3): "b7bbfda72a7b970383a5d517e09cbaa03d045986dbc83e3f3bc8cedea08e0f3c",
}


@pytest.mark.parametrize("n,k,seed", sorted(GOLDEN_DIGESTS))
def test_generate_matches_golden_digest(n, k, seed, capsys):
    _cached_room.cache_clear()
    args = ["generate", "--n", str(n), "--k", str(k), "--seed", str(seed)]
    assert main(args) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[(n, k, seed)]


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
