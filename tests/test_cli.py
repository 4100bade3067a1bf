"""Command-level tests: exit codes, report shapes, artifact determinism."""

from __future__ import annotations

import json

import pytest

from lislab.cli import main, render_csv, run_suite
from lislab.core import lis_dp, read_sequence_file, write_sequence_file, Sequence
from lislab.robp import streaming_lis_program, write_program_file
from lislab.type2 import read_matrix_file


def test_lis_command_labels(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    write_sequence_file(str(path), Sequence.of((3, 1, 2, 5, 4)))
    assert main(["lis", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["lis=3", "lds=2", "distance_to_monotonicity=2"]


def test_lis_command_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    assert main(["lis", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["lis=0", "lds=0", "distance_to_monotonicity=0"]


def test_lis_command_missing_file(capsys):
    assert main(["lis", "no/such/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lis_command_malformed(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 x 1\n")
    assert main(["lis", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _gen(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_gen_type1_artifacts(tmp_path, capsys):
    files = _gen(tmp_path, "a", ["gen", "type1", "--n", "64", "--seed", "1"])
    assert set(files) == {
        "type1_n64_seed1_zuv.txt",
        "type1_n64_seed1_zvu.txt",
        "type1_n64_seed1.json",
    }
    sidecar = json.loads(files["type1_n64_seed1.json"])
    assert sidecar["bounds"] == [32, 31]
    assert sidecar["code"]["length"] == 16
    assert sidecar["u"] != sidecar["v"]
    zuv = read_sequence_file(str(tmp_path / "a" / "type1_n64_seed1_zuv.txt"))
    zvu = read_sequence_file(str(tmp_path / "a" / "type1_n64_seed1_zvu.txt"))
    assert len(zuv) == len(zvu) == 64
    assert min(lis_dp(zuv), lis_dp(zvu)) <= 31


def test_gen_type2_artifacts(tmp_path):
    files = _gen(tmp_path, "a", ["gen", "type2", "--p", "2", "--q", "2", "--seed", "1"])
    matrix = read_matrix_file(str(tmp_path / "a" / "type2_p2_q2_seed1_matrix.txt"))
    assert len(matrix) == 18 and len(matrix[0]) == 16
    sigma = read_sequence_file(str(tmp_path / "a" / "type2_p2_q2_seed1_sigma.txt"))
    assert len(sigma) == 18 * 16
    sidecar = json.loads(files["type2_p2_q2_seed1.json"])
    assert sidecar["equal_ceiling"] == 22 and sidecar["distinct_floor"] == 19
    assert 19 <= sidecar["weight"] <= 22


def test_gen_disj_sidecar_consistent(tmp_path):
    for seed in range(6):
        files = _gen(
            tmp_path, f"s{seed}",
            ["gen", "disj", "--m", "4", "--k", "2", "--seed", str(seed)],
        )
        sidecar = json.loads(files[f"disj_m4_k2_seed{seed}.json"])
        assert sidecar["lis_matches_disjointness"] is True
        seq = read_sequence_file(str(tmp_path / f"s{seed}" / f"disj_m4_k2_seed{seed}.txt"))
        assert lis_dp(seq) == sidecar["lis"]


def test_gen_disj_rejects_oversized_support(tmp_path, capsys):
    rc = main(["gen", "disj", "--m", "2", "--k", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "support" in capsys.readouterr().err


def test_gen_rejects_flags_the_kind_does_not_take(tmp_path, capsys):
    for argv in (
        ["gen", "disj", "--p", "9", "--R", "3"],
        ["gen", "type1", "--m", "3"],
        ["gen", "type2", "--n", "4"],
        ["gen", "family", "--q", "2"],
    ):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "does not take" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_explicit_zero_is_not_the_default(tmp_path, capsys):
    for argv in (
        ["gen", "type1", "--n", "0"],
        ["gen", "family", "--count", "0"],
        ["gen", "family", "--budget", "0"],
        ["gen", "type2", "--p", "0"],
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_family_artifact(tmp_path):
    files = _gen(tmp_path, "a", ["gen", "family", "--seed", "1"])
    doc = json.loads(files["family_n10_m1000_k2_seed1.json"])
    assert doc["size"] >= 8
    for seq in doc["sequences"]:
        assert len(seq) == 10
        assert all(a < b for a, b in zip(seq, seq[1:]))


def test_gen_reruns_byte_identical(tmp_path):
    for argv in (
        ["gen", "type1", "--n", "64", "--seed", "2"],
        ["gen", "type2", "--p", "2", "--q", "2", "--seed", "2"],
        ["gen", "disj", "--seed", "2"],
        ["gen", "family", "--seed", "2"],
    ):
        first = _gen(tmp_path / argv[1], "first", list(argv))
        second = _gen(tmp_path / argv[1], "second", list(argv))
        assert first == second


def test_run_suite_report_shape():
    report = run_suite("es")
    assert set(report) == {"suite", "params", "checks", "passed", "runtime_seconds"}
    assert report["suite"] == "es" and report["passed"] is True
    for row in report["checks"]:
        assert {"check", "passed", "count", "violations"} <= set(row)


def test_run_suite_rejects_unknown_names_and_params():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")
    with pytest.raises(ValueError, match="does not take"):
        run_suite("es", seed=1)


def test_verify_csv_bytes(tmp_path):
    out = tmp_path / "rep.csv"
    assert main(["verify", "es", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == (
        "suite,check,passed,count,violations\nes,monotone-witness,true,120,0\n"
    )


def test_verify_json_stable_modulo_runtime(capsys):
    assert main(["verify", "oracles", "--count", "300", "--seed", "5"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify", "oracles", "--count", "300", "--seed", "5"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("runtime_seconds"), second.pop("runtime_seconds")
    assert first == second
    assert first["passed"] is True


def test_csv_render_matches_checks():
    report = run_suite("distinguisher", count=5, seed=0)
    lines = render_csv(report).splitlines()
    assert lines[0] == "suite,check,passed,count,violations"
    assert len(lines) == 1 + len(report["checks"])
    assert lines[1].startswith("distinguisher,padded-pairs-n5,")


def test_verify_rejects_flags_the_suite_does_not_take(capsys):
    for argv in (
        ["verify", "type2", "--p", "128"],
        ["verify", "type2", "--q", "128"],
        ["verify", "es", "--R", "3"],
    ):
        assert main(argv) == 2
        assert "does not take" in capsys.readouterr().err


def test_verify_exit_code_tracks_verdict(tmp_path):
    assert main(["verify", "random-order", "--count", "50"]) == 0


def test_bp_check_happy_path(tmp_path, capsys):
    path = tmp_path / "prog.json"
    write_program_file(str(path), streaming_lis_program(3, 3))
    rc = main(["bp-check", str(path), "--n", "3", "--m", "3", "--R", "3"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "size=17" in out and "read_once=yes" in out and "computes_lis=yes" in out


def test_bp_check_alphabet_mismatch(tmp_path, capsys):
    path = tmp_path / "prog.json"
    write_program_file(str(path), streaming_lis_program(3, 3))
    assert main(["bp-check", str(path), "--R", "5"]) == 1
    assert "alphabet-mismatch" in capsys.readouterr().out


def test_bp_check_takes_only_R_n_m(tmp_path, capsys):
    path = tmp_path / "prog.json"
    write_program_file(str(path), streaming_lis_program(3, 3))
    for flags in (["--seed", "5"], ["--p", "3"], ["--out", str(tmp_path / "x")]):
        with pytest.raises(SystemExit) as exc:
            main(["bp-check", str(path), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bp_check_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"r_way\": 2}")
    assert main(["bp-check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
