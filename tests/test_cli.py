import json

import pytest

from heffter.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_construct_h4p_matches_golden(tmp_path, capsys, data_dir):
    out_path = tmp_path / "g.txt"
    code, _, err = run(capsys, "construct", "--family", "h4p", "--n", "17", "--p", "3",
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (data_dir / "h17_12.txt").read_text()
    assert "PARAMS family=h4p" in err and "M=409" in err


def test_construct_shifted_matches_golden(tmp_path, capsys, data_dir):
    out_path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "construct", "--family", "shifted", "--n", "17", "--p", "3",
                     "--gamma", "3", "--alpha", "6", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (data_dir / "h17_12_3.txt").read_text()


def test_construct_h4p3_matches_golden(tmp_path, capsys, data_dir):
    out_path = tmp_path / "g.txt"
    code, _, err = run(capsys, "construct", "--family", "h4p3", "--n", "17", "--p", "3",
                       "--alpha", "8", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (data_dir / "h17_15.txt").read_text()
    assert "alpha=8" in err and "t=0" in err


def test_construct_to_stdout(capsys):
    code, out, _ = run(capsys, "construct", "--family", "h3", "--n", "8")
    assert code == 0
    assert out.startswith("#heffter m=8 n=8 s=3 t=3\n")


def test_construct_json_report(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, out, _ = run(capsys, "construct", "--family", "h4p", "--n", "12", "--p", "3",
                       "--out", str(out_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["M"] == 289 and payload["verified"]


def test_construct_missing_parameter(capsys):
    code, _, err = run(capsys, "construct", "--family", "h4p", "--n", "17")
    assert code == 2 and "--p" in err


def test_construct_bad_parameters(capsys):
    code, _, err = run(capsys, "construct", "--family", "h4p", "--n", "10", "--p", "3")
    assert code == 2 and "error" in err


def test_verify_pass(capsys, data_dir):
    code, out, _ = run(capsys, "verify", str(data_dir / "h6_12_8_4.txt"))
    assert code == 0
    assert out.endswith("OVERALL PASS\n")


def test_verify_globally_simple_level(capsys, data_dir):
    code, out, _ = run(capsys, "verify", str(data_dir / "h17_12.txt"),
                       "--level", "globally-simple")
    assert code == 0 and "natural-simple-mod-409 PASS" in out


def test_verify_support_shifted_level(capsys, data_dir):
    code, out, _ = run(capsys, "verify", str(data_dir / "h17_12_3.txt"),
                       "--level", "support-shifted", "--p", "3", "--gamma", "3")
    assert code == 0 and "OVERALL PASS" in out


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("#heffter m=1 n=2 s=1 t=1\n1,1\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1 and "OVERALL FAIL" in out


def test_verify_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a grid\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "header" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", str(tmp_path / "absent.txt"))
    assert code == 2


def test_verify_json(capsys, data_dir):
    code, out, _ = run(capsys, "verify", str(data_dir / "h17_12.txt"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] and payload["checks"]


def test_partial_sums_diagonal_order(capsys, data_dir):
    code, out, _ = run(capsys, "partial-sums", str(data_dir / "h17_12_3.txt"),
                       "--lines", "rows", "--order", "diagonal", "--modulus", "511")
    assert code == 0
    assert out.splitlines()[0] == "row 0: 85 1 150 2 215 3 -250 -82 -251 -147 -252 0"


def test_partial_sums_collision_reported(tmp_path, capsys):
    bad = tmp_path / "g.txt"
    bad.write_text("#heffter m=1 n=3 s=3 t=1\n1,5,-6\n")
    code, out, _ = run(capsys, "partial-sums", str(bad), "--lines", "rows", "--modulus", "5")
    assert code == 1 and "collision" in out


def test_decompose_and_orthogonality(tmp_path, capsys, data_dir):
    rows = tmp_path / "rows.txt"
    cols = tmp_path / "cols.txt"
    code, out, _ = run(capsys, "decompose", str(data_dir / "h17_12.txt"),
                       "--rows-out", str(rows), "--cols-out", str(cols))
    assert code == 0 and "6953 cycles" in out
    code, out, _ = run(capsys, "orthogonality", str(rows), str(cols))
    assert code == 0 and out.startswith("ORTHOGONAL")
    code, out, _ = run(capsys, "orthogonality", str(rows), str(rows))
    assert code == 1 and out.startswith("NOT ORTHOGONAL")


def test_compatibility_command(capsys, data_dir):
    code, out, _ = run(capsys, "compatibility", str(data_dir / "h17_12.txt"))
    assert code == 1 and out.startswith("NOT COMPATIBLE")


def test_usage_error_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_construction_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("HEFFTER_SEARCH_BUDGET", "10")
    code, out, err = run(capsys, "construct", "--family", "h3", "--n", "20")
    assert code == 3 and out == "" and "no H(20;3) found" in err
