import contextlib
import io
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


def test_decompose_reports_missing_edges(tmp_path, capsys, data_dir):
    code, out, _ = run(capsys, "decompose", str(data_dir / "h17_12.txt"), "--modulus", "1001",
                       "--rows-out", str(tmp_path / "rows.txt"),
                       "--cols-out", str(tmp_path / "cols.txt"))
    # 17 * 1001 disjoint 12-cycles leave 1001 * 1000 / 2 - 17017 * 12 edges uncovered
    assert code == 1
    assert out.splitlines() == [
        f"{label}: 17017 cycles of length 12 on Z_1001, missing 296296 edges"
        for label in ("rows", "cols")
    ]


@pytest.fixture(scope="module")
def h17_12_cycles(tmp_path_factory, data_dir):
    """Row and column cycle files of h17_12.txt, written by decompose."""
    out = tmp_path_factory.mktemp("cycles")
    rows, cols = out / "rows.txt", out / "cols.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["decompose", str(data_dir / "h17_12.txt"),
                     "--rows-out", str(rows), "--cols-out", str(cols)])
    assert code == 0
    return rows, cols


@pytest.mark.parametrize("vertex,message", [
    ("\u0660", "ASCII decimal"),  # Arabic-Indic zero, which int() reads as 0
    ("0_0", "ASCII decimal"),
    ("409", "not in Z_409"),
])
def test_orthogonality_rejects_malformed_vertices(tmp_path, capsys, h17_12_cycles,
                                                  vertex, message):
    rows, cols = h17_12_cycles
    header, first, rest = rows.read_text(encoding="utf-8").split("\n", 2)
    assert first.startswith("0 ")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([header, vertex + first[1:], rest]), encoding="utf-8")
    code, out, err = run(capsys, "orthogonality", str(bad), str(cols))
    assert code == 2 and out == "" and "cycle 0" in err and message in err


def test_orthogonality_rejects_a_repeated_vertex(tmp_path, capsys):
    # vertex 0 twice, but no edge twice, so an edge index alone accepts it
    bad = tmp_path / "bad.txt"
    bad.write_text("#cycles M=7 k=6 count=1\n0 1 2 0 3 4\n", encoding="utf-8")
    code, out, err = run(capsys, "orthogonality", str(bad), str(bad))
    assert code == 2 and out == "" and "cycle 0 repeats a vertex" in err


def test_compatibility_command(capsys, data_dir):
    code, out, _ = run(capsys, "compatibility", str(data_dir / "h17_12.txt"))
    assert code == 1 and out.startswith("NOT COMPATIBLE")


def test_usage_error_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_construction_failure_exit_code(capsys):
    # the verifier rejects the closed-form (eps, alpha) = (2, 8) at shift 2
    code, out, err = run(capsys, "construct", "--family", "h4p3", "--n", "17", "--p", "3",
                         "--shift", "2")
    assert code == 3 and out == "" and "no (eps, alpha, shift) verified" in err


@pytest.mark.parametrize("argv,flags", [
    (("--family", "h4p", "--n", "12", "--p", "3", "--shift", "5", "--gamma", "2", "--eps", "9"),
     "--gamma, --eps, --shift"),
    (("--family", "h3", "--n", "8", "--alpha", "3"), "--alpha"),
    (("--family", "shifted", "--n", "17", "--p", "3", "--gamma", "3", "--eps", "2"), "--eps"),
    (("--family", "h4p3", "--n", "17", "--p", "3", "--gamma", "3"), "--gamma"),
])
def test_construct_refuses_flags_the_family_ignores(capsys, argv, flags):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2 and out == "" and f"does not use {flags}" in err


@pytest.mark.parametrize("shift", ["-17", "-1", "17", "40"])
def test_construct_refuses_shift_outside_the_order(capsys, shift):
    code, out, err = run(capsys, "construct", "--family", "h4p3", "--n", "17", "--p", "3",
                         "--shift", shift)
    assert code == 2 and out == "" and "shift" in err


def test_construct_forced_shift_keeps_the_closed_form_pair(capsys):
    # n = 16, p = 1 has the closed-form pair (3, 7); shift 3 fails it and no
    # other pair is tried
    code, out, err = run(capsys, "construct", "--family", "h4p3", "--n", "16", "--p", "1",
                         "--shift", "3")
    assert code == 3 and out == "" and "no (eps, alpha, shift) verified" in err
    code, _, err = run(capsys, "construct", "--family", "h4p3", "--n", "16", "--p", "1")
    assert code == 0 and "alpha=7" in err and "eps=3" in err and "t=0" in err


def test_verify_rejects_non_ascii_header_digits(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("#heffter m=\u0661 n=2 s=1 t=1\n1,-1\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2 and out == "" and "header" in err


def test_orthogonality_rejects_non_ascii_header_digits(tmp_path, capsys, data_dir):
    rows = tmp_path / "rows.txt"
    cols = tmp_path / "cols.txt"
    code, _, _ = run(capsys, "decompose", str(data_dir / "h17_12.txt"),
                     "--rows-out", str(rows), "--cols-out", str(cols))
    assert code == 0
    bad = tmp_path / "bad.txt"
    text = rows.read_text(encoding="utf-8")
    bad.write_text(text.replace("M=409", "M=\u0664\u0660\u0669", 1), encoding="utf-8")
    code, out, err = run(capsys, "orthogonality", str(bad), str(cols))
    assert code == 2 and out == "" and "#cycles header" in err


@pytest.mark.parametrize("name,level,extra", [
    ("h17_12.txt", "integer", ()),
    ("h17_12_3.txt", "support-shifted", ("--p", "3", "--gamma", "3")),
])
def test_verify_refuses_unused_modulus(capsys, data_dir, name, level, extra):
    path = str(data_dir / name)
    code, out, err = run(capsys, "verify", path, "--level", level, *extra, "--modulus", "5")
    assert code == 2 and out == "" and "--modulus" in err
    code, out, _ = run(capsys, "verify", path, "--level", level, *extra)
    assert code == 0 and out.endswith("OVERALL PASS\n")


def test_verify_globally_simple_checks_line_sums_mod_modulus(capsys, data_dir):
    code, out, _ = run(capsys, "verify", str(data_dir / "h17_12.txt"),
                       "--level", "globally-simple", "--modulus", "411")
    assert code == 0
    assert "CHECK line-sums-mod-411 PASS" in out and "CHECK natural-simple-mod-411 PASS" in out
    assert "409" not in out
