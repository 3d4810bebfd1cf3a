import argparse
import contextlib
import errno
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import heffter
from heffter import cli, merge
from heffter.cli import main
from heffter.construct4p import build_h4p
from heffter.decompose import line_system, write_system
from heffter.gridio import grid_to_text


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
    assert err == "PARAMS family=h4p3 M=511 alpha=8 beta=11 eps=2 k=15 n=17 p=3\n"


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


def _set_field(a, j, value):
    def edit(rows):
        rows[a][j] = value
    return edit


def _pad_empty_fields_of_row_0_and_break_row_299(rows):
    rows[0] = [f or " \t" for f in rows[0]]
    rows[299][299] = "x"


@pytest.mark.parametrize("edit, message", [
    (_set_field(5, 299, "1.0"), "bad entry '1.0' at line 7, field 300"),
    (_set_field(5, 299, "0"), "cell (5,299) holds 0; empty cells must be absent"),
    # whitespace-only fields are empty cells, so the first error is in the last row
    (_pad_empty_fields_of_row_0_and_break_row_299, "bad entry 'x' at line 301, field 300"),
], ids=["bad-field-300", "zero-entry", "whitespace-only-fields"])
def test_verify_refuses_malformed_sparse_grids(tmp_path, capsys, edit, message):
    # H(300;12) leaves 96% of its fields empty
    header, *lines = grid_to_text(build_h4p(300, 3)).splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows)
    path = tmp_path / "sparse.txt"
    path.write_text("\n".join([header, *map(",".join, rows)]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


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
    assert code == 2 and out == "" and f"{bad}: line 2: " in err and message in err


def test_orthogonality_rejects_a_repeated_vertex(tmp_path, capsys):
    # vertex 0 twice, but no edge twice, so an edge index alone accepts it
    bad = tmp_path / "bad.txt"
    bad.write_text("#cycles M=7 k=6 count=7\n" + "0 1 2 0 3 4\n" * 7, encoding="utf-8")
    code, out, err = run(capsys, "orthogonality", str(bad), str(bad))
    assert (code, out, err) == (2, "", f"error: {bad}: line 2 repeats a vertex\n")


def test_usage_error_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_docstring_lists_exactly_the_subcommands():
    listed = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1).split()
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert [name.rstrip(",") for name in listed] == list(sub.choices)


def exit_codes_named(text):
    """Every integer in the "Exit codes: ..." sentence of ``text``."""
    sentence = re.search(r"Exit codes: (.*?)\.(?:\s|$)", text, re.DOTALL).group(1)
    return [int(code) for code in re.findall(r"\b\d+\b", sentence)]


def test_docs_list_exactly_the_exit_codes():
    constants = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert constants == [0, 1, 2]
    assert exit_codes_named(cli.__doc__) == constants
    assert exit_codes_named(readme.read_text(encoding="utf-8")) == constants


@pytest.mark.parametrize("argv,flags", [
    (("--family", "h4p", "--n", "12", "--p", "3", "--gamma", "2", "--eps", "9"),
     "--gamma, --eps"),
    (("--family", "h3", "--n", "8", "--alpha", "3"), "--alpha"),
    (("--family", "shifted", "--n", "17", "--p", "3", "--gamma", "3", "--eps", "2"), "--eps"),
    (("--family", "h4p3", "--n", "17", "--p", "3", "--gamma", "3"), "--gamma"),
    (("--family", "h3", "--n", "8", "--p", "3", "--alpha", "3"), "--p, --alpha"),
])
def test_construct_refuses_flags_the_family_ignores(capsys, argv, flags):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2 and out == "" and f"does not use {flags}" in err


def test_rejected_overlay_exits_2_and_names_its_parameters(capsys, monkeypatch):
    # no input build_h4p3 accepts is known to reach this (see test_merge's sweeps)
    monkeypatch.setattr(merge, "_full_verify", lambda grid, n, k: False)
    code, out, err = run(capsys, "construct", "--family", "h4p3", "--n", "17", "--p", "3")
    assert (code, out) == (2, "")
    assert err == "error: the verifier rejected the overlay for n=17, p=3, eps=2, alpha=8\n"


@pytest.mark.parametrize("shift", ["-17", "-1", "0", "17", "40"])
def test_construct_refuses_shift_outside_the_order(capsys, shift):
    # h4p3 builds one array per (n, p, eps, alpha), so no shift is an option
    code, out, err = run(capsys, "construct", "--family", "h4p3", "--n", "17", "--p", "3",
                         "--shift", shift)
    assert code == 2 and out == ""
    assert err.endswith(f"heffter: error: unrecognized arguments: --shift {shift}\n")


def test_construct_forced_shift_keeps_the_closed_form_pair(capsys):
    # n = 16, p = 1 has the closed-form pair (3, 7), and no shift is applied
    code, _, err = run(capsys, "construct", "--family", "h4p3", "--n", "16", "--p", "1")
    assert (code, err) == (0, "PARAMS family=h4p3 M=225 alpha=7 beta=5 eps=3 k=7 n=16 p=1\n")


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


# grids without a square shape or uniform rows, refused the same way by every command
NO_DEFAULT_MODULUS = [
    ("partial-sums", "{data}/h6_12_8_4.txt"),
    ("decompose", "{data}/h6_12_8_4.txt", "--rows-out", "{tmp}/r.txt", "--cols-out", "{tmp}/c.txt"),
    ("verify", "{data}/h6_12_8_4.txt", "--level", "globally-simple"),
]


@pytest.mark.parametrize("argv", [
    ("construct", "--family", "h4p", "--n", "12", "--p", "3", "--out", "{tmp}/absent/g.txt"),
    ("decompose", "{data}/h17_12.txt", "--rows-out", "{tmp}/absent/r.txt",
     "--cols-out", "{tmp}/c.txt"),
    ("decompose", "{data}/h17_12.txt", "--rows-out", "{tmp}/r.txt",
     "--cols-out", "{tmp}/absent/c.txt"),
    ("orthogonality", "{tmp}/absent.txt", "{tmp}/absent.txt"),
    ("verify", "{data}/h17_12.txt", "--modulus", "0"),
    ("verify", "{data}/h17_12.txt", "--modulus", "-409"),
    ("partial-sums", "{data}/h17_12.txt", "--modulus", "0"),
    ("partial-sums", "{data}/h17_12.txt", "--modulus", "-409"),
    ("decompose", "{data}/h17_12.txt", "--modulus", "0",
     "--rows-out", "{tmp}/r.txt", "--cols-out", "{tmp}/c.txt"),
    ("decompose", "{data}/h17_12.txt", "--modulus", "-409",
     "--rows-out", "{tmp}/r.txt", "--cols-out", "{tmp}/c.txt"),
    ("partial-sums", "{data}/h6_12_8_4.txt", "--order", "diagonal", "--modulus", "97"),
    ("construct", "--family", "h3", "--n", "8", "--p", "3"),
    ("verify", "{data}/h17_12_3.txt", "--level", "support-shifted", "--p", "3", "--gamma", "-1"),
    ("verify", "{data}/h17_12.txt", "--s", "-3", "--t", "-3"),
    ("verify", "{data}/h17_12.txt", "--p", "7", "--gamma", "9"),
    ("verify", "{data}/h17_12.txt", "--level", "integer", "--gamma", "9"),
    ("compatibility", "{data}/h17_12.txt"),
    ("decompose", "{data}/h17_12.txt", "--rows-out", "{tmp}/x.txt", "--cols-out", "{tmp}/./x.txt"),
    *NO_DEFAULT_MODULUS,
], ids=["construct-out", "decompose-rows-out", "decompose-cols-out", "orthogonality-missing",
        "verify-mod-0", "verify-mod-neg", "partial-sums-mod-0", "partial-sums-mod-neg",
        "decompose-mod-0", "decompose-mod-neg", "partial-sums-diagonal-non-square",
        "construct-h3-p", "verify-gamma-neg", "verify-s-t", "verify-heffter-p-gamma",
        "verify-integer-gamma", "compatibility-removed", "decompose-same-out",
        "partial-sums-no-default-modulus", "decompose-no-default-modulus",
        "verify-no-default-modulus"])
def test_usage_and_io_errors_exit_2(tmp_path, capsys, data_dir, argv):
    argv = [arg.format(tmp=tmp_path, data=data_dir) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.strip()
    # no partial output either: decompose-cols-out must not leave its rows file
    assert not any(tmp_path.iterdir())


def test_failed_decompose_keeps_an_earlier_rows_file(tmp_path, capsys, data_dir):
    rows, cols = tmp_path / "r.txt", tmp_path / "missing" / "c.txt"
    rows.write_text("previous\n", encoding="utf-8")
    code, out, err = run(capsys, "decompose", str(data_dir / "h17_12.txt"),
                         "--rows-out", str(rows), "--cols-out", str(cols))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(cols)!r}\n"
    assert rows.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.txt"]


@pytest.mark.parametrize("rows_name,cols_name", [("a.new", "a"), ("b", "b.new")])
def test_decompose_outputs_named_like_a_staging_file(tmp_path, capsys, data_dir, h17_12_cycles,
                                                     rows_name, cols_name):
    # one output's name is the other's plus ".new"; neither may be staged over the other
    rows, cols = tmp_path / rows_name, tmp_path / cols_name
    code, out, err = run(capsys, "decompose", str(data_dir / "h17_12.txt"),
                         "--rows-out", str(rows), "--cols-out", str(cols))
    assert (code, err) == (0, "") and out.count(", complete\n") == 2
    assert rows.read_bytes() == h17_12_cycles[0].read_bytes()
    assert cols.read_bytes() == h17_12_cycles[1].read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([rows_name, cols_name])


def test_decompose_into_a_directory_names_it(tmp_path, capsys, data_dir):
    # the message names the output, not a staging file
    cols = tmp_path / "c"
    cols.mkdir()
    code, out, err = run(capsys, "decompose", str(data_dir / "h17_12.txt"),
                         "--rows-out", str(tmp_path / "r.txt"), "--cols-out", str(cols))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(cols)!r}\n"
    assert not list(tmp_path.glob("*.new*"))


@pytest.mark.parametrize("directory", ["rows", "cols"])
def test_decompose_into_a_directory_writes_nothing(tmp_path, capsys, data_dir, directory):
    paths = {"rows": tmp_path / "r.cyc", "cols": tmp_path / "c.cyc"}
    paths[directory].mkdir()
    other = paths["cols" if directory == "rows" else "rows"]
    other.write_bytes(b"earlier\n")
    code, out, err = run(capsys, "decompose", str(data_dir / "h17_12.txt"),
                         "--rows-out", str(paths["rows"]), "--cols-out", str(paths["cols"]))
    assert (code, out) == (2, "")
    assert err == (f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                   f"{str(paths[directory])!r}\n")
    assert other.read_bytes() == b"earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cyc", "r.cyc"]


def test_decompose_without_room_exits_2_and_keeps_earlier_files(tmp_path, capsys, data_dir,
                                                                 monkeypatch):
    def full(fd, offset, size):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", full)
    rows, cols = tmp_path / "r.cyc", tmp_path / "c.cyc"
    rows.write_bytes(b"earlier\n")
    code, out, err = run(capsys, "decompose", str(data_dir / "h17_12.txt"),
                         "--rows-out", str(rows), "--cols-out", str(cols))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert rows.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.cyc"]


def test_one_default_modulus_refusal(tmp_path, capsys, data_dir):
    errors = set()
    for argv in NO_DEFAULT_MODULUS:
        code, _, err = run(capsys, *[arg.format(tmp=tmp_path, data=data_dir) for arg in argv])
        assert code == 2
        errors.add(err)
    assert errors == {"error: grid has no default modulus: it is not square; pass --modulus\n"}


def test_decompose_reports_a_non_simple_grid_once(tmp_path, capsys, data_dir):
    # no row of h6_12_8_4 has distinct partial sums mod 97
    rows, cols = tmp_path / "rows.txt", tmp_path / "cols.txt"
    code, out, err = run(capsys, "decompose", str(data_dir / "h6_12_8_4.txt"),
                         "--modulus", "97", "--rows-out", str(rows), "--cols-out", str(cols))
    assert code == 1 and out == ""
    assert err.startswith("decomposition failed: row 0: partial sums collide at positions ")
    assert len(err.splitlines()) == 1
    assert not rows.exists() and not cols.exists()


@pytest.mark.parametrize("text,extra,k", [
    ("#heffter m=2 n=2 s=0 t=0\n,\n,\n", (), 0),
    ("#heffter m=1 n=1 s=1 t=1\n5\n", ("--modulus", "5"), 1),
    ("#heffter m=2 n=2 s=2 t=2\n1,-1\n-1,1\n", (), 2),
])
def test_decompose_refuses_lines_of_fewer_than_3_fills(tmp_path, capsys, text, extra, k):
    grid = tmp_path / "g.txt"
    grid.write_text(text, encoding="utf-8")
    rows, cols = tmp_path / "rows.txt", tmp_path / "cols.txt"
    assert run(capsys, "decompose", str(grid), *extra, "--rows-out", str(rows),
               "--cols-out", str(cols)) == (
        2, "", f"error: a base cycle needs at least 3 vertices, got {k}\n")
    assert not rows.exists() and not cols.exists()


@pytest.mark.parametrize("p", ["1", "2"])
def test_construct_h4p_covers_k_4_and_8(tmp_path, capsys, p):
    code, out, err = run(capsys, "construct", "--family", "h4p", "--n", "9", "--p", p,
                         "--out", str(tmp_path / "g.txt"))
    assert code == 0 and out == "" and f"k={4 * int(p)}" in err


@pytest.mark.parametrize("level", ["heffter", "integer", "globally-simple"])
def test_verify_refuses_p_and_gamma_outside_support_shifted(capsys, data_dir, level):
    code, out, err = run(capsys, "verify", str(data_dir / "h17_12.txt"), "--level", level,
                         "--p", "7", "--gamma", "9")
    assert (code, out, err) == (2, "", f"error: --p is not used at level {level}\n")


SRC = pathlib.Path(heffter.__file__).resolve().parent.parent
PEAK_LIMIT_MB = 64


# The child reports its own peak.  Exec resets VmHWM, but the ru_maxrss that
# os.wait4 gives starts from the peak of the process that forked the child,
# here the whole test session.
_MEASURED_CLI = """
import sys
from heffter.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write(str(peak_kib))
sys.exit(code)
"""


def _peak_rss_mb(argv, stdout):
    """Run ``heffter`` in a child process; return its exit code and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    peak = stdout.with_suffix(".peak")
    with open(stdout, "w", encoding="utf-8") as out:
        code = subprocess.call([sys.executable, "-c", _MEASURED_CLI, str(peak), *argv],
                               env=env, stdout=out)
    return code, int(peak.read_text(encoding="ascii")) / 1024  # VmHWM is in KiB


def test_decompose_and_orthogonality_run_in_o_m_memory(tmp_path):
    # M = 2401: 240,100 cycles per system, two 13 MB files; every n*M list or
    # M*M edge index takes hundreds of MB
    grid, rows, cols = tmp_path / "g.txt", tmp_path / "rows.txt", tmp_path / "cols.txt"
    grid.write_text(grid_to_text(build_h4p(100, 3)), encoding="utf-8")
    out = tmp_path / "out.txt"
    code, peak = _peak_rss_mb(["decompose", str(grid), "--rows-out", str(rows),
                               "--cols-out", str(cols)], out)
    assert code == 0 and out.read_text().count("240100 cycles of length 12 on Z_2401, complete") == 2
    assert peak < PEAK_LIMIT_MB, f"decompose peaked at {peak:.1f} MB"
    code, peak = _peak_rss_mb(["orthogonality", str(rows), str(cols)], out)
    assert code == 0 and out.read_text().startswith("ORTHOGONAL max-shared-edges=1 ")
    assert peak < PEAK_LIMIT_MB, f"orthogonality peaked at {peak:.1f} MB"


def test_orthogonality_refuses_a_swapped_line_in_o_m_memory(tmp_path):
    # the same files with lines 2 and 3 of cols swapped; an explicit reader
    # and edge index of this file took about 1 GB
    grid = build_h4p(100, 3)
    rows, cols = tmp_path / "rows.txt", tmp_path / "cols.txt"
    write_system(rows, line_system(grid, "row", 2401))
    write_system(cols, line_system(grid, "col", 2401))
    lines = cols.read_bytes().split(b"\n")
    lines[1], lines[2] = lines[2], lines[1]
    cols.write_bytes(b"\n".join(lines))
    out = tmp_path / "out.txt"
    code, peak = _peak_rss_mb(["orthogonality", str(rows), str(cols)], out)
    assert code == 2 and out.read_text() == ""
    assert peak < PEAK_LIMIT_MB, f"orthogonality peaked at {peak:.1f} MB"
