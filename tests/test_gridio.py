import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from heffter import build_h4p, build_h4p3
from heffter.cli import main
from heffter.grid import HeffterGrid
from heffter.gridio import GridParseError, grid_from_text, grid_to_text, read_grid
from reference import write_grid
from test_perfbench_sites import _load_workloads


def test_round_trip_small():
    g = HeffterGrid(2, 3, {(0, 0): 7, (0, 2): -7, (1, 1): 42})
    text = grid_to_text(g)
    assert text.splitlines()[0] == "#heffter m=2 n=3 s=2 t=1"
    again = grid_from_text(text)
    assert again.entries == g.entries
    assert grid_to_text(again) == text


def test_canonical_form_is_newline_terminated():
    g = HeffterGrid(1, 1, {(0, 0): 1})
    assert grid_to_text(g) == "#heffter m=1 n=1 s=1 t=1\n1\n"


def test_round_trip_golden_files(data_dir):
    for path in sorted(data_dir.glob("*.txt")):
        text = path.read_text()
        assert grid_to_text(grid_from_text(text)) == text, path.name


def test_file_round_trip(tmp_path, h17_12):
    path = tmp_path / "g.txt"
    write_grid(path, h17_12)
    assert read_grid(path).entries == h17_12.entries


def test_missing_header():
    with pytest.raises(GridParseError):
        grid_from_text("1,2\n3,4\n")


def test_empty_file():
    with pytest.raises(GridParseError):
        grid_from_text("")


def test_wrong_row_count():
    with pytest.raises(GridParseError) as exc:
        grid_from_text("#heffter m=3 n=2 s=1 t=1\n1,\n,2\n")
    assert "3 data rows" in str(exc.value)


def test_wrong_field_count_reports_line():
    with pytest.raises(GridParseError) as exc:
        grid_from_text("#heffter m=2 n=3 s=1 t=1\n1,,\n1,2\n")
    assert exc.value.line == 3


def test_bad_entry_reports_position():
    with pytest.raises(GridParseError) as exc:
        grid_from_text("#heffter m=1 n=2 s=1 t=1\n1,x\n")
    assert exc.value.line == 2 and exc.value.column == 2


def test_signed_entries_parse():
    g = grid_from_text("#heffter m=1 n=3 s=2 t=1\n-5,,+7\n")
    assert g.entries == {(0, 0): -5, (0, 2): 7}


@pytest.mark.parametrize("field", ["1_0", "\u0661"])
def test_non_canonical_integer_rejected(field):
    # int() accepts "1_0" as 10 and the Arabic-Indic digit one as 1
    with pytest.raises(GridParseError) as exc:
        grid_from_text(f"#heffter m=1 n=2 s=1 t=1\n{field},\n")
    assert exc.value.line == 2 and exc.value.column == 1


# -- the reader against the field-by-field reference reader --------------


def outcome(read, text):
    """A reader's grid, as (m, n, entries in insertion order), or its error."""
    try:
        grid = read(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return grid.m, grid.n, list(grid.entries.items())


def assert_same_outcome(text):
    assert outcome(grid_from_text, text) == outcome(reference.grid_from_text, text)


def test_reference_agrees_on_golden_files(data_dir):
    for path in sorted(data_dir.glob("*.txt")):
        assert_same_outcome(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_agrees_on_benchmark_grids_and_mutants(tmp_path, capsys, seed):
    workloads = _load_workloads()
    path = tmp_path / "grid.txt"
    read = 0
    for workload in workloads.WORKLOADS:
        for index in range(3):
            for job in workloads.make_pass(workload, seed, index):
                if main(["construct", *job.construct, "--out", str(path)]) != 0:
                    continue  # the refused merge pairs write no grid
                capsys.readouterr()
                text = path.read_text(encoding="utf-8")
                assert_same_outcome(text)
                if job.mutation:
                    assert_same_outcome(workloads.mutate(text, job.mutation, job.mutation_seed))
                read += 1
    assert read > 27


# fields the canonical form never holds, next to ones it does
ODD_FIELDS = ["", " ", "\t", "\u00a0", "0", "-0", "+0", "00", "007", "-007", "1_0", "\u0661",
              "1.0", "--1", "+-1", "+", "-", "x", "1 2", "1e3", "0x1"]
FIELD = st.one_of(
    st.sampled_from(ODD_FIELDS),
    st.builds(lambda left, sign, digits, right: left + sign + digits + right,
              st.sampled_from(["", "", " ", "\t", "  "]), st.sampled_from(["", "+", "-"]),
              st.from_regex(r"[0-9]{1,4}", fullmatch=True),
              st.sampled_from(["", "", " ", "\t", "  "])),
)


@st.composite
def grid_texts(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    # now and then a wrong row count, above whatever bad field the rows hold
    rows = draw(st.sampled_from([m, m, m, m + 1, max(m - 1, 0)]))
    lines = [f"#heffter m={m} n={n} s=1 t=1"]
    for _ in range(rows):
        width = draw(st.sampled_from([n, n, n, n, n + 1, max(n - 1, 1)]))
        lines.append(",".join(draw(st.lists(FIELD, min_size=width, max_size=width))))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=250, deadline=None)
@given(grid_texts())
def test_reference_agrees_on_odd_fields(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("text", [
    "#heffter m=2 n=2 s=1 t=1\n1,x\n",  # a wrong row count comes before a bad field
    "#heffter m=2 n=3 s=1 t=1\n 1 ,\t,x\n1,2\n",
    "#heffter m=2 n=3 s=1 t=1\n1,,\n1,2\n",
    "#heffter m=1 n=3 s=2 t=1\n-0,,5\n",
    "#heffter m=1 n=3 s=2 t=1\n\u00a0 7,,-5\t\n",
    "#heffter m=2 n=2 s=1 t=1\n,\n ,\n",
])
def test_reference_agrees_on_pinned_texts(text):
    assert_same_outcome(text)


@pytest.mark.slow
@pytest.mark.parametrize("build", [lambda: build_h4p(1001, 3), lambda: build_h4p3(1001, 200)[0]],
                         ids=["H(1001;12)", "H(1001;803)"])
def test_reference_agrees_on_order_1001(build):
    text = grid_to_text(build())
    assert_same_outcome(text)
    header, *rows = text.splitlines()
    rows[-1] = rows[-1].replace(",", ", ", 1)  # one padded field sends its row the slow way
    assert_same_outcome("\n".join([header, *rows]) + "\n")
