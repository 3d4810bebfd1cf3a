import pytest

from heffter.grid import HeffterGrid
from heffter.gridio import GridParseError, grid_from_text, grid_to_text, read_grid, write_grid


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
