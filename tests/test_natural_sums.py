"""The frozen natural-order prefix sums of ``oracle_tables.NATURAL_SUMS``.

``line_sums`` recomputes them from a grid file with plain loops and imports
nothing from ``heffter``; ``partial-sums`` must print the same tables, so
they pin the CLI's natural-order output.
"""

import pytest

from heffter.cli import main

from oracle_tables import NATURAL_SUMS


def line_sums(text):
    """Running sums of the filled fields of every row, then of every column."""
    fields = [line.split(",") for line in text.splitlines()[1:]]

    def running(line):
        sums, total = [], 0
        for field in line:
            if field:
                total += int(field)
                sums.append(total)
        return sums

    return [running(row) for row in fields], [running(col) for col in zip(*fields)]


def construct(tmp_path, family, n, p):
    path = tmp_path / "grid.txt"
    argv = ["construct", "--family", family, "--n", str(n), "--out", str(path)]
    assert main(argv + (["--p", str(p)] if p else [])) == 0
    return path


@pytest.mark.parametrize("case", list(NATURAL_SUMS), ids=lambda case: "-".join(map(str, case)))
def test_tables_are_the_brute_force_sums(tmp_path, case):
    path = construct(tmp_path, *case)
    assert line_sums(path.read_text(encoding="utf-8")) == NATURAL_SUMS[case]


@pytest.mark.parametrize("case", list(NATURAL_SUMS), ids=lambda case: "-".join(map(str, case)))
def test_partial_sums_prints_the_tables(tmp_path, capsys, case):
    path = construct(tmp_path, *case)
    capsys.readouterr()
    rows, cols = NATURAL_SUMS[case]
    expected = [f"{kind} {a}: {' '.join(map(str, sums))}\n"
                for kind, table in (("row", rows), ("col", cols)) for a, sums in enumerate(table)]
    assert main(["partial-sums", str(path)]) == 0
    assert capsys.readouterr().out == "".join(expected)
