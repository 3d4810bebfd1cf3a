"""Grid file format.

First line ``#heffter m=<m> n=<n> s=<s> t=<t>``, then m lines of n
comma-separated fields.  An empty field is an empty cell; filled fields are
optionally-signed ASCII decimal integers.  Writing then reading a grid is the
identity, and the written form is canonical (no spaces, newline-terminated).

Reading costs O(m + nk) Python steps for m rows holding nk filled fields in
all: the certify benchmark's grids, 95% empty, read in about half the time
that reading their m*n fields one by one takes.  Per row, one count of its
commas checks the field count, only the span from its first filled field to
its last is split, ``itertools.compress`` picks out the filled fields and
their columns, and one match over their comma-join checks them all.  Only a
row that fails that match is read field by field, to strip whitespace or to
name its first bad field.
"""

from __future__ import annotations

import re
from itertools import compress, repeat

from .grid import HeffterGrid


class GridParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", field {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


_HEADER = re.compile(r"#heffter m=([0-9]+) n=([0-9]+) s=([0-9]+) t=([0-9]+)\s*$")
# int() would also take "1_0" and non-ASCII digits
_ENTRY = re.compile(r"[+-]?[0-9]+")
# the comma-join of a row's filled fields, each a canonical entry
_ENTRIES = re.compile(r"[+-]?[0-9]+(?:,[+-]?[0-9]+)*")


def grid_to_text(grid: HeffterGrid) -> str:
    s = max(grid.fills_per_row(), default=0)
    t = max(grid.fills_per_col(), default=0)
    table = [[""] * grid.n for _ in range(grid.m)]
    for (i, j), e in grid.entries.items():
        table[i][j] = str(e)
    lines = [f"#heffter m={grid.m} n={grid.n} s={s} t={t}"]
    lines.extend(",".join(row) for row in table)
    return "\n".join(lines) + "\n"


def grid_from_text(text: str) -> HeffterGrid:
    lines = text.splitlines()
    if not lines:
        raise GridParseError("empty grid file")
    match = _HEADER.match(lines[0])
    if not match:
        raise GridParseError("missing or malformed #heffter header", line=1)
    m, n = int(match.group(1)), int(match.group(2))
    body = lines[1:]
    if len(body) != m:
        raise GridParseError(f"expected {m} data rows, found {len(body)}", line=len(lines))
    entries: dict[tuple[int, int], int] = {}
    for i, line in enumerate(body):
        found = line.count(",") + 1
        if found != n:
            raise GridParseError(f"expected {n} fields, found {found}", line=i + 2)
        # only the fields from the first filled one to the last are split
        tail = line.lstrip(",")
        fields = tail.rstrip(",").split(",")
        columns = compress(range(len(line) - len(tail), n), fields)
        filled = list(compress(fields, fields))
        if filled and not _ENTRIES.fullmatch(",".join(filled)):
            columns, filled = _padded_row(line.split(","), i + 2)
        entries.update(zip(zip(repeat(i), columns), map(int, filled)))
    return HeffterGrid(m, n, entries)


def _padded_row(fields: list[str], line: int) -> tuple[list[int], list[str]]:
    """The filled columns and stripped entries of a row with whitespace or a bad field."""
    columns, filled = [], []
    for j, f in enumerate(fields):
        f = f.strip()
        if not f:
            continue
        if not _ENTRY.fullmatch(f):
            raise GridParseError(f"bad entry {f!r}", line=line, column=j + 1)
        columns.append(j)
        filled.append(f)
    return columns, filled


def read_grid(path) -> HeffterGrid:
    with open(path, encoding="utf-8") as fh:
        return grid_from_text(fh.read())
