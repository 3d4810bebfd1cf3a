"""Grid file format.

First line ``#heffter m=<m> n=<n> s=<s> t=<t>``, then m lines of n
comma-separated fields.  An empty field is an empty cell; filled fields are
optionally-signed ASCII decimal integers.  Writing then reading a grid is the
identity, and the written form is canonical (no spaces, newline-terminated).
"""

from __future__ import annotations

import re

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


def grid_to_text(grid: HeffterGrid) -> str:
    counts_r = grid.fills_per_row()
    counts_c = grid.fills_per_col()
    s = max(counts_r, default=0)
    t = max(counts_c, default=0)
    lines = [f"#heffter m={grid.m} n={grid.n} s={s} t={t}"]
    for i in range(grid.m):
        fields = []
        for j in range(grid.n):
            e = grid.entry(i, j)
            fields.append("" if e is None else str(e))
        lines.append(",".join(fields))
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
        fields = line.split(",")
        if len(fields) != n:
            raise GridParseError(f"expected {n} fields, found {len(fields)}", line=i + 2)
        for j, f in enumerate(fields):
            f = f.strip()
            if not f:
                continue
            if not _ENTRY.fullmatch(f):
                raise GridParseError(f"bad entry {f!r}", line=i + 2, column=j + 1)
            entries[(i, j)] = int(f)
    return HeffterGrid(m, n, entries)


def write_grid(path, grid: HeffterGrid) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid_to_text(grid))


def read_grid(path) -> HeffterGrid:
    with open(path, encoding="utf-8") as fh:
        return grid_from_text(fh.read())
