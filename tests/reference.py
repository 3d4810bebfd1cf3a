"""Reference implementations that the package no longer carries.

Each one is kept here as an oracle or a test helper only.
"""

from __future__ import annotations

import re

from heffter.grid import HeffterGrid
from heffter.gridio import GridParseError, grid_to_text

_HEADER = re.compile(r"#heffter m=([0-9]+) n=([0-9]+) s=([0-9]+) t=([0-9]+)\s*$")
_ENTRY = re.compile(r"[+-]?[0-9]+")


def write_grid(path, grid: HeffterGrid) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid_to_text(grid))


def grid_from_text(text: str) -> HeffterGrid:
    """The grid reader that strips and checks every one of the m*n fields."""
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
