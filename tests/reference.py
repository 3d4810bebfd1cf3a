"""Reference implementations and cross-checks that the package does not carry.

Each one is kept here as an oracle or a test helper only.
"""

from __future__ import annotations

import re
from itertools import accumulate

from heffter.grid import HeffterGrid
from heffter.gridio import GridParseError, grid_to_text
from heffter.verify import Check, VerificationReport

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


def _require_square(grid: HeffterGrid) -> None:
    if not grid.is_square:
        raise ValueError("diagonals are defined for square grids only")


def diagonal_entry(grid: HeffterGrid, d: int, kind: str, a: int) -> int:
    """Entry of diagonal d on row/column a; 0 when the cell is empty.

    Defined for square grids only: for row a the cell is (a, a-d),
    for column a it is (a+d, a), with d in [0, n).
    """
    _require_square(grid)
    n = grid.n
    if not 0 <= d < n:
        raise ValueError(f"diagonal label {d} out of range for order {n}")
    cell = (a, (a - d) % n) if kind == "row" else ((a + d) % n, a)
    return grid.entries.get(cell, 0)


def nonempty_diagonals(grid: HeffterGrid) -> list[int]:
    """The labels (i - j) mod n of the diagonals that hold a filled cell."""
    _require_square(grid)
    return sorted({(i - j) % grid.n for i, j in grid.entries})


def diagonal_order(grid: HeffterGrid, kind: str, a: int) -> list[tuple[int, int]]:
    """Filled cells of a line of a square grid by increasing diagonal label."""
    _require_square(grid)
    n = grid.n
    return sorted(grid.line_cells(kind, a), key=lambda c: (c[0] - c[1]) % n)


def diagonal_sums(grid: HeffterGrid, kind: str, a: int) -> list[int]:
    """Exact prefix sums of a line's entries in diagonal order."""
    return list(accumulate(grid.entries[c] for c in diagonal_order(grid, kind, a)))


def failures(report: VerificationReport) -> list[Check]:
    """The checks of ``report`` that failed, in report order."""
    return [c for c in report.checks if not c.passed]


def expected_diagonal_support(n: int, p: int, d: int) -> tuple[int, frozenset[int]]:
    """Residue class the support of diagonal D_d must realize.

    Returns (S_d, {S_d + kx : x in [n]}).  This is computed from the
    constant terms of the entry formulas alone and serves as a cross-check
    against the actual per-diagonal support of a built array.
    """
    if p < 1 or n < 4 * p:
        raise ValueError(f"no H(n;4p) for n = {n}, p = {p}")
    k = 4 * p
    if not 0 <= d < k:
        raise ValueError(f"diagonal label {d} not in [0, {k})")
    if p % 2 == 1:
        if d == 2 * p - 2:
            s = 2 * p - 1
        elif d == 2 * p - 1:
            s = 2 * p
        elif d == k - 2:
            s = 2 * p + 1
        elif d == k - 1:
            s = k
        elif d < 2 * p - 2:
            i, r = divmod(d, 4)
            s = (4 * i + 1, 4 * i + 2, k - (4 * i + 3), k - (4 * i + 4))[r]
        else:
            i, r = divmod(d - 2 * p, 4)
            s = (2 * p - 2 - 4 * i, 2 * p - 3 - 4 * i, 2 * p + 4 + 4 * i, 2 * p + 5 + 4 * i)[r]
    else:
        specials = {2 * p - 4: 2 * p - 3, 2 * p - 3: 2 * p - 2,
                    k - 6: 4, k - 5: 3, k - 4: k - 2, k - 3: k - 1,
                    k - 2: 2 * p + 1, k - 1: k}
        if d in specials:
            s = specials[d]
        elif d < 2 * p - 4:
            i, r = divmod(d, 4)
            s = (4 * i + 1, 4 * i + 2, k - (4 * i + 3), k - (4 * i + 4))[r]
        else:
            i, r = divmod(d - (2 * p - 2), 4)
            s = (2 * p - 4 * i, 2 * p - 1 - 4 * i, 2 * p + 2 + 4 * i, 2 * p + 3 + 4 * i)[r]
    return s, frozenset(s + k * x for x in range(n))
