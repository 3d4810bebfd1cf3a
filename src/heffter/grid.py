"""Partially filled integer grids, diagonals, line orderings and partial sums.

A grid is an m x n array in which some cells hold a nonzero integer and the
rest are empty.  Rows and columns are indexed from 0; all cell arithmetic is
done modulo the grid order while entries are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Literal, Mapping, Sequence

Cell = tuple[int, int]
LineKind = Literal["row", "col"]


@dataclass(frozen=True)
class HeffterGrid:
    """Immutable partially filled integer matrix.

    ``entries`` maps (row, col) to a nonzero integer.  Empty cells are simply
    absent from the mapping; an empty cell contributes 0 to any sum.  The
    filled cells of each row (by increasing column) and of each column (by
    increasing row) are indexed once at construction, so a line query costs
    time proportional to the line's fills, not to the whole grid.
    """

    m: int
    n: int
    entries: Mapping[Cell, int]
    _rows: tuple[tuple[Cell, ...], ...] = field(init=False, repr=False, compare=False)
    _cols: tuple[tuple[Cell, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m, n = self.m, self.n
        if m <= 0 or n <= 0:
            raise ValueError("grid dimensions must be positive")
        rows: list[list[Cell]] = [[] for _ in range(m)]
        cols: list[list[Cell]] = [[] for _ in range(n)]
        for cell, e in self.entries.items():
            i, j = cell
            if e == 0:
                raise ValueError(f"cell ({i},{j}) holds 0; empty cells must be absent")
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"cell ({i},{j}) outside {m}x{n} grid")
            rows[i].append(cell)
            cols[j].append(cell)
        for line in rows + cols:
            line.sort()
        object.__setattr__(self, "entries", dict(self.entries))
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "_cols", tuple(map(tuple, cols)))

    # -- basic queries ---------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    def _line(self, kind: LineKind, a: int) -> tuple[Cell, ...]:
        lines = self._rows if kind == "row" else self._cols
        # a negative index would silently wrap around
        if not 0 <= a < len(lines):
            raise ValueError(f"{kind} index {a} out of range")
        return lines[a]

    def line_cells(self, kind: LineKind, a: int) -> list[Cell]:
        """Filled cells of row a by increasing column, or of column a by increasing row."""
        return list(self._line(kind, a))

    def fills_per_row(self) -> list[int]:
        return [len(line) for line in self._rows]

    def fills_per_col(self) -> list[int]:
        return [len(line) for line in self._cols]

    def line_sum(self, kind: LineKind, a: int) -> int:
        """Exact integer sum of the filled entries on one row or column."""
        entries = self.entries
        return sum(entries[c] for c in self._line(kind, a))

    def support(self) -> tuple[set[int], list[int]]:
        """Absolute values of all entries, plus the values x with both +x and -x present."""
        seen: set[int] = set()
        conflicts: set[int] = set()
        values = set(self.entries.values())
        for e in values:
            if -e in values:
                conflicts.add(abs(e))
            seen.add(abs(e))
        return seen, sorted(conflicts)

    def diagonal_entry(self, d: int, kind: LineKind, a: int) -> int:
        """Entry of diagonal d on row/column a; 0 when the cell is empty.

        Defined for square grids only: for row a the cell is (a, a-d),
        for column a it is (a+d, a), with d in [0, n).
        """
        if not self.is_square:
            raise ValueError("diagonals are defined for square grids only")
        n = self.n
        if not 0 <= d < n:
            raise ValueError(f"diagonal label {d} out of range for order {n}")
        cell = (a, (a - d) % n) if kind == "row" else ((a + d) % n, a)
        return self.entries.get(cell, 0)

    def nonempty_diagonals(self) -> list[int]:
        if not self.is_square:
            raise ValueError("diagonals are defined for square grids only")
        return sorted({(i - j) % self.n for i, j in self.entries})


# -- line orderings ------------------------------------------------------


def natural_order(grid: HeffterGrid, kind: LineKind, a: int) -> list[Cell]:
    """Left-to-right for rows, top-to-bottom for columns."""
    return grid.line_cells(kind, a)


def diagonal_order(grid: HeffterGrid, kind: LineKind, a: int) -> list[Cell]:
    """Filled cells of a line of a square grid by increasing diagonal label."""
    if not grid.is_square:
        raise ValueError("diagonal order is defined for square grids only")
    n = grid.n
    return sorted(grid.line_cells(kind, a), key=lambda c: (c[0] - c[1]) % n)


# -- partial sums --------------------------------------------------------


@dataclass(frozen=True)
class PartialSumTrace:
    """Condition (1) data of one line under a given ordering.

    ``sums`` are the exact prefix sums, ``residues`` their residues in
    [0, M) and ``collision`` the lexicographically least pair of positions
    with equal residues, or None when the residues are pairwise distinct.
    """

    sums: tuple[int, ...]
    residues: tuple[int, ...]
    collision: tuple[int, int] | None


def partial_sums(
    grid: HeffterGrid,
    kind: LineKind,
    a: int,
    ordering: Sequence[Cell],
    modulus: int,
) -> PartialSumTrace:
    """Prefix sums of one line's entries visited in the given cell order."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if sorted(ordering) != grid.line_cells(kind, a):
        raise ValueError(f"ordering does not cover the filled cells of {kind} {a}")
    sums = tuple(accumulate(grid.entries[c] for c in ordering))
    residues = tuple(s % modulus for s in sums)
    collision = None
    if len(set(residues)) != len(residues):
        # (first position of r_j, j) is the least equal pair ending at j
        first: dict[int, int] = {}
        collision = min((first[r], j) for j, r in enumerate(residues)
                        if first.setdefault(r, j) != j)
    return PartialSumTrace(sums, residues, collision)
