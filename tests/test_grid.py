import pytest

from heffter import read_grid
from heffter.grid import HeffterGrid, partial_sums

from reference import diagonal_entry, diagonal_order, nonempty_diagonals


def small_grid():
    return HeffterGrid(3, 3, {(0, 0): 1, (0, 1): 2, (1, 1): -3, (1, 2): 4, (2, 0): -5, (2, 2): 6})


def test_rejects_zero_entry():
    with pytest.raises(ValueError):
        HeffterGrid(2, 2, {(0, 0): 0})


def test_rejects_out_of_range_cell():
    with pytest.raises(ValueError):
        HeffterGrid(2, 2, {(2, 0): 1})


def test_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        HeffterGrid(0, 3, {})


def test_entry_lookup():
    g = small_grid()
    assert g.entries.get((0, 0)) == 1
    assert g.entries.get((0, 2)) is None
    assert g.entries.get((0, 2), 0) == 0


def test_fill_counts():
    g = small_grid()
    assert g.fills_per_row() == [2, 2, 2]
    assert g.fills_per_col() == [2, 2, 2]


def test_line_cells_sorted():
    g = small_grid()
    assert g.line_cells("row", 0) == [(0, 0), (0, 1)]
    assert g.line_cells("col", 2) == [(1, 2), (2, 2)]
    with pytest.raises(ValueError):
        g.line_cells("row", 3)


@pytest.mark.parametrize("kind", ["row", "col"])
def test_negative_line_index_is_rejected(kind):
    # a list index of -1 would silently wrap around to the last line
    g = small_grid()
    with pytest.raises(ValueError):
        g.line_cells(kind, -1)
    with pytest.raises(ValueError):
        g.line_sum(kind, -1)
    with pytest.raises(ValueError):
        partial_sums(g, kind, -1, 7)


def test_equal_entries_compare_equal():
    g = small_grid()
    same = HeffterGrid(3, 3, dict(reversed(list(g.entries.items()))))
    assert same == g
    assert HeffterGrid(3, 3, {(0, 0): 1}) != g
    assert "_rows" not in repr(g) and "_cols" not in repr(g)


def test_line_sum():
    g = small_grid()
    assert g.line_sum("row", 0) == 3
    assert g.line_sum("col", 0) == -4


def test_support_and_conflicts():
    g = HeffterGrid(2, 2, {(0, 0): 3, (0, 1): -3, (1, 0): 5})
    sup, conflicts = g.support()
    assert sup == {3, 5}
    assert conflicts == [3]


def test_diagonal_cells_cover_grid():
    n = 7
    cells = [((i + d) % n, i) for d in range(n) for i in range(n)]
    assert len(set(cells)) == n * n
    g = HeffterGrid(n, n, {cell: i + 1 for i, cell in enumerate(cells)})
    assert all(diagonal_entry(g, 2, "col", i) == g.entries.get(((i + 2) % n, i)) for i in range(n))
    with pytest.raises(ValueError):
        diagonal_entry(g, n, "col", 0)


def test_nonempty_diagonals():
    g = small_grid()
    # cells (0,0),(1,1),(2,2) are D_0; (0,1),(1,2) are D_2; (2,0) is D_2 too
    assert nonempty_diagonals(g) == [0, 2]


def test_diagonal_entry():
    g = small_grid()
    assert diagonal_entry(g, 0, "row", 1) == -3
    assert diagonal_entry(g, 2, "row", 0) == 2  # row 0, column (0-2)%3 = 1
    assert diagonal_entry(g, 2, "col", 0) == -5


def test_diagonal_requires_square():
    g = HeffterGrid(2, 3, {(0, 0): 1})
    with pytest.raises(ValueError):
        nonempty_diagonals(g)


def test_natural_vs_diagonal_order():
    g = small_grid()
    assert g.line_cells("row", 0) == [(0, 0), (0, 1)]
    # diagonal order of row 0 visits columns 0, 2, 1 (labels d = 0, 1, 2)
    assert diagonal_order(g, "row", 0) == [(0, 0), (0, 1)]
    assert diagonal_order(g, "col", 0) == [(0, 0), (2, 0)]


def _diagonal_scan(grid, kind, a):
    n = grid.n
    cells = [(a, (a - d) % n) if kind == "row" else ((a + d) % n, a) for d in range(n)]
    return [c for c in cells if c in grid.entries]


def test_diagonal_order_matches_diagonal_scan(data_dir):
    square = 0
    for path in sorted(data_dir.glob("*.txt")):
        g = read_grid(path)
        if not g.is_square:
            continue
        square += 1
        for kind in ("row", "col"):
            for a in range(g.n):
                assert diagonal_order(g, kind, a) == _diagonal_scan(g, kind, a), (path.name, kind, a)
    assert square == 6


def test_partial_sums_exact_and_residues():
    g = small_grid()
    trace = partial_sums(g, "row", 1, 7)
    assert trace.sums == (-3, 1)
    assert trace.residues == (4, 1)
    assert tuple(r - 7 if r > 3 else r for r in trace.residues) == (-3, 1)
    assert trace.collision is None


def test_partial_sums_follow_the_natural_order():
    # cells given right to left and bottom to top are still traced left to
    # right and top to bottom
    g = HeffterGrid(2, 3, {(1, 2): 4, (0, 2): 3, (0, 1): -1, (0, 0): -2, (1, 0): 2})
    assert partial_sums(g, "row", 0, 10).sums == (-2, -3, 0)
    assert partial_sums(g, "col", 2, 10).sums == (3, 7)


def test_first_collision_is_smallest_pair():
    g = HeffterGrid(1, 4, {(0, 0): 5, (0, 1): 7, (0, 2): -7, (0, 3): 7})
    trace = partial_sums(g, "row", 0, 100)
    assert trace.sums == (5, 12, 5, 12)
    assert trace.collision == (0, 2)
    assert trace.collision is not None and trace.collision == (0, 2)


def test_grid_is_immutable():
    g = small_grid()
    with pytest.raises(AttributeError):
        g.m = 5
