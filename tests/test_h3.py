import pytest

from heffter.gridio import grid_to_text
from heffter.h3 import build_h3_base, cyclic_shift, relocate_h3
from heffter.verify import verify_heffter, verify_integer


def check_base_structure(grid):
    """The three-diagonal shape: D_0 carries {1..n}, D_{n-1} positive, D_1 negative."""
    n = grid.n
    assert verify_heffter(grid, 3, 3).overall
    assert verify_integer(grid).overall
    assert grid.nonempty_diagonals() == [0, 1, n - 1]
    d0 = [grid.diagonal_entry(0, "row", a) for a in range(n)]
    d1 = [grid.diagonal_entry(1, "row", a) for a in range(n)]
    dn1 = [grid.diagonal_entry(n - 1, "row", a) for a in range(n)]
    assert {abs(v) for v in d0} == set(range(1, n + 1))
    assert all(v > 0 for v in dn1)
    assert all(v < 0 for v in d1)
    assert {v for v in dn1} | {-v for v in d1} == set(range(n + 1, 3 * n + 1))


@pytest.mark.parametrize("n", [8, 9, 12, 13, 16, 17])
def test_build_small_orders(n):
    check_base_structure(build_h3_base(n))


def test_rejects_bad_congruence():
    for n in (10, 11, 14):
        with pytest.raises(ValueError):
            build_h3_base(n)


def test_closed_forms_cover_every_order_to_500():
    for n in range(4, 501):
        if n % 4 in (0, 1):
            check_base_structure(build_h3_base(n))


@pytest.mark.parametrize("b,c,d", [
    # n = 4, which the closed forms do not cover
    ([9, 5, 11, 10], [-2, 3, 1, -4], [-7, -8, -12, -6]),
    # n = 17, the array the golden H(17;15) is merged from
    ([19, 36, 20, 37, 21, 38, 22, 30, 46, 29, 45, 28, 44, 27, 43, 18, 35],
     [15, 14, 13, 12, 11, 10, 9, 17, -7, -6, -5, -4, -3, -2, -1, 8, 16],
     [-34, -50, -33, -49, -32, -48, -31, -47, -39, -23, -40, -24, -41, -25, -42, -26, -51]),
], ids=["4", "17"])
def test_frozen_triples(b, c, d):
    n = len(c)
    g = build_h3_base(n)
    assert len(g.entries) == 3 * n
    assert [g.entries.get((a, (a + 1) % n)) for a in range(n)] == b
    assert [g.entries.get((a, a)) for a in range(n)] == c
    assert [g.entries.get((a, (a - 1) % n)) for a in range(n)] == d


def test_deterministic():
    a = build_h3_base(12)
    b = build_h3_base(12)
    assert grid_to_text(a) == grid_to_text(b)


def test_golden_h9_base_passes_checker(h9_3_base):
    check_base_structure(h9_3_base)


def test_relocation_reproduces_figure(h9_3_base, h9_3_beta1):
    moved = relocate_h3(h9_3_base, beta=1, eps=2)
    assert grid_to_text(moved) == grid_to_text(h9_3_beta1)


def test_relocation_moves_diagonals(h9_3_base):
    moved = relocate_h3(h9_3_base, beta=1, eps=2)
    assert moved.nonempty_diagonals() == [1, 3, 5]
    assert verify_heffter(moved, 3, 3).overall
    assert verify_integer(moved).overall


def test_relocation_requires_coprime_step(h9_3_base):
    with pytest.raises(ValueError):
        relocate_h3(h9_3_base, beta=0, eps=3)


def test_relocation_beta_range(h9_3_base):
    with pytest.raises(ValueError):
        relocate_h3(h9_3_base, beta=5, eps=2)


def test_cyclic_shift_preserves_diagonals(h9_3_base):
    shifted = cyclic_shift(h9_3_base, 4)
    assert shifted.nonempty_diagonals() == h9_3_base.nonempty_diagonals()
    assert verify_heffter(shifted, 3, 3).overall
    assert verify_integer(shifted).overall


def test_cyclic_shift_round_trip(h9_3_base):
    n = h9_3_base.n
    assert grid_to_text(cyclic_shift(cyclic_shift(h9_3_base, 3), n - 3)) == grid_to_text(h9_3_base)
