import pytest

from heffter.construct4p import build_h4p
from heffter.gridio import grid_to_text
from heffter.verify import verify_globally_simple, verify_heffter, verify_integer
from reference import diagonal_entry, expected_diagonal_support, nonempty_diagonals


def test_reproduces_h17_12(h17_12):
    assert grid_to_text(build_h4p(17, 3)) == grid_to_text(h17_12)


def test_reproduces_h17_16(h17_16):
    assert grid_to_text(build_h4p(17, 4)) == grid_to_text(h17_16)


def test_h17_16_spot_cells():
    g = build_h4p(17, 4)
    assert g.entries.get((0, 0)) == 1
    assert g.entries.get((1, 0)) == -18
    assert g.entries.get((0, 2)) == 64


def test_small_k_arrays_verify():
    # case (a) covers every k divisible by 4, so k = 4 and k = 8 use the same formulas
    for p in (1, 2):
        for n in range(4 * p, 61):
            g = build_h4p(n, p)
            assert verify_heffter(g).overall and verify_integer(g).overall, (n, p)
            assert verify_globally_simple(g).overall, (n, p)
            for d in range(4 * p):
                _, expected = expected_diagonal_support(n, p, d)
                actual = frozenset(abs(diagonal_entry(g, d, "row", a)) for a in range(n))
                assert actual == expected, (n, p, d)


def test_rejects_narrow_grid():
    with pytest.raises(ValueError):
        build_h4p(11, 3)


def test_diagonal_structure():
    g = build_h4p(13, 3)
    assert nonempty_diagonals(g) == list(range(12))


def test_entries_constant_mod_k_per_diagonal():
    g = build_h4p(14, 3)
    k = 12
    for d in nonempty_diagonals(g):
        residues = {diagonal_entry(g, d, "row", a) % k for a in range(g.n)}
        assert len(residues) == 1


def test_expected_diagonal_support_matches_built_array():
    for n, p in [(13, 3), (16, 4), (21, 5), (24, 6)]:
        g = build_h4p(n, p)
        for d in range(4 * p):
            _, expected = expected_diagonal_support(n, p, d)
            actual = frozenset(abs(diagonal_entry(g, d, "row", a)) for a in range(n))
            assert actual == expected, (n, p, d)


def test_expected_diagonal_support_bounds():
    with pytest.raises(ValueError):
        expected_diagonal_support(13, 3, 12)


@pytest.mark.parametrize("n,p", [(12, 3), (17, 3), (16, 4), (23, 4), (20, 5), (33, 5), (24, 6)])
def test_full_verification(n, p):
    g = build_h4p(n, p)
    k = 4 * p
    assert verify_heffter(g, k, k).overall
    assert verify_integer(g).overall
    assert verify_globally_simple(g, 2 * n * k + 1).overall
