import math

import pytest

from heffter.gridio import grid_to_text
from heffter.shifted import build_shifted, choose_alpha
from heffter.verify import verify_support_shifted


def test_reproduces_h17_12_3(h17_12_3):
    assert grid_to_text(build_shifted(17, 3, 3, 6)) == grid_to_text(h17_12_3)


def test_choose_alpha_smallest_coprime():
    assert choose_alpha(17, 3) == 5
    assert choose_alpha(20, 2) == 3


def test_alpha_range_enforced():
    with pytest.raises(ValueError):
        build_shifted(17, 3, 3, 4)
    with pytest.raises(ValueError):
        build_shifted(17, 3, 3, 11)


def test_alpha_coprimality_enforced():
    with pytest.raises(ValueError):
        build_shifted(16, 3, 3, 6)


def test_diagonal_structure():
    n, p, alpha = 17, 3, 6
    g = build_shifted(n, p, 3, alpha)
    assert g.nonempty_diagonals() == sorted(set(range(4 * p - 1)) | {2 * p + alpha})


def test_support_is_shifted_window():
    n, p, gamma = 13, 2, 5
    g = build_shifted(n, p, gamma, choose_alpha(n, p))
    sup, conflicts = g.support()
    assert sup == set(range(gamma * n + 1, (4 * p + gamma) * n + 1))
    assert not conflicts


@pytest.mark.parametrize("n,p,gamma", [(9, 1, 1), (13, 2, 3), (17, 3, 5), (30, 3, 3)])
def test_full_property_check(n, p, gamma):
    alpha = choose_alpha(n, p)
    g = build_shifted(n, p, gamma, alpha)
    assert verify_support_shifted(g, p, gamma).overall


def test_every_legal_alpha_small_case():
    n, p, gamma = 12, 1, 3
    for alpha in range(2 * p - 1, n - 2 * p):
        if math.gcd(n, alpha) != 1:
            continue
        assert verify_support_shifted(build_shifted(n, p, gamma, alpha), p, gamma).overall
