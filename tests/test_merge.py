import pytest

from heffter import merge
from heffter.construct4p import UnsupportedParameters
from heffter.gridio import grid_to_text
from heffter.merge import MergeParams, build_h4p3
from heffter.verify import verify_globally_simple, verify_heffter, verify_integer


def full_check(grid, n, k):
    M = 2 * n * k + 1
    assert verify_heffter(grid, k, k).overall
    assert verify_integer(grid).overall
    assert verify_globally_simple(grid, M).overall


def test_reproduces_h17_15(h17_15):
    grid, params = build_h4p3(17, 3, alpha=8)
    assert grid_to_text(grid) == grid_to_text(h17_15)
    assert params == MergeParams(n=17, p=3, alpha=8, eps=2, beta=11, shift=0, modulus=511)


def test_default_alpha_n_1_mod_4():
    grid, params = build_h4p3(13, 1)
    assert params.alpha == 6 and params.eps == 2
    full_check(grid, 13, 7)


def test_n_0_mod_4_search():
    grid, params = build_h4p3(20, 2)
    assert params.eps >= 2
    full_check(grid, 20, 11)


def test_reports_modulus():
    _, params = build_h4p3(13, 1)
    assert params.modulus == 2 * 13 * 7 + 1


def test_rejects_wrong_congruence():
    with pytest.raises(ValueError):
        build_h4p3(14, 1)


def test_rejects_too_small_n():
    with pytest.raises(ValueError):
        build_h4p3(9, 2)


def test_alpha_validation():
    with pytest.raises(ValueError):
        build_h4p3(17, 3, alpha=16)  # gcd fine but outside the window
    with pytest.raises(ValueError):
        build_h4p3(17, 3, eps=3)  # eps is fixed at 2 when n = 1 mod 4


@pytest.mark.parametrize("n,p", [(16, 3), (20, 4), (28, 6)])
def test_n_4p_plus_4_fails_before_the_search(monkeypatch, n, p):
    # n = 0 mod 4 needs an odd eps >= 3, but eps <= (n-4p)/2 = 2 here
    def no_search(*args):
        raise AssertionError("the H(n;3) search was reached")

    monkeypatch.setattr(merge, "build_h3_base", no_search)
    with pytest.raises(UnsupportedParameters):
        build_h4p3(n, p)


def test_support_covers_full_range():
    grid, _ = build_h4p3(21, 2)
    sup, conflicts = grid.support()
    assert sup == set(range(1, 11 * 21 + 1))
    assert not conflicts


def test_merge_candidates_are_distinct():
    # (3, n/2-1) is tried first and must not be tried again in the scan
    pairs = merge._candidates(28, 3, None, None)
    assert pairs[0] == (3, 13) and len(pairs) == len(set(pairs))
