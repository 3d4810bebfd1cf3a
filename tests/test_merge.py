import itertools
import math

import pytest

from heffter import merge
from heffter.gridio import grid_to_text
from heffter.merge import MergeParams, NoParameters, build_h4p3
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
    def no_build(*args):
        raise AssertionError("the H(n;3) build was reached")

    monkeypatch.setattr(merge, "build_h3_base", no_build)
    with pytest.raises(ValueError, match="no admissible"):
        build_h4p3(n, p)


def test_support_covers_full_range():
    grid, _ = build_h4p3(21, 2)
    sup, conflicts = grid.support()
    assert sup == set(range(1, 11 * 21 + 1))
    assert not conflicts


def test_merge_candidate_is_the_first_pair():
    assert merge._candidates(28, 3, None, None) == (3, 13)


def reference_candidates(n, p, eps, alpha):
    """The lazy search over (eps, alpha) that ``merge._candidates`` replaced."""
    if eps is not None and alpha is not None:
        pairs = [(eps, alpha)]
    elif eps is None and alpha is None and n % 12 != 0 and n >= 4 * p + 8:
        pairs = [(3, n // 2 - 1)]
    else:
        pairs = (
            (e, a)
            for e in ((eps,) if eps is not None else range(3, (n - 4 * p) // 2 + 1))
            if math.gcd(n, e) == 1
            for a in ((alpha,) if alpha is not None else range(2 * p + e, n - e - 2 * p + 1))
            if math.gcd(n, a) == 1
        )
    return next((
        (e, a) for e, a in pairs
        if e <= (n - 4 * p) / 2 and 2 * p + e <= a <= n - e - 2 * p
        and 2 * p + a - e - 1 > 4 * p - 2 and 2 * p + a + e - 1 < n
        and 2 * p - 1 <= a <= n - 1 - 2 * p
    ), None)


def assert_candidates_match_reference(max_n):
    compared = 0
    for n in range(8, max_n + 1, 4):
        overrides = [None, *range(-2, n + 2)]
        for p in range(1, (n - 3) // 4 + 1):
            for eps in overrides:
                for alpha in overrides:
                    assert (merge._candidates(n, p, eps, alpha)
                            == reference_candidates(n, p, eps, alpha)), (n, p, eps, alpha)
                    compared += 1
    return compared


def test_candidates_match_the_reference_search():
    assert assert_candidates_match_reference(48) == 111_474


@pytest.mark.slow
def test_candidates_match_the_reference_search_up_to_160():
    assert assert_candidates_match_reference(160) == 11_276_460


def least_coprime(n, start):
    return next(v for v in itertools.count(start) if math.gcd(n, v) == 1)


def stated_refusal(n, p):
    """The refusal rule of the ``merge`` docstring, for n = 0 mod 4 without overrides."""
    eps0 = least_coprime(n, 5)
    return n == 4 * p + 4 or (n % 12 == 0 and least_coprime(n, 2 * p + eps0) > n - 2 * p - eps0)


def test_stated_refusal_rule_matches_the_reference_search():
    refused = 0
    for n in range(8, 401, 4):
        for p in range(1, (n - 3) // 4 + 1):
            assert (reference_candidates(n, p, None, None) is None) == stated_refusal(n, p), (n, p)
            refused += stated_refusal(n, p)
    assert refused == 138


def closed_form_pair(n, p):
    """(eps, alpha) stated directly: least eps, then least alpha, in the window."""
    if n % 4 == 1:
        return 2, (n - 1) // 2
    if n % 12 != 0 and n >= 4 * p + 8:
        return 3, n // 2 - 1
    return min(((e, a) for e in range(3, n) for a in range(n)
                if math.gcd(n, e) == math.gcd(n, a) == 1
                and 2 * e <= n - 4 * p and 2 * p + e <= a <= n - 2 * p - e), default=None)


def test_every_theorem_order_up_to_61_uses_the_closed_form():
    built = 0
    for n in range(7, 62):
        if n % 4 not in (0, 1):
            continue
        for p in range(1, (n - 3) // 4 + 1):
            pair = closed_form_pair(n, p)
            if pair is None:
                with pytest.raises(ValueError, match="no admissible"):
                    build_h4p3(n, p)
                continue
            _, params = build_h4p3(n, p)
            assert (params.eps, params.alpha, params.shift) == (*pair, 0), (n, p)
            built += 1
    assert built == 190


@pytest.mark.parametrize("n,p,pair", [
    (13, 1, (2, 6)), (17, 3, (2, 8)), (24, 3, (5, 11)), (28, 3, (3, 13)),
    (28, 5, (3, 13)), (36, 4, (5, 13)), (60, 7, (7, 23)), (20, 2, (3, 9)),
])
def test_closed_form_pins(n, p, pair):
    _, params = build_h4p3(n, p)
    assert (params.eps, params.alpha) == pair and params.shift == 0


def test_forced_shift_has_no_fallback_pair():
    # the closed-form pair (3, 7) fails at shift 3, and no other pair stands in
    with pytest.raises(NoParameters):
        build_h4p3(16, 1, shift=3)


@pytest.mark.slow
def test_every_theorem_order_up_to_201():
    # every n = 0,1 mod 4 with n >= 4p+3 either merges or has no admissible
    # (eps, alpha) at all; NoParameters must never be raised
    for n in range(7, 202):
        if n % 4 not in (0, 1):
            continue
        for p in range(1, (n - 3) // 4 + 1):
            if n % 4 == 0 and not merge._candidates(n, p, None, None):
                with pytest.raises(ValueError, match="no admissible"):
                    build_h4p3(n, p)
                continue
            grid, params = build_h4p3(n, p)
            assert params.modulus == 2 * n * (4 * p + 3) + 1
            full_check(grid, n, 4 * p + 3)
