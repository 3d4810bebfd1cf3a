"""End-to-end acceptance checks: one test (or parametrized group) per criterion.

Arrays that several criteria need are built once through the cached helpers
below; every check still goes through the independent verifier.
"""

import functools
import math
import random

import pytest

from heffter import merge
from heffter.cli import main as cli_main
from heffter.construct4p import build_h4p
from heffter.decompose import line_system, orthogonality
from heffter.grid import HeffterGrid, diagonal_order, natural_order, partial_sums
from heffter.gridio import grid_to_text
from heffter.h3 import build_h3_base, relocate_h3
from heffter.merge import build_h4p3
from heffter.shifted import build_shifted
from heffter.verify import (
    verify_globally_simple,
    verify_heffter,
    verify_integer,
    verify_support_shifted,
)

from oracle_tables import H17_12_3_COL_SUMS, H17_12_3_ROW_SUMS


@functools.lru_cache(maxsize=None)
def h4p(n, p):
    return build_h4p(n, p)


@functools.lru_cache(maxsize=None)
def h3_base(n):
    return build_h3_base(n)


@functools.lru_cache(maxsize=None)
def h4p3(n, p):
    return build_h4p3(n, p)


SWEEP_4P = [(n, p) for p in (1, 2, 3, 4, 5, 6) for n in range(4 * p, 41)]
SWEEP_4P3 = [(n, p) for n in (13, 17, 21, 25, 29) for p in range(1, (n - 3) // 4 + 1)]


# -- criterion 1: golden-grid reproduction -------------------------------


@pytest.mark.parametrize("name,argv", [
    ("h17_12.txt", ["construct", "--family", "h4p", "--n", "17", "--p", "3"]),
    ("h17_16.txt", ["construct", "--family", "h4p", "--n", "17", "--p", "4"]),
    ("h17_12_3.txt", ["construct", "--family", "shifted", "--n", "17", "--p", "3",
                      "--gamma", "3", "--alpha", "6"]),
    ("h17_15.txt", ["construct", "--family", "h4p3", "--n", "17", "--p", "3",
                    "--alpha", "8"]),
])
def test_criterion_1_golden_reproduction(name, argv, tmp_path, data_dir):
    out = tmp_path / "g.txt"
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == (data_dir / name).read_text()


# -- criterion 2: diagonal-order partial-sum tables ----------------------


def test_criterion_2_row_tables(h17_12_3):
    for a in range(17):
        trace = partial_sums(h17_12_3, "row", a, diagonal_order(h17_12_3, "row", a), 511)
        assert list(trace.sums) == H17_12_3_ROW_SUMS[a], f"row {a}"


def test_criterion_2_col_tables(h17_12_3):
    for a in range(17):
        trace = partial_sums(h17_12_3, "col", a, diagonal_order(h17_12_3, "col", a), 511)
        assert list(trace.sums) == H17_12_3_COL_SUMS[a], f"col {a}"
    assert H17_12_3_COL_SUMS[11][6] == -256


# -- criterion 3: closed-form H(n;4p) sweep ------------------------------


def test_criterion_3_h4p_sweep():
    for n, p in SWEEP_4P:
        g = h4p(n, p)
        k = 4 * p
        assert verify_heffter(g, k, k).overall, (n, p)
        assert verify_integer(g).overall, (n, p)
        assert verify_globally_simple(g, 8 * n * p + 1).overall, (n, p)


# -- criterion 4: support shifted sweep over every legal alpha -----------


def test_criterion_4_shifted_sweep():
    cases = 0
    for p in (1, 2, 3):
        for gamma in (1, 3, 5):
            for n in range(4 * p, 31):
                for alpha in range(2 * p - 1, n - 2 * p):
                    if math.gcd(n, alpha) != 1:
                        continue
                    g = build_shifted(n, p, gamma, alpha)
                    assert verify_support_shifted(g, p, gamma).overall, (n, p, gamma, alpha)
                    cases += 1
    assert cases > 1000


# -- criterion 5: merged H(n;4p+3) sweep, n = 1 mod 4 --------------------


def test_criterion_5_h4p3_sweep():
    for n, p in SWEEP_4P3:
        grid, params = h4p3(n, p)
        k = 4 * p + 3
        M = 2 * n * k + 1
        assert params.modulus == M
        assert verify_heffter(grid, k, k).overall, (n, p)
        assert verify_integer(grid).overall, (n, p)
        assert verify_globally_simple(grid, M).overall, (n, p)


# -- criteria 3 and 5 across the theorem's range -------------------------


def assert_globally_simple_both_moduli(grid, k):
    """Levels heffter, integer and globally-simple, and simple mod 2nk+2 too."""
    M = 2 * grid.n * k + 1
    assert verify_heffter(grid, k, k).overall
    assert verify_integer(grid).overall
    report = verify_globally_simple(grid, M, also_mod_plus_one=True)
    assert [c.name for c in report.checks] == [f"natural-simple-mod-{M}",
                                               f"natural-simple-mod-{M + 1}"]
    assert report.overall


@pytest.mark.slow
def test_every_h4p_up_to_100():
    built = 0
    for n in range(4, 101):
        for p in range(1, n // 4 + 1):
            grid = build_h4p(n, p)
            assert_globally_simple_both_moduli(grid, 4 * p)
            built += 1
    assert built == 1225


def random_h4p3_order(rng):
    """A random (n, p) with 101 <= n < 700 that build_h4p3 covers without overrides."""
    while True:
        n = rng.choice([n for n in range(101, 700) if n % 4 in (0, 1)])
        p = rng.randint(1, (n - 3) // 4)
        if n % 4 == 1 or merge._candidates(n, p, None, None):
            return n, p


@pytest.mark.slow
@pytest.mark.parametrize("family", ["h4p", "h4p3"])
def test_seeded_sample_below_700(family):
    rng = random.Random(f"theorem-range-{family}")
    for _ in range(32):
        if family == "h4p":
            n = rng.randrange(101, 700)
            p = rng.randint(1, n // 4)
            grid, k = build_h4p(n, p), 4 * p
        else:
            n, p = random_h4p3_order(rng)
            grid, k = build_h4p3(n, p)[0], 4 * p + 3
        assert_globally_simple_both_moduli(grid, k)


# -- criterion 6: merged arrays with n = 0 mod 4 -------------------------


@pytest.mark.parametrize("n,p", [(20, 2), (24, 3), (28, 4)])
def test_criterion_6_h4p3_even_spot_checks(n, p):
    grid, params = h4p3(n, p)
    k = 4 * p + 3
    assert math.gcd(n, params.eps) == 1 and math.gcd(n, params.alpha) == 1
    assert params.beta == 2 * p + params.alpha - params.eps - 1
    assert verify_heffter(grid, k, k).overall
    assert verify_integer(grid).overall
    assert verify_globally_simple(grid, 2 * n * k + 1).overall


# -- criterion 7: cycle decompositions and orthogonality -----------------


@pytest.mark.parametrize("n,M", [(12, 289), (17, 409)])
def test_criterion_7_orthogonal_decompositions(n, M):
    g = h4p(n, 3)
    assert M == 24 * n + 1
    rows = line_system(g, "row", M)
    cols = line_system(g, "col", M)
    for system in (rows, cols):
        assert len(system.cycles) == n * M
        assert system.is_complete  # every edge of K_M exactly once
    ok, worst, _ = orthogonality(rows, cols)
    assert ok and worst == 1


# the theorem's boundary: n = k and n = k+1 for H(n;4p), n = 4p+5 and
# n = 4p+8 for H(n;4p+3); each is certified in-process, with no cycle file
@pytest.mark.parametrize("n,k", [(100, 100), (101, 100), (101, 99), (104, 99)])
def test_criterion_7_boundary_orders(n, k):
    grid = h4p(n, k // 4) if k % 4 == 0 else h4p3(n, k // 4)[0]
    M = 2 * n * k + 1
    assert verify_heffter(grid, k, k).overall
    assert verify_integer(grid).overall
    assert verify_globally_simple(grid, M).overall
    rows, cols = line_system(grid, "row", M), line_system(grid, "col", M)
    assert rows.is_complete and cols.is_complete
    ok, worst, _ = orthogonality(rows, cols)
    assert ok and worst == 1


# -- criterion 8: H(n;3) builder and relocation --------------------------


@pytest.mark.parametrize("n", [8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29])
def test_criterion_8_h3_builder(n):
    g = h3_base(n)
    assert verify_heffter(g, 3, 3).overall
    assert verify_integer(g).overall
    assert g.nonempty_diagonals() == [0, 1, n - 1]
    d0 = [g.diagonal_entry(0, "row", a) for a in range(n)]
    d1 = [g.diagonal_entry(1, "row", a) for a in range(n)]
    dn1 = [g.diagonal_entry(n - 1, "row", a) for a in range(n)]
    assert {abs(v) for v in d0} == set(range(1, n + 1))
    assert all(v > 0 for v in dn1) and all(v < 0 for v in d1)
    assert set(dn1) | {-v for v in d1} == set(range(n + 1, 3 * n + 1))


def test_criterion_8_figure_pair(h9_3_base, h9_3_beta1):
    assert verify_heffter(h9_3_base, 3, 3).overall
    assert verify_integer(h9_3_base).overall
    assert h9_3_base.nonempty_diagonals() == [0, 1, 8]
    moved = relocate_h3(h9_3_base, beta=1, eps=2)
    assert grid_to_text(moved) == grid_to_text(h9_3_beta1)


# -- criterion 9: randomized property suite ------------------------------


def test_criterion_9_rotation_reversal_invariance():
    rng = random.Random(20260824)
    for _ in range(200):
        size = rng.randint(3, 14)
        while True:
            values = [rng.choice([-1, 1]) * rng.randint(1, 300) for _ in range(size - 1)]
            if sum(values) != 0:
                values.append(-sum(values))
                break
        modulus = rng.randint(3, 700)
        grid = HeffterGrid(1, size, {(0, j): v for j, v in enumerate(values)})
        cells = natural_order(grid, "row", 0)
        verdict = partial_sums(grid, "row", 0, cells, modulus).collision is None
        r = rng.randrange(size)
        rotated = partial_sums(grid, "row", 0, cells[r:] + cells[:r], modulus).collision is None
        reversed_ = partial_sums(grid, "row", 0, list(reversed(cells)), modulus).collision is None
        assert rotated == verdict
        assert reversed_ == verdict


def test_criterion_9_perturbation_sensitivity(h17_12):
    rng = random.Random(97)
    cells = sorted(h17_12.entries)
    for _ in range(100):
        cell = rng.choice(cells)
        old = h17_12.entries[cell]
        new = old
        while new in (old, 0):
            new = rng.choice([-1, 1]) * rng.randint(1, 204)
        entries = dict(h17_12.entries)
        entries[cell] = new
        mutated = HeffterGrid(17, 17, entries)
        report = verify_heffter(mutated, 12, 12)
        report.extend(verify_integer(mutated))
        report.extend(verify_globally_simple(mutated, 409))
        assert not report.overall, (cell, old, new)


def test_criterion_9_mod_plus_one_distinctness():
    for n, p in SWEEP_4P:
        assert verify_globally_simple(h4p(n, p), 8 * n * p + 1,
                                      also_mod_plus_one=True).overall, (n, p)
    for n, p in SWEEP_4P3:
        grid, params = h4p3(n, p)
        assert verify_globally_simple(grid, params.modulus,
                                      also_mod_plus_one=True).overall, (n, p)


# -- criterion 10: rectangular array -------------------------------------


def test_criterion_10_rectangular(h6_12_8_4):
    report = verify_heffter(h6_12_8_4, 8, 4, modulus=97)
    assert report.overall
    assert h6_12_8_4.m == 6 and h6_12_8_4.n == 12
