"""Property-based checks of ordering invariances and construction structure."""

from hypothesis import given, settings
from hypothesis import strategies as st

from heffter.construct4p import build_h4p
from heffter.grid import HeffterGrid, partial_sums
from heffter.h3 import cyclic_shift
from heffter.shifted import build_shifted, choose_alpha
from heffter.verify import verify_heffter, verify_integer

from reference import nonempty_diagonals


def line_grid(values):
    return HeffterGrid(1, len(values), {(0, j): v for j, v in enumerate(values)})


def zero_sum_lists(min_size=2, max_size=12):
    return (
        st.lists(st.integers(-200, 200).filter(bool), min_size=min_size - 1, max_size=max_size - 1)
        .map(lambda vs: vs + [-sum(vs)])
        .filter(lambda vs: all(vs))
    )


@given(zero_sum_lists(), st.integers(3, 600), st.data())
def test_rotation_shifts_residues_by_constant(values, modulus, data):
    r = data.draw(st.integers(0, len(values) - 1))
    base = partial_sums(line_grid(values), "row", 0, modulus)
    rot = partial_sums(line_grid(values[r:] + values[:r]), "row", 0, modulus)
    # zero total makes the rotated residues a constant shift of the originals
    shift = (rot.residues[0] - base.residues[r % len(values)]) % modulus
    expected = tuple((base.residues[(r + i) % len(values)] + shift) % modulus
                     for i in range(len(values)))
    assert rot.residues == expected
    assert (base.collision is None) == (rot.collision is None)


@given(zero_sum_lists(), st.integers(3, 600))
def test_reversal_preserves_simplicity(values, modulus):
    forward = partial_sums(line_grid(values), "row", 0, modulus).collision is None
    backward = partial_sums(line_grid(values[::-1]), "row", 0, modulus).collision is None
    assert forward == backward


@given(st.lists(st.integers(-50, 50).filter(bool), min_size=1, max_size=12),
       st.integers(1, 40), st.data())
def test_trace_residues_and_least_collision(values, modulus, data):
    values = data.draw(st.permutations(values))
    trace = partial_sums(line_grid(values), "row", 0, modulus)
    assert trace.residues == tuple(s % modulus for s in trace.sums)
    pairs = [(i, j) for j in range(len(values)) for i in range(j)
             if trace.residues[i] == trace.residues[j]]
    assert trace.collision == min(pairs, default=None)


@given(st.integers(3, 6), st.integers(0, 20))
@settings(max_examples=25, deadline=None)
def test_h4p_verifies_across_parameters(p, extra):
    n = 4 * p + extra
    g = build_h4p(n, p)
    assert verify_heffter(g, 4 * p, 4 * p).overall
    assert verify_integer(g).overall


@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_shifted_diagonal_partition(p, gamma, extra):
    n = 4 * p + extra
    alpha = choose_alpha(n, p)
    g = build_shifted(n, p, gamma, alpha)
    # the filled diagonals partition the filled cells into n-cell classes
    diags = nonempty_diagonals(g)
    assert len(diags) == 4 * p
    assert len(g.entries) == 4 * p * n
    for d in diags:
        assert sum(1 for i, j in g.entries if (i - j) % n == d) == n


@given(st.integers(0, 16))
@settings(max_examples=17, deadline=None)
def test_cyclic_shift_preserves_verification(t):
    g = build_h4p(17, 3)
    shifted = cyclic_shift(g, t)
    assert verify_heffter(shifted, 12, 12).overall
    assert verify_integer(shifted).overall
