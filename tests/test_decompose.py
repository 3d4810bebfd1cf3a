import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heffter.decompose import (
    CycleSystem,
    NotADecomposition,
    NotSimple,
    base_cycle,
    canonical_cycle,
    cycle_edges,
    develop,
    line_system,
    orthogonality,
    read_system,
    system_from_text,
    system_to_text,
    write_system,
)
from heffter.grid import HeffterGrid
from heffter.gridio import read_grid

from oracle_tables import H17_12_ROW0_CYCLE

DATA = pathlib.Path(__file__).parent / "data"


def reference_index(bases, M):
    """Index every edge of every translate explicitly; None if two cycles share one."""
    translates = [tuple((v + t) % M for v in base) for base in bases for t in range(M)]
    try:
        return CycleSystem(M, len(bases[0]), translates).edge_index
    except NotADecomposition:
        return None


def assert_certificate_agrees(bases, M):
    index = reference_index(bases, M)
    if index is None:
        with pytest.raises(NotADecomposition):
            develop(bases, M)
    else:
        system = develop(bases, M)
        assert set(system.edge_index) == set(index)
        assert system.missing_edge_count() == M * (M - 1) // 2 - len(index)


def test_canonical_cycle_rotation_and_reflection():
    assert canonical_cycle([3, 1, 2]) == (1, 2, 3)
    assert canonical_cycle([3, 2, 1]) == (1, 2, 3)
    assert canonical_cycle([5, 9, 2, 7]) == (2, 7, 5, 9)


@given(st.lists(st.integers(0, 60), min_size=1, max_size=10, unique=True))
def test_canonical_cycle_matches_brute_force(vertices):
    k = len(vertices)
    traversals = (vertices, vertices[::-1])
    assert canonical_cycle(vertices) == min(tuple(seq[r:] + seq[:r])
                                            for seq in traversals for r in range(k))


def test_cycle_edges_undirected():
    assert cycle_edges([0, 3, 1]) == [(0, 3), (1, 3), (0, 1)]


def test_base_cycle_matches_partial_sums(h17_12):
    cyc = base_cycle(h17_12, "row", 0, 409)
    assert cyc == H17_12_ROW0_CYCLE
    assert cyc[-1] == 0


def test_base_cycle_rejects_collisions():
    g = HeffterGrid(1, 3, {(0, 0): 1, (0, 1): 5, (0, 2): -6})
    with pytest.raises(NotSimple):
        base_cycle(g, "row", 0, 5)


def test_base_cycle_rejects_nonzero_total():
    g = HeffterGrid(1, 2, {(0, 0): 1, (0, 1): 3})
    with pytest.raises(NotSimple):
        base_cycle(g, "row", 0, 11)


def test_develop_counts_and_translates():
    system = develop([(0, 1, 3)], 7)
    assert len(system.cycles) == 7
    assert system.is_complete
    # translate by 1 of (0,1,3) canonicalizes to (1,2,4)
    assert (1, 2, 4) in system.cycles


def test_develop_detects_double_cover():
    # (0,1,3) and its own translate cover edges twice
    with pytest.raises(NotADecomposition):
        develop([(0, 1, 3), (1, 2, 4)], 7)


def test_develop_names_the_repeated_difference(h17_12_3):
    with pytest.raises(NotADecomposition, match=r"^difference 242 in base cycles 1 and 4$"):
        line_system(h17_12_3, "row", 409)
    # 3 = 6/2 is its own negative: the edges {t, t+3} are each covered twice
    with pytest.raises(NotADecomposition, match=r"^difference 3 in base cycles 0 and 0$"):
        develop([(0, 3, 1)], 6)
    assert reference_index([(0, 3, 1)], 6) is None


def test_develop_rejects_a_repeated_vertex():
    with pytest.raises(NotSimple, match="base cycle 1 repeats a vertex"):
        develop([(0, 1, 3), (0, 2, 9)], 7)


def test_develop_builds_no_edge_index():
    system = develop([(0, 1, 3)], 7)
    assert "edge_index" not in vars(system)
    assert len(system.edge_index) == 21


@pytest.mark.parametrize("modulus", ["default", 1001])
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.txt")))
def test_certificate_agrees_with_edge_index_on_data_grids(name, modulus):
    grid = read_grid(DATA / name)
    M = 2 * len(grid.entries) + 1 if modulus == "default" else modulus
    checked = 0
    for kind, count in (("row", grid.m), ("col", grid.n)):
        bases = []
        for a in range(count):  # the simple lines; no row of h6_12_8_4 is simple
            try:
                bases.append(base_cycle(grid, kind, a, M))
            except NotSimple:
                pass
        if bases:
            assert_certificate_agrees(bases, M)
            checked += 1
    assert checked


@given(st.data())
def test_certificate_agrees_with_edge_index_on_random_bases(data):
    M = data.draw(st.integers(3, 30), label="M")
    k = data.draw(st.integers(3, min(M, 6)), label="k")
    base = st.lists(st.integers(0, M - 1), min_size=k, max_size=k, unique=True)
    bases = data.draw(st.lists(base, min_size=1, max_size=3), label="bases")
    assert_certificate_agrees(bases, M)


def test_row_and_col_systems_are_orthogonal(h17_12):
    rows = line_system(h17_12, "row", 409)
    cols = line_system(h17_12, "col", 409)
    assert rows.is_complete and cols.is_complete
    assert len(rows.cycles) == 17 * 409
    ok, worst, _ = orthogonality(rows, cols)
    assert ok and worst == 1


def test_self_join_not_orthogonal(h17_12):
    rows = line_system(h17_12, "row", 409)
    ok, worst, _ = orthogonality(rows, rows)
    assert not ok and worst == 12


def test_orthogonality_requires_same_modulus():
    a = develop([(0, 1, 3)], 7)
    b = develop([(0, 1, 3)], 13)
    with pytest.raises(ValueError):
        orthogonality(a, b)


def test_cyclic_invariance(h17_12):
    rows = line_system(h17_12, "row", 409)
    translated = {canonical_cycle([(v + 1) % 409 for v in c]) for c in rows.cycles}
    assert translated == set(rows.cycles)


def test_system_round_trip(tmp_path):
    system = develop([(0, 1, 3)], 7)
    text = system_to_text(system)
    assert text.startswith("#cycles M=7 k=3 count=7\n")
    again = system_from_text(text)
    assert again.cycles == system.cycles
    path = tmp_path / "c.txt"
    write_system(path, system)
    assert read_system(path).cycles == system.cycles


def test_system_parse_errors():
    with pytest.raises(ValueError):
        system_from_text("")
    with pytest.raises(ValueError):
        system_from_text("#cycles M=7 k=3 count=2\n0 1 3\n")
    with pytest.raises(ValueError):
        system_from_text("#cycles M=7 k=3 count=1\n0 1\n")
