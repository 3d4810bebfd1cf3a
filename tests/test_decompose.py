import contextlib
import io
import pathlib
import random
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heffter import decompose
from heffter.cli import main
from heffter.decompose import (
    CycleSystem,
    CyclicSystem,
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


def explicit_system(bases, M):
    """Every translate C + t, listed in develop's order and joined edge by edge."""
    translates = [tuple((v + t) % M for v in base) for base in bases for t in range(M)]
    return CycleSystem(M, len(bases[0]), translates)


def reference_index(bases, M):
    """Index every edge of every translate explicitly; None if two cycles share one."""
    try:
        return explicit_system(bases, M).edge_index
    except NotADecomposition:
        return None


def reference_text(bases, M):
    """The cycle file of the translates, canonicalised one cycle at a time."""
    cycles = [canonical_cycle([(v + t) % M for v in base]) for base in bases for t in range(M)]
    return system_to_text(CycleSystem(M, len(bases[0]), cycles))


def simple_line_bases(grid, kind, M):
    """The base cycles of the simple lines; no row of h6_12_8_4 is simple."""
    bases = []
    for a in range(grid.m if kind == "row" else grid.n):
        try:
            bases.append(base_cycle(grid, kind, a, M))
        except NotSimple:
            pass
    return bases


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
    for kind in ("row", "col"):
        bases = simple_line_bases(grid, kind, M)
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


# -- the difference join and the streamed cycle files --------------------


def certified_bases(data, M, label):
    """Drawn base cycles on Z_M, each kept only if the set still certifies."""
    k = data.draw(st.integers(3, min(M - 1, 6)), label=f"{label} k")
    base = st.lists(st.integers(0, M - 1), min_size=k, max_size=k, unique=True)
    kept = []
    for candidate in data.draw(st.lists(base, min_size=1, max_size=4), label=label):
        try:
            develop(kept + [candidate], M)
        except NotADecomposition:
            continue
        kept.append(candidate)
    assume(kept)
    return kept


@given(st.data())
def test_difference_join_matches_edge_join_on_random_bases(data):
    M = data.draw(st.integers(7, 40), label="M")  # odd and even
    first, second = certified_bases(data, M, "first"), certified_bases(data, M, "second")
    cyclic = develop(first, M), develop(second, M)
    assert all(isinstance(system, CyclicSystem) for system in cyclic)
    assert orthogonality(*cyclic) == orthogonality(explicit_system(first, M),
                                                   explicit_system(second, M))


@pytest.mark.parametrize("modulus", ["default", 1001])
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.txt")))
def test_difference_join_matches_edge_join_on_data_grids(name, modulus):
    grid = read_grid(DATA / name)
    M = 2 * len(grid.entries) + 1 if modulus == "default" else modulus
    bases = {kind: simple_line_bases(grid, kind, M) for kind in ("row", "col")}
    cyclic, explicit = {}, {}
    for kind, kind_bases in bases.items():
        try:  # no simple line, or (h17_12_3 mod 2nk+1) a repeated difference
            cyclic[kind] = develop(kind_bases, M)
        except ValueError:
            continue
        explicit[kind] = explicit_system(kind_bases, M)
    for a, b in (("row", "col"), ("row", "row"), ("col", "row")):
        if a not in cyclic or b not in cyclic:
            continue
        assert orthogonality(cyclic[a], cyclic[b]) == orthogonality(explicit[a], explicit[b])


@given(st.data())
def test_streamed_text_matches_explicit_text_on_random_bases(data):
    M = data.draw(st.integers(3, 40), label="M")
    k = data.draw(st.integers(1, min(M, 6)), label="k")
    base = st.lists(st.integers(0, M - 1), min_size=k, max_size=k, unique=True)
    bases = data.draw(st.lists(base, min_size=1, max_size=3), label="bases")
    system = CyclicSystem(M, k, [tuple(b) for b in bases], {})  # the writer needs no certificate
    assert system_to_text(system) == reference_text(bases, M)


@pytest.mark.parametrize("modulus", ["default", 1000])  # odd and even M
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.txt")))
def test_streamed_files_match_explicit_text_on_data_grids(tmp_path, name, modulus):
    grid = read_grid(DATA / name)
    M = 2 * len(grid.entries) + 1 if modulus == "default" else modulus
    path = tmp_path / "c.txt"
    for kind in ("row", "col"):
        bases = simple_line_bases(grid, kind, M)
        if not bases:
            continue
        text = reference_text(bases, M)
        assert system_to_text(CyclicSystem(M, len(bases[0]), bases, {})) == text
        try:
            system = develop(bases, M)
        except NotADecomposition:
            continue
        write_system(path, system)
        assert path.read_text(encoding="utf-8") == text
        again = read_system(path)
        assert isinstance(again, CyclicSystem) and again.cycles == system.cycles


# moduli on each side of every change in the number of digits of M - 1
WIDTH_MODULI = [3, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001]


@pytest.mark.parametrize("M", WIDTH_MODULI)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_chunks_match_explicit_text_across_token_widths(M, data):
    k = data.draw(st.integers(1, min(M, 7)), label="k")
    base = st.lists(st.integers(0, M - 1), min_size=k, max_size=k, unique=True)
    bases = data.draw(st.lists(base, min_size=1, max_size=2), label="bases")
    system = CyclicSystem(M, k, [tuple(b) for b in bases], {})
    assert system_to_text(system) == reference_text(bases, M)


@pytest.mark.parametrize("layout", [("H", 2, 3), ("I", 4, 2), ("Q", 8, 2)])
def test_tokens_of_several_parts_give_the_same_text(monkeypatch, layout):
    # the layout of moduli above 10**7, forced on small ones
    monkeypatch.setattr(decompose, "_token_format", lambda modulus: layout)
    rng = random.Random(17)
    for M in (3, 11, 1001, 10001):
        k = min(M, 5)
        bases = [tuple(rng.sample(range(M), k)) for _ in range(2)]
        assert system_to_text(CyclicSystem(M, k, bases, {})) == reference_text(bases, M)


@pytest.mark.parametrize("budget", [1, 50, 1000])
def test_runs_cut_into_small_chunks_give_the_same_text(monkeypatch, budget):
    monkeypatch.setattr(decompose, "_CHUNK_BYTES", budget)
    rng = random.Random(budget)
    for M in (11, 101, 1001):
        bases = [tuple(rng.sample(range(M), 5)) for _ in range(2)]
        system = CyclicSystem(M, 5, bases, {})
        line = 5 * len(str(M - 1)) + 5  # a line of the widest vertices
        assert max(map(len, system.line_chunks())) <= max(budget, line)
        assert system_to_text(system) == reference_text(bases, M)


@pytest.mark.parametrize("M", [1, 9, 10, 10**7, 10**7 + 1, 10**8, 10**15 + 1, 10**40])
def test_every_modulus_gets_a_token_width(M):
    fmt, size, parts = decompose._token_format(M)
    assert struct.calcsize(fmt) == size
    assert size * parts > len(str(M - 1))  # the digits and a separator
    assert size * parts <= 2 * (len(str(M - 1)) + 1)  # padding at most doubles a token


def test_chunks_stay_within_their_budget_at_large_k():
    # one base of H(n;199)'s size: a single string of its M lines would take 95 MB
    M, k = 80_001, 199
    base = tuple(random.Random(5).sample(range(M), k))
    system = CyclicSystem(M, k, [base], {})
    largest = lines = 0
    for chunk in system.line_chunks():
        largest = max(largest, len(chunk))
        lines += chunk.count(b"\n")
    assert lines == M
    assert 0 < largest <= decompose._CHUNK_BYTES


class FailingSystem(CyclicSystem):
    """A system whose file fails after its first line."""

    def line_chunks(self):
        yield b"0 1 3\n"
        raise OSError("disk full")


def test_failed_write_leaves_no_partial_file(tmp_path):
    system = FailingSystem(7, 3, [(0, 1, 3)], {})
    fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
    kept.write_text("the previous file\n", encoding="utf-8")
    for path in (fresh, kept):
        with pytest.raises(OSError, match="disk full"):
            write_system(path, system)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]
    assert kept.read_text(encoding="utf-8") == "the previous file\n"
    write_system(kept, develop([(0, 1, 3)], 7))
    assert kept.read_text(encoding="utf-8") == reference_text([(0, 1, 3)], 7)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def h17_12_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("cycles")
    rows, cols = out / "rows.txt", out / "cols.txt"
    assert run("decompose", DATA / "h17_12.txt", "--rows-out", rows, "--cols-out", cols)[0] == 0
    return rows, cols


def test_reader_takes_decompose_files_as_cyclic(h17_12_files):
    rows, cols = h17_12_files
    assert all(isinstance(read_system(path), CyclicSystem) for path in (rows, cols))
    assert run("orthogonality", rows, cols) == (
        0, "ORTHOGONAL max-shared-edges=1 worst-pair=6952,6952\n", "")


# Each file below is read explicitly and gives what the explicit reader and
# the edge join gave before the cyclic reader existed.


def test_hand_made_file_is_joined_edge_by_edge(tmp_path):
    hand = tmp_path / "hand.txt"
    hand.write_text("#cycles M=7 k=3 count=2\n0 1 3\n2 4 6\n", encoding="utf-8")
    assert not isinstance(read_system(hand), CyclicSystem)
    assert run("orthogonality", hand, hand) == (
        1, "NOT ORTHOGONAL max-shared-edges=3 worst-pair=1,1\n", "")


def test_extra_space_falls_back_to_the_explicit_reader(tmp_path, h17_12_files):
    rows, cols = h17_12_files
    lines = rows.read_text(encoding="utf-8").split("\n")
    lines[5] += " "
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("\n".join(lines), encoding="utf-8")
    assert not isinstance(read_system(spaced), CyclicSystem)
    assert run("orthogonality", spaced, cols) == (
        0, "ORTHOGONAL max-shared-edges=1 worst-pair=6952,6952\n", "")
    code, out, err = run("orthogonality", cols, spaced, "--json")
    assert (code, err) == (0, "") and out.startswith('{\n  "orthogonal": true,\n')


def test_corrupt_translate_names_the_shared_edge(tmp_path, h17_12_files):
    rows, cols = h17_12_files
    lines = rows.read_text(encoding="utf-8").split("\n")
    M = 409
    a, b, *rest = lines[M + 2].split()  # line M+3 of the file, the second translate of base 1
    lines[M + 2] = " ".join([b, a, *rest])
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("\n".join(lines), encoding="utf-8")
    assert run("orthogonality", corrupt, cols) == (
        2, "", "error: edge (0, 5) in cycles 410 and 1636\n")


def test_cyclic_file_with_a_repeated_difference_names_the_shared_edge(tmp_path):
    # (0,1,3) and (0,1,5) both have the difference 1; each block is a true orbit
    repeat = tmp_path / "repeat.txt"
    repeat.write_text(reference_text([(0, 1, 3), (0, 1, 5)], 13), encoding="utf-8")
    assert run("orthogonality", repeat, repeat) == (
        2, "", "error: edge (0, 1) in cycles 0 and 13\n")


@pytest.mark.parametrize("text,error", [
    ("#cycles M=0 k=3 count=1\n0 1 2\n", "cycle 0: vertex 2 is not in Z_0"),
    ("#cycles M=1000000 k=3 count=1000000\n0 1 3\n", "expected 1000000 cycles, found 1"),
    ("#cycles M=7 k=3 count=7\n0 1 3\n", "expected 7 cycles, found 1"),
])
def test_headers_the_cyclic_reader_cannot_take(tmp_path, text, error):
    path = tmp_path / "c.txt"
    path.write_text(text, encoding="utf-8")
    assert run("orthogonality", path, path) == (2, "", f"error: {error}\n")


def test_undecodable_byte_is_reported_at_its_file_offset(tmp_path, h17_12_files):
    rows, cols = h17_12_files
    data = rows.read_bytes()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data[:200000] + b"\xff" + data[200001:])
    assert run("orthogonality", bad, cols) == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 200000: "
               "invalid start byte\n")
