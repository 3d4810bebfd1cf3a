import contextlib
import io
import pathlib
import random
import re
import struct
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heffter import decompose
from heffter.cli import main
from heffter.decompose import (
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
    write_system,
)
from heffter.grid import HeffterGrid
from heffter.gridio import read_grid

from oracle_tables import H17_12_ROW0_CYCLE

DATA = pathlib.Path(__file__).parent / "data"


def translates(bases, M):
    """Every translate C + t, listed in develop's order."""
    return [tuple((v + t) % M for v in base) for base in bases for t in range(M)]


def explicit_index(cycles):
    """Each edge's cycle id, indexed edge by edge; NotADecomposition if two cycles share one."""
    index = {}
    for cid, cyc in enumerate(cycles):
        for e in cycle_edges(cyc):
            if e in index:
                raise NotADecomposition(f"edge {e} in cycles {index[e]} and {cid}")
            index[e] = cid
    return index


def edge_join(first, second):
    """``orthogonality`` by brute force: look up each edge of ``second`` in ``first``'s index."""
    index = explicit_index(first)
    best = (0, -1, -1)
    for cid, cyc in enumerate(second):
        shared = Counter(map(index.get, cycle_edges(cyc)))
        shared.pop(None, None)
        for other, count in shared.items():
            best = max(best, (count, other, cid))
    worst, a, b = best
    return worst <= 1, worst, (a, b)


def reference_index(bases, M):
    """Index every edge of every translate explicitly; None if two cycles share one."""
    try:
        return explicit_index(translates(bases, M))
    except NotADecomposition:
        return None


def header(M, k, count):
    return f"#cycles M={M} k={k} count={count}\n"


def reference_text(bases, M):
    """The cycle file of the translates, canonicalised one cycle at a time."""
    cycles = [canonical_cycle(cyc) for cyc in translates(bases, M)]
    return header(M, len(bases[0]), len(cycles)) + "".join(f"{' '.join(map(str, c))}\n"
                                                            for c in cycles)


def streamed_text(system):
    """The cycle file that ``write_system`` writes for ``system``."""
    body = b"".join(system.line_chunks()).decode("ascii")
    return header(system.modulus, system.k, system.count) + body


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
    path = tmp_path / "c.txt"
    write_system(path, system)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#cycles M=7 k=3 count=7\n")
    assert text == streamed_text(system) == reference_text([(0, 1, 3)], 7)
    again = read_system(path)
    assert (again.modulus, again.k, again.bases, again.owner) == (7, 3, system.bases, system.owner)
    assert again.cycles == system.cycles


def test_system_parse_errors(tmp_path):
    path = tmp_path / "c.txt"
    for text, error in [
        ("", "line 1: malformed #cycles header"),
        ("#cycles M=7 k=3 count=2\n0 1 3\n",
         "line 1: #cycles header needs count a positive multiple of M, got count=2, M=7"),
        ("#cycles M=7 k=2 count=7\n0 1\n", "line 1: #cycles header needs 3 <= k <= M, got k=2, M=7"),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}$"):
            read_system(path)


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
    assert orthogonality(develop(first, M), develop(second, M)) == edge_join(
        translates(first, M), translates(second, M))


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
        explicit[kind] = translates(kind_bases, M)
    for a, b in (("row", "col"), ("row", "row"), ("col", "row")):
        if a not in cyclic or b not in cyclic:
            continue
        assert orthogonality(cyclic[a], cyclic[b]) == edge_join(explicit[a], explicit[b])


@given(st.data())
def test_streamed_text_matches_explicit_text_on_random_bases(data):
    M = data.draw(st.integers(3, 40), label="M")
    k = data.draw(st.integers(1, min(M, 6)), label="k")
    base = st.lists(st.integers(0, M - 1), min_size=k, max_size=k, unique=True)
    bases = data.draw(st.lists(base, min_size=1, max_size=3), label="bases")
    system = CyclicSystem(M, k, [tuple(b) for b in bases], {})  # the writer needs no certificate
    assert streamed_text(system) == reference_text(bases, M)


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
        assert streamed_text(CyclicSystem(M, len(bases[0]), bases, {})) == text
        try:
            system = develop(bases, M)
        except NotADecomposition:
            continue
        write_system(path, system)
        assert path.read_text(encoding="utf-8") == text
        assert read_system(path).cycles == system.cycles


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
    assert streamed_text(system) == reference_text(bases, M)


@pytest.mark.parametrize("layout", [("H", 2, 3), ("I", 4, 2), ("Q", 8, 2)])
def test_tokens_of_several_parts_give_the_same_text(monkeypatch, layout):
    # the layout of moduli above 10**7, forced on small ones
    monkeypatch.setattr(decompose, "_token_format", lambda modulus: layout)
    rng = random.Random(17)
    for M in (3, 11, 1001, 10001):
        k = min(M, 5)
        bases = [tuple(rng.sample(range(M), k)) for _ in range(2)]
        assert streamed_text(CyclicSystem(M, k, bases, {})) == reference_text(bases, M)


@pytest.mark.parametrize("budget", [1, 50, 1000])
def test_runs_cut_into_small_chunks_give_the_same_text(monkeypatch, budget):
    monkeypatch.setattr(decompose, "_CHUNK_BYTES", budget)
    rng = random.Random(budget)
    for M in (11, 101, 1001):
        bases = [tuple(rng.sample(range(M), 5)) for _ in range(2)]
        system = CyclicSystem(M, 5, bases, {})
        line = 5 * len(str(M - 1)) + 5  # a line of the widest vertices
        assert max(map(len, system.line_chunks())) <= max(budget, line)
        assert streamed_text(system) == reference_text(bases, M)


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


def test_reader_takes_decompose_files_as_cyclic(h17_12_files, h17_12):
    rows, cols = h17_12_files
    for path, kind in ((rows, "row"), (cols, "col")):
        assert read_system(path).cycles == line_system(h17_12, kind, 409).cycles
    assert run("orthogonality", rows, cols) == (
        0, "ORTHOGONAL max-shared-edges=1 worst-pair=6952,6952\n", "")


# Every file below differs from what decompose writes, and is refused with
# exit 2, nothing on stdout, and the line at fault.


def test_hand_made_file_is_refused(tmp_path):
    # the 7 translates of (0,1,3), a decomposition of K_7, sorted instead of
    # listed translate by translate
    hand = tmp_path / "hand.txt"
    hand.write_text("#cycles M=7 k=3 count=7\n0 1 3\n0 2 6\n0 4 5\n1 2 4\n1 5 6\n2 3 5\n3 4 6\n",
                    encoding="utf-8")
    assert run("orthogonality", hand, hand) == (
        2, "", f"error: {hand}: line 3: expected 1 2 4, the translate of line 2 by 1\n")


def test_extra_space_is_refused_at_its_line(tmp_path, h17_12_files):
    rows, cols = h17_12_files
    lines = rows.read_text(encoding="utf-8").split("\n")
    want = lines[5]
    lines[5] += " "
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("\n".join(lines), encoding="utf-8")
    error = f"error: {spaced}: line 6: expected {want}, the translate of line 2 by 4\n"
    assert run("orthogonality", spaced, cols) == (2, "", error)
    assert run("orthogonality", cols, spaced, "--json") == (2, "", error)


def test_corrupt_translate_names_its_line(tmp_path, h17_12_files):
    rows, cols = h17_12_files
    lines = rows.read_text(encoding="utf-8").split("\n")
    M = 409
    want = lines[M + 2]  # line M+3 of the file, the second translate of base 1
    a, b, *rest = want.split()
    lines[M + 2] = " ".join([b, a, *rest])
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("\n".join(lines), encoding="utf-8")
    assert run("orthogonality", corrupt, cols) == (
        2, "", f"error: {corrupt}: line 412: expected {want}, the translate of line 411 by 1\n")


def test_first_line_out_of_canonical_form_names_its_line(tmp_path):
    # (1,3,0) is the cycle (0,1,3), but not in its canonical rotation
    text = reference_text([(0, 1, 3)], 7).replace("\n0 1 3\n", "\n1 3 0\n")
    rotated = tmp_path / "rotated.txt"
    rotated.write_text(text, encoding="utf-8")
    assert run("orthogonality", rotated, rotated) == (
        2, "", f"error: {rotated}: line 2: expected 0 1 3, the canonical form of its cycle\n")


def test_cyclic_file_with_a_repeated_difference_names_the_difference(tmp_path):
    # (0,1,3) and (0,1,5) both have the difference 1; each block is a true orbit
    repeat = tmp_path / "repeat.txt"
    repeat.write_text(reference_text([(0, 1, 3), (0, 1, 5)], 13), encoding="utf-8")
    assert reference_index([(0, 1, 3), (0, 1, 5)], 13) is None
    assert run("orthogonality", repeat, repeat) == (
        2, "", f"error: {repeat}: difference 1 in base cycles 0 and 1\n")


@pytest.mark.parametrize("text,error", [
    ("#cycles M=0 k=3 count=1\n0 1 2\n", "#cycles header needs 3 <= k <= M, got k=3, M=0"),
    ("#cycles M=1000000 k=3 count=1000000\n0 1 3\n",
     "#cycles header needs at least 6000000 bytes for 1000000 cycles of length 3, the file has 42"),
    ("#cycles M=7 k=3 count=7\n0 1 3\n",
     "#cycles header needs at least 42 bytes for 7 cycles of length 3, the file has 30"),
    ("#cycles M=07 k=3 count=7\n" + "0 1 3\n" * 7, "malformed #cycles header"),
    ("#cycles M=7 k=3 count=7 \n" + "0 1 3\n" * 7, "malformed #cycles header"),
], ids=["k-above-M", "short-for-M", "short", "leading-zero", "trailing-space"])
def test_headers_the_reader_refuses(tmp_path, text, error):
    path = tmp_path / "c.txt"
    path.write_text(text, encoding="utf-8")
    assert run("orthogonality", path, path) == (2, "", f"error: {path}: line 1: {error}\n")


def test_trailing_line_is_refused(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(reference_text([(0, 1, 3)], 7) + "\n", encoding="utf-8")
    assert run("orthogonality", path, path) == (
        2, "", f"error: {path}: line 9: expected the end of the file\n")


def test_undecodable_byte_is_reported_at_its_line(tmp_path, h17_12_files):
    rows, cols = h17_12_files
    data = rows.read_bytes()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data[:200000] + b"\xff" + data[200001:])
    line = data[:200000].count(b"\n") + 1
    first = 2 + (line - 2) // 409 * 409
    assert line > first
    want = data.split(b"\n")[line - 1].decode()
    assert run("orthogonality", bad, cols) == (
        2, "", f"error: {bad}: line {line}: expected {want}, "
               f"the translate of line {first} by {line - first}\n")
