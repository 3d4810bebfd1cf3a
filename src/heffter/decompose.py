"""Cyclic k-cycle systems of the complete graph from a simple Heffter array.

Each line of the array whose partial sums are distinct mod M gives a base
cycle on Z_M (the partial sums themselves); developing every base cycle under
x -> x+1 produces a cycle system.  Row and column systems of the same array
are orthogonal: any two cycles, one from each, share at most one edge.

``develop`` certifies a system by the difference method instead of joining
edges: the translates of base cycles on Z_M are pairwise edge-disjoint exactly
when the differences +-(v - u) over the base cycles' edges are distinct mod M,
and they decompose K_M exactly when those differences also cover every
nonzero residue.  The differences of a line's base cycle are the line's
entries, so a simple Heffter array certifies itself (Archdeacon, "Heffter
arrays and biembedding graphs on surfaces", Electron. J. Combin. 22, 2015).
``develop`` and ``line_system`` therefore build no edge index; only
``orthogonality`` and the cycle-file reader, which checks a file it did not
develop, join edges.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .grid import HeffterGrid, natural_order, partial_sums

Edge = tuple[int, int]


class NotSimple(ValueError):
    """The line's ordering is not simple, so its cycle would degenerate."""


class NotADecomposition(ValueError):
    """Two cycles of a system share an edge."""


def canonical_cycle(vertices: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation of the lesser traversal direction.

    The vertices must be distinct, so the least rotation starts at the least
    vertex and only the two directions from it need comparing.
    """
    start = vertices.index(min(vertices))
    fwd = tuple(vertices[start:]) + tuple(vertices[:start])
    return min(fwd, fwd[:1] + fwd[:0:-1])


def cycle_edges(vertices: Sequence[int]) -> list[Edge]:
    return [(u, v) if u < v else (v, u) for u, v in zip(vertices, vertices[1:] + vertices[:1])]


def base_cycle(grid: HeffterGrid, kind: str, a: int, modulus: int) -> tuple[int, ...]:
    """The k natural-order partial-sum residues of one line as a cycle on Z_M.

    Consecutive differences around the cycle are the line's entries, and the
    last vertex is 0 (the line sums to 0 mod M).
    """
    trace = partial_sums(grid, kind, a, natural_order(grid, kind, a), modulus)
    if trace.sums and trace.sums[-1] % modulus != 0:
        raise NotSimple(f"{kind} {a}: total {trace.sums[-1]} not 0 mod {modulus}")
    if trace.collision is not None:
        i, j = trace.collision
        raise NotSimple(f"{kind} {a}: partial sums collide at positions {i},{j}")
    return trace.residues


@dataclass
class CycleSystem:
    """A set of pairwise edge-disjoint k-cycles on Z_M.

    ``develop`` certifies the disjointness by differences and the file reader
    by ``edge_index``, so the cycles cover exactly k * len(cycles) edges.
    """

    modulus: int
    k: int
    cycles: list[tuple[int, ...]]

    @property
    def is_complete(self) -> bool:
        return self.missing_edge_count() == 0

    def missing_edge_count(self) -> int:
        M = self.modulus
        return M * (M - 1) // 2 - self.k * len(self.cycles)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Each edge's cycle id, built on first use.

        Raises NotADecomposition (naming the edge and both cycle ids) if two
        cycles share an edge.
        """
        index: dict[Edge, int] = {}
        for cid, cyc in enumerate(self.cycles):
            for e in cycle_edges(cyc):
                if e in index:
                    raise NotADecomposition(f"edge {e} in cycles {index[e]} and {cid}")
                index[e] = cid
        return index


def develop(base_cycles: Iterable[Sequence[int]], modulus: int) -> CycleSystem:
    """All translates C + t of the base cycles, certified by their differences.

    Raises NotSimple if a base cycle repeats a vertex mod M, and
    NotADecomposition (naming the difference and both base cycle ids) if a
    difference d or its negative occurs twice.  For even M, d = M/2 is its
    own negative: its orbit covers each of its edges twice, so it counts as
    a repeat.
    """
    bases = [[v % modulus for v in base] for base in base_cycles]
    if not bases:
        raise ValueError("no base cycles")
    k = len(bases[0])
    owner: dict[int, int] = {}
    for b, base in enumerate(bases):
        if len(base) != k:
            raise ValueError("base cycles have mixed lengths")
        if len(set(base)) != k:
            raise NotSimple(f"base cycle {b} repeats a vertex mod {modulus}")
        for u, v in zip(base, base[1:] + base[:1]):
            d = (v - u) % modulus
            if d in owner or 2 * d == modulus:
                raise NotADecomposition(
                    f"difference {d} in base cycles {owner.get(d, b)} and {b}"
                )
            owner[d] = owner[modulus - d] = b
    cycles = [canonical_cycle([(v + t) % modulus for v in base])
              for base in bases for t in range(modulus)]
    return CycleSystem(modulus, k, cycles)


def line_system(grid: HeffterGrid, kind: str, modulus: int) -> CycleSystem:
    """Develop the base cycles of every row (kind "row") or every column (kind "col")."""
    count = grid.m if kind == "row" else grid.n
    bases = [base_cycle(grid, kind, a, modulus) for a in range(count)]
    return develop(bases, modulus)


def orthogonality(first: CycleSystem, second: CycleSystem) -> tuple[bool, int, tuple[int, int]]:
    """Whether every cycle pair across the two systems shares at most one edge.

    Looks up each edge of each cycle of ``second`` in the edge index of
    ``first`` (linear in the edge count) and returns (verdict, max shared
    edges, the cycle-id pair achieving the maximum, the greatest such pair
    on ties).
    """
    if first.modulus != second.modulus:
        raise ValueError("cycle systems live on different vertex sets")
    index = first.edge_index
    best = (0, -1, -1)
    for cid, cyc in enumerate(second.cycles):
        shared = Counter(map(index.get, cycle_edges(cyc)))
        shared.pop(None, None)
        for other, count in shared.items():
            best = max(best, (count, other, cid))
    worst, a, b = best
    return worst <= 1, worst, (a, b)


# -- cycle-system files --------------------------------------------------

_CYCLE_HEADER = re.compile(r"#cycles M=([0-9]+) k=([0-9]+) count=([0-9]+)\s*$")
# A line of ASCII digits and whitespace splits into [0-9]+ fields; int()
# would also take "1_0", signs and non-ASCII digits.
_VERTICES = re.compile(r"[0-9\s]+")


def system_to_text(system: CycleSystem) -> str:
    lines = [f"#cycles M={system.modulus} k={system.k} count={len(system.cycles)}"]
    for cyc in system.cycles:
        lines.append(" ".join(str(v) for v in cyc))
    return "\n".join(lines) + "\n"


def system_from_text(text: str) -> CycleSystem:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty cycle file")
    match = _CYCLE_HEADER.match(lines[0])
    if not match:
        raise ValueError("missing or malformed #cycles header")
    M, k, count = (int(g) for g in match.groups())
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != count:
        raise ValueError(f"expected {count} cycles, found {len(body)}")
    cycles = []
    for cid, line in enumerate(body):
        if not _VERTICES.fullmatch(line):
            raise ValueError(f"cycle {cid}: vertices must be ASCII decimal integers")
        cyc = tuple(map(int, line.split()))
        if len(cyc) != k:
            raise ValueError(f"cycle {cid} has length {len(cyc)}, expected {k}")
        if max(cyc) >= M:
            raise ValueError(f"cycle {cid}: vertex {max(cyc)} is not in Z_{M}")
        if len(set(cyc)) != k:
            raise ValueError(f"cycle {cid} repeats a vertex")
        cycles.append(cyc)
    system = CycleSystem(M, k, cycles)
    system.edge_index  # raises NotADecomposition if two cycles share an edge
    return system


def write_system(path, system: CycleSystem) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(system_to_text(system))


def read_system(path) -> CycleSystem:
    with open(path, encoding="utf-8") as fh:
        return system_from_text(fh.read())
