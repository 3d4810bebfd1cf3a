"""Cyclic k-cycle systems of the complete graph from a simple Heffter array.

Each line of the array whose partial sums are distinct mod M gives a base
cycle on Z_M (the partial sums themselves); developing every base cycle under
x -> x+1 produces a cycle system.  Row and column systems of the same array
are orthogonal: any two cycles, one from each, share at most one edge.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .grid import HeffterGrid, natural_order, partial_sums

Edge = tuple[int, int]


class NotSimple(ValueError):
    """The line's ordering is not simple, so its cycle would degenerate."""


class NotADecomposition(ValueError):
    """A developed edge appeared in two cycles."""


def canonical_cycle(vertices: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation of the lesser traversal direction."""
    best = None
    for seq in (tuple(vertices), tuple(reversed(vertices))):
        for r in range(len(seq)):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best


def cycle_edges(vertices: Sequence[int]) -> list[Edge]:
    k = len(vertices)
    edges = []
    for i in range(k):
        u, v = vertices[i], vertices[(i + 1) % k]
        edges.append((u, v) if u < v else (v, u))
    return edges


def base_cycle(grid: HeffterGrid, kind: str, a: int, ordering, modulus: int) -> tuple[int, ...]:
    """The k partial-sum residues of one line as a cycle on Z_M.

    Consecutive differences around the cycle are the line's entries, and the
    last vertex is 0 (the line sums to 0 mod M).
    """
    trace = partial_sums(grid, kind, a, ordering, modulus)
    if trace.sums and trace.sums[-1] % modulus != 0:
        raise NotSimple(f"{kind} {a}: total {trace.sums[-1]} not 0 mod {modulus}")
    if not trace.all_distinct:
        i, j = trace.first_collision()
        raise NotSimple(f"{kind} {a}: partial sums collide at positions {i},{j}")
    return trace.residues


@dataclass
class CycleSystem:
    """A set of k-cycles on Z_M with an index from each edge to its cycle."""

    modulus: int
    k: int
    cycles: list[tuple[int, ...]]
    edge_index: dict[Edge, int]

    @property
    def is_complete(self) -> bool:
        M = self.modulus
        return len(self.edge_index) == M * (M - 1) // 2

    def missing_edge_count(self) -> int:
        M = self.modulus
        return M * (M - 1) // 2 - len(self.edge_index)


def develop(base_cycles: Iterable[Sequence[int]], modulus: int) -> CycleSystem:
    """All translates C + t of the base cycles, with the full edge index.

    Raises NotADecomposition (naming the edge and both cycle ids) if any
    edge is covered twice.
    """
    cycles: list[tuple[int, ...]] = []
    edge_index: dict[Edge, int] = {}
    k = None
    for base in base_cycles:
        if k is None:
            k = len(base)
        elif len(base) != k:
            raise ValueError("base cycles have mixed lengths")
        for t in range(modulus):
            translated = canonical_cycle([(v + t) % modulus for v in base])
            cid = len(cycles)
            cycles.append(translated)
            for e in cycle_edges(translated):
                if e in edge_index:
                    raise NotADecomposition(
                        f"edge {e} in cycles {edge_index[e]} and {cid}"
                    )
                edge_index[e] = cid
    if k is None:
        raise ValueError("no base cycles")
    return CycleSystem(modulus, k, cycles, edge_index)


def line_system(grid: HeffterGrid, kind: str, modulus: int, order=natural_order) -> CycleSystem:
    """Develop the base cycles of every row (kind "row") or every column (kind "col")."""
    count = grid.m if kind == "row" else grid.n
    bases = [base_cycle(grid, kind, a, order(grid, kind, a), modulus) for a in range(count)]
    return develop(bases, modulus)


def orthogonality(first: CycleSystem, second: CycleSystem) -> tuple[bool, int, tuple[int, int]]:
    """Whether every cycle pair across the two systems shares at most one edge.

    Joins the edge indexes (linear in the edge count) and returns
    (verdict, max shared edges, the cycle-id pair achieving the maximum).
    """
    if first.modulus != second.modulus:
        raise ValueError("cycle systems live on different vertex sets")
    shared: Counter = Counter()
    for e, cid in first.edge_index.items():
        other = second.edge_index.get(e)
        if other is not None:
            shared[(cid, other)] += 1
    if not shared:
        return True, 0, (-1, -1)
    (pair, worst) = max(shared.items(), key=lambda kv: (kv[1], kv[0]))
    return worst <= 1, worst, pair


# -- cycle-system files --------------------------------------------------

_CYCLE_HEADER = re.compile(r"#cycles M=([0-9]+) k=([0-9]+) count=([0-9]+)\s*$")


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
    edge_index: dict[Edge, int] = {}
    for cid, line in enumerate(body):
        cyc = tuple(int(v) for v in line.split())
        if len(cyc) != k:
            raise ValueError(f"cycle {cid} has length {len(cyc)}, expected {k}")
        cycles.append(cyc)
        for e in cycle_edges(cyc):
            if e in edge_index:
                raise NotADecomposition(f"edge {e} in cycles {edge_index[e]} and {cid}")
            edge_index[e] = cid
    return CycleSystem(M, k, cycles, edge_index)


def write_system(path, system: CycleSystem) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(system_to_text(system))


def read_system(path) -> CycleSystem:
    with open(path, encoding="utf-8") as fh:
        return system_from_text(fh.read())
