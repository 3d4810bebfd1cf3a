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
A developed system keeps only its base cycles and, for each difference d, the
base and start vertex u of its edge u -> u+d; its n*M cycles and its edge
index are built only when asked for.

Cycle files list cycle ``i*M + t`` as ``canonical_cycle(C_i + t)``.  Between
two shifts at which a vertex wraps to 0, the translates keep their rotation
and direction and every vertex moves up by one per line, so each column of
such a run is a range of consecutive vertices.  The writer makes the lines
as bytes from a table of every vertex of Z_M as a fixed-width token (digits
left-padded with NUL, then a separator): a column is one slice of the table,
one strided ``array`` copy per column puts it in its place among a chunk's
lines, and deleting the NULs leaves the text.  A run longer than
``_CHUNK_BYTES`` allows is cut, so the writer holds the O(M) table and one
chunk of at most ``_CHUNK_BYTES`` bytes, whatever k is.

``write_systems`` stages its files: it writes each one to a staging file,
created exclusively under a random name in its output's directory, and
renames them into place only once every one is written.  So a failed run
leaves no partial file and every earlier file at an output as it was, and
staging overwrites no other file.  A staging file's exact length (a closed
form in M, k and the count) is allocated before its first line: on ext4,
renaming a file whose blocks are not yet allocated over an existing file
waits for the kernel to allocate them and start writing them back.

``read_system`` takes a cycle file only in exactly that form.  It compares
each block of M lines, chunk by chunk, with the translates of the block's
first line and certifies those bases by their differences, so it holds no
more than the writer.  Any other file (a hand-made one, stray whitespace, a
line out of place, a repeated difference) is refused with a ValueError that
names its malformed header, its first line that differs, or the repeated
difference; the CLI exits 2 on it.

Two systems meet only along equal differences: if base C_i owns the edge
u -> u+d and base C'_j owns v -> v+d, then C_i + s and C'_j + t share that
edge exactly when t - s = u - v (mod M).  So ``orthogonality`` groups the
differences by (i, j, u - v mod M); the largest group is the most edges two
cycles share, and the worst pair is the greatest
(i*M + M-1, j*M + (M-1 + u-v) mod M) over the largest groups.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
from collections import Counter
from functools import cached_property
from typing import BinaryIO, Iterable, Iterator, Sequence

from .grid import HeffterGrid, partial_sums

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
    trace = partial_sums(grid, kind, a, modulus)
    if trace.sums and trace.sums[-1] % modulus != 0:
        raise NotSimple(f"{kind} {a}: total {trace.sums[-1]} not 0 mod {modulus}")
    if trace.collision is not None:
        i, j = trace.collision
        raise NotSimple(f"{kind} {a}: partial sums collide at positions {i},{j}")
    return trace.residues


class CyclicSystem:
    """The translates C_i + t of base cycles certified by their differences.

    ``owner`` maps each difference d to (i, u): base C_i has the edge
    u -> u+d.  Cycle ``i*M + t`` is ``canonical_cycle(C_i + t)``; ``cycles``
    lists them in that order and ``edge_index`` maps each edge to its cycle
    id, both on first use.
    """

    def __init__(self, modulus: int, k: int, bases: list[tuple[int, ...]],
                 owner: dict[int, tuple[int, int]]) -> None:
        self.modulus = modulus
        self.k = k
        self.bases = bases
        self.owner = owner

    @property
    def count(self) -> int:
        return len(self.bases) * self.modulus

    @property
    def is_complete(self) -> bool:
        return self.missing_edge_count() == 0

    def missing_edge_count(self) -> int:
        M = self.modulus
        return M * (M - 1) // 2 - self.k * self.count

    @cached_property
    def cycles(self) -> list[tuple[int, ...]]:
        M = self.modulus
        return [canonical_cycle([(v + t) % M for v in base])
                for base in self.bases for t in range(M)]

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: cid for cid, cyc in enumerate(self.cycles) for e in cycle_edges(cyc)}

    def line_chunks(self) -> Iterator[bytes]:
        """M lines per base, one base at a time, in chunks of at most ``_CHUNK_BYTES``."""
        tokens = _Tokens(self.modulus)
        for base in self.bases:
            yield from _translates(base, self.modulus, tokens)


# Bytes per chunk of cycle-file lines; a line longer than this is a chunk.
_CHUNK_BYTES = 1 << 20


def _token_format(modulus: int) -> tuple[str, int, int]:
    """The struct format and size of a token part, and the parts per token, for Z_M.

    A token of ``parts`` items of ``size`` bytes holds the digits of M-1 and
    a separator.  ``memoryview.cast`` takes 2-, 4- and 8-byte items, so a
    vertex of 8 or more digits takes two or more parts.
    """
    digits = len(str(modulus - 1))
    fmt, size = ("H", 2) if digits < 2 else ("I", 4) if digits < 4 else ("Q", 8)
    return fmt, size, digits // size + 1


class _Tokens:
    """Every vertex of Z_M as a fixed-width token: its digits left-padded with NUL, then a space.

    A token is ``len(parts)`` items of ``size`` bytes.  ``parts[h]`` is a
    memoryview of item h of every vertex's token, vertex after vertex, so
    item h of the tokens of vertices v..v+n-1 is ``parts[h][v:v + n]``.
    ``ended`` is the last part with each space a newline, for the last
    column of a line.
    """

    def __init__(self, modulus: int) -> None:
        self.format, self.size, parts = _token_format(modulus)
        self.width = self.size * parts
        # "%*d;" pads with spaces, which become NUL; then each ";" becomes the space
        text = f"%{self.width - 1}d;" * modulus % tuple(range(modulus))
        table = text.encode().replace(b" ", b"\0").replace(b";", b" ")
        # item-major: every vertex's first item, then every vertex's second, ...
        table = memoryview(table).cast(self.format, (modulus, parts)).tobytes("F")
        span = modulus * self.size
        self.parts = [memoryview(table[h * span:(h + 1) * span]).cast(self.format)
                      for h in range(parts)]
        self.ended = memoryview(table[-span:].replace(b" ", b"\n")).cast(self.format)
        # replace skips from NUL to NUL and translate reads every byte; replace
        # is the faster where fewer than one byte in 20 of the table is NUL
        nuls = modulus * self.width - _digits(modulus) - modulus
        self.sparse = 20 * nuls < modulus * self.width

    def lines(self, runs: list[tuple[Sequence[int], int]]) -> bytes:
        """The lines of consecutive runs, each given as (columns, count).

        A run has ``count`` lines, and its line s lists v + s for each v in
        ``columns``; no v + s may reach M.
        """
        from array import array  # here, to keep it out of every other command's start-up

        counts = [count for _, count in runs]
        starts = list(zip(*(columns for columns, _ in runs)))  # column by column
        rows = [part[v:v + n]
                for part in self.parts for column in starts for v, n in zip(column, counts)]
        rows[-len(runs):] = [self.ended[v:v + n] for v, n in zip(starts[-1], counts)]
        # row r = h*columns + c holds item h of column c over all the lines;
        # one strided copy each puts them line by line, item h of column c at
        # c*parts + h
        items = array(self.format, b"".join(rows))
        parts, columns, lines = len(self.parts), len(starts), sum(counts)
        block = array(self.format, bytes(self.size * len(items)))
        for r in range(parts * columns):
            h, c = divmod(r, columns)
            block[c * parts + h::parts * columns] = items[r * lines:(r + 1) * lines]
        text = block.tobytes()
        return text.replace(b"\0", b"") if self.sparse else text.translate(None, b"\0")


def _translates(base: Sequence[int], modulus: int, tokens: _Tokens) -> Iterator[bytes]:
    """The lines of ``canonical_cycle(base + t)`` for t = 0..M-1, in chunks of ``_CHUNK_BYTES``.

    ``base`` holds distinct vertices of Z_M.  Vertex v wraps to 0 at
    t = M - v; between two wraps every vertex moves up by one per step, so
    the rotation and direction that ``canonical_cycle`` picks stay the same
    and each column of the run is one slice of the token table.  A chunk
    holds whole runs, or pieces of one where a run is longer than a chunk.
    """
    step = max(1, _CHUNK_BYTES // (len(base) * tokens.width))
    cuts = sorted({0, modulus}.union(modulus - v for v in base if v))
    runs, room = [], step
    for t0, t1 in zip(cuts, cuts[1:]):
        start = canonical_cycle([(v + t0) % modulus for v in base])
        while True:
            count = min(room, t1 - t0)
            runs.append((start, count))
            t0 += count
            room -= count
            if not room:
                yield tokens.lines(runs)
                runs, room = [], step
            if t0 == t1:
                break
            start = [v + count for v in start]
    if runs:
        yield tokens.lines(runs)


def _owners(bases: list[tuple[int, ...]], modulus: int) -> dict[int, tuple[int, int]]:
    """The difference certificate of ``develop``: d -> (base id, start of its edge u -> u+d)."""
    k = len(bases[0])
    owner: dict[int, tuple[int, int]] = {}
    for b, base in enumerate(bases):
        if len(base) != k:
            raise ValueError("base cycles have mixed lengths")
        if len(set(base)) != k:
            raise NotSimple(f"base cycle {b} repeats a vertex mod {modulus}")
        for u, v in zip(base, base[1:] + base[:1]):
            d = (v - u) % modulus
            if d in owner or 2 * d == modulus:
                first = owner[d][0] if d in owner else b
                raise NotADecomposition(f"difference {d} in base cycles {first} and {b}")
            owner[d] = (b, u)
            owner[modulus - d] = (b, v)
    return owner


def develop(base_cycles: Iterable[Sequence[int]], modulus: int) -> CyclicSystem:
    """All translates C + t of the base cycles, certified by their differences.

    Raises ValueError if there is no base cycle or one has fewer than 3
    vertices, NotSimple if a base cycle repeats a vertex mod M, and
    NotADecomposition (naming the difference and both base cycle ids) if a
    difference d or its negative occurs twice.  For even M, d = M/2 is its
    own negative: its orbit covers each of its edges twice, so it counts as
    a repeat.
    """
    bases = [tuple(v % modulus for v in base) for base in base_cycles]
    if not bases:
        raise ValueError("no base cycles")
    if len(bases[0]) < 3:
        raise ValueError(f"a base cycle needs at least 3 vertices, got {len(bases[0])}")
    return CyclicSystem(modulus, len(bases[0]), bases, _owners(bases, modulus))


def line_system(grid: HeffterGrid, kind: str, modulus: int) -> CyclicSystem:
    """Develop the base cycles of every row (kind "row") or every column (kind "col")."""
    count = grid.m if kind == "row" else grid.n
    bases = [base_cycle(grid, kind, a, modulus) for a in range(count)]
    return develop(bases, modulus)


def orthogonality(first: CyclicSystem, second: CyclicSystem) -> tuple[bool, int, tuple[int, int]]:
    """Whether every cycle pair across the two systems shares at most one edge.

    Returns (verdict, max shared edges, the cycle-id pair achieving the
    maximum, the greatest such pair on ties, or (-1, -1) if no edge is
    shared).  The systems are joined by their difference owners in O(M);
    each comes from ``develop`` or from a file ``read_system`` accepted,
    which is exactly what ``write_system`` writes.
    """
    if first.modulus != second.modulus:
        raise ValueError("cycle systems live on different vertex sets")
    M = first.modulus
    groups: Counter[tuple[int, int, int]] = Counter()
    for d, (i, u) in first.owner.items():
        # d and M-d name the same edges; d = M/2 never certifies
        if 2 * d < M and d in second.owner:
            j, v = second.owner[d]
            groups[i, j, (u - v) % M] += 1
    if not groups:
        return True, 0, (-1, -1)
    worst = max(groups.values())
    # the pairs of a group (i, j, delta) are (i*M + s, j*M + (s + delta) mod M)
    a, b = max((i * M + M - 1, j * M + (M - 1 + delta) % M)
               for (i, j, delta), count in groups.items() if count == worst)
    return worst <= 1, worst, (a, b)


# -- cycle-system files --------------------------------------------------

_CYCLE_HEADER = re.compile(rb"#cycles M=([0-9]+) k=([0-9]+) count=([0-9]+)\n")


def _header(modulus: int, k: int, count: int) -> str:
    return f"#cycles M={modulus} k={k} count={count}\n"


def _file_size(modulus: int, k: int, count: int) -> int:
    """The length in bytes of the cycle file of ``count`` cycles of length k on Z_M.

    Each column of a base's M translates passes every vertex of Z_M once,
    each with its separator.
    """
    return len(_header(modulus, k, count)) + count // modulus * k * (_digits(modulus) + modulus)


def _digits(modulus: int) -> int:
    """The digits of 0, 1, ..., M-1 together: M*d - (10 + ... + 10**(d-1)), d those of M-1."""
    d = len(str(modulus - 1))
    return modulus * d - sum(10**j for j in range(1, d))


def _reserve(fd: int, size: int) -> None:
    """Allocate the first ``size`` bytes of the file, where the file system can.

    On ext4 (with its default ``auto_da_alloc``) renaming a file that still
    holds data without allocated blocks over an existing file makes the
    kernel allocate the blocks and start writing them back before the rename
    returns; a file whose blocks are allocated up front is renamed without
    that wait.  Without ``posix_fallocate``, or where the file system
    refuses it, the file is written as it is.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(fd, 0, size)
    except OSError as exc:
        if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL, errno.ENOSYS):
            raise


def write_system(path, system: CyclicSystem) -> None:
    """Write one cycle file: ``write_systems`` with one output."""
    write_systems([(path, system)])


def write_systems(outputs: Sequence[tuple[str | os.PathLike[str], CyclicSystem]]) -> None:
    """Write every cycle file to its own staging file, then rename each into place.

    A staging file gets a random name, is created exclusively in the
    directory of its output (so it overwrites no other file, output or not),
    and takes the mode ``open`` would give a new file.  Its exact length is
    allocated before the first line is written and checked before any file
    is renamed.  An existing directory as an output is refused before
    anything is written, since renaming onto it would fail only after the
    earlier outputs were in place.  On any failure every staging file is
    removed, so each output keeps whatever file it held before, and an
    ``OSError`` names the output asked for, not its staging file.
    """
    import tempfile  # here, to keep it out of every other command's start-up

    for path, _ in outputs:
        if os.path.isdir(path) and not os.path.islink(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    staged = []
    try:
        for path, system in outputs:
            fd, tmp = tempfile.mkstemp(".tmp", dir=os.path.dirname(path) or ".")
            staged.append(tmp)
            _write(fd, system)
        for (path, _), tmp in zip(outputs, staged):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write(fd: int, system: CyclicSystem) -> None:
    """Write the cycle file of ``system`` to the new, empty file ``fd`` and close it."""
    size = _file_size(system.modulus, system.k, system.count)
    with open(fd, "wb") as fh:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        _reserve(fd, size)
        fh.write(_header(system.modulus, system.k, system.count).encode())
        for chunk in system.line_chunks():
            fh.write(chunk)
        if fh.tell() != size:
            # the allocation set the file's length; a shorter file would end in NULs
            raise RuntimeError(f"wrote {fh.tell()} bytes of a cycle file, not {size}")


def read_system(path) -> CyclicSystem:
    """Read a cycle file exactly as ``write_system`` writes it.

    Any other file raises a ValueError, on which the CLI exits 2, that
    starts with the path and names the malformed header, the first line that
    is not what ``write_system`` writes there for its block's first line, or
    the repeated difference.
    """
    with open(path, "rb") as fh:
        try:
            return _read(fh)
        except ValueError as exc:
            raise ValueError(f"{os.fspath(path)}: {exc}") from exc


def _read(fh: BinaryIO) -> CyclicSystem:
    header = fh.readline(256)  # far longer than any header write_system writes
    match = _CYCLE_HEADER.fullmatch(header)
    if not match or header != _header(*map(int, match.groups())).encode():
        raise ValueError("line 1: malformed #cycles header")
    M, k, count = map(int, match.groups())
    if not 3 <= k <= M:
        raise ValueError(f"line 1: #cycles header needs 3 <= k <= M, got k={k}, M={M}")
    if count == 0 or count % M:
        raise ValueError(f"line 1: #cycles header needs count a positive multiple of M, "
                         f"got count={count}, M={M}")
    # each line holds k vertices and k separators, so a file too short for
    # its header builds no table of M tokens
    size = os.fstat(fh.fileno()).st_size
    if size < 2 * k * count:
        raise ValueError(f"line 1: #cycles header needs at least {2 * k * count} bytes "
                         f"for {count} cycles of length {k}, the file has {size}")
    tokens = _Tokens(M)
    width = k * (len(str(M - 1)) + 1)  # the longest line
    bases = []
    for b in range(count // M):
        line, at = 2 + b * M, fh.tell()
        fields = fh.readline(width).split()
        if not all(map(bytes.isdigit, fields)):
            raise ValueError(f"line {line}: vertices must be ASCII decimal integers")
        base = tuple(map(int, fields))
        if len(base) != k:
            raise ValueError(f"line {line}: expected {k} vertices")
        if max(base) >= M:
            raise ValueError(f"line {line}: vertex {max(base)} is not in Z_{M}")
        if len(set(base)) != k:
            raise ValueError(f"line {line} repeats a vertex")
        fh.seek(at)
        for chunk in _translates(base, M, tokens):
            if fh.read(len(chunk)) != chunk:
                raise ValueError(_first_difference(fh, at, line, base, M, tokens))
        bases.append(base)
    if fh.read(1):
        raise ValueError(f"line {2 + count}: expected the end of the file")
    return CyclicSystem(M, k, bases, _owners(bases, M))


def _first_difference(fh: BinaryIO, at: int, line: int, base: tuple[int, ...],
                      modulus: int, tokens: _Tokens) -> str:
    """Name the first line of the block at byte ``at`` (file line ``line``) that differs.

    The block is known to differ somewhere from the translates of ``base``.
    """
    fh.seek(at)
    lines = (want for chunk in _translates(base, modulus, tokens)
             for want in chunk.splitlines(keepends=True))
    t, want = next((t, want) for t, want in enumerate(lines) if fh.read(len(want)) != want)
    text = want.decode().rstrip("\n")
    if t == 0:
        return f"line {line}: expected {text}, the canonical form of its cycle"
    return f"line {line + t}: expected {text}, the translate of line {line} by {t}"
