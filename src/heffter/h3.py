"""H(n;3) arrays concentrated on three diagonals, plus diagonal relocation.

``build_h3_base`` produces an H(n;3) whose filled cells lie on D_0, D_1 and
D_{n-1}, with D_0 carrying {1..n} up to sign, D_{n-1} all positive and D_1
all negative, and every line summing to exactly 0.  Writing row a as
(b_a on D_{n-1}, c_a on D_0, d_a on D_1) the defining equations are

    b_a + c_a + d_a = 0          (row a)
    c_a + d_{a+1} + b_{a-1} = 0  (column a, indices mod n)

with b values and |d| values partitioning {n+1..3n} and |c| = {1..n}.
Eliminating d gives b_{a+1} = b_{a-1} + c_a - c_{a+1}, so D_0 and the first
one (n odd) or two (n even) values of b fix the whole array.  The closed
forms follow Archdeacon, Dinitz, Donovan and Yazıcı, "Square integer
Heffter arrays with empty cells" (Des. Codes Cryptogr., 2015):

    n = 4m+1:  c = (n-2, n-3, ..., 2m+1, n, -(2m-1), ..., -1, 2m, n-1),
               b_0 = n+2
    n = 4m:    c = (n-1, n-2, ..., 2m+2, -n, -2m, -(2m-1), ..., -1, -(2m+1)),
               b_0 = n+1, b_1 = 2n+2   (n >= 8)

and d_a = -(b_a + c_a).  The forms do not cover n = 4, whose one array is
given as a literal.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .grid import HeffterGrid

# (b, c, d) for n = 4, where the n = 4m form does not apply
_H4 = ((9, 5, 11, 10), (-2, 3, 1, -4), (-7, -8, -12, -6))


def _triples_to_grid(n: int, b: Sequence[int], c: Sequence[int],
                     d: Sequence[int]) -> HeffterGrid:
    entries: dict[tuple[int, int], int] = {}
    for a in range(n):
        entries[(a, (a + 1) % n)] = b[a]
        entries[(a, a)] = c[a]
        entries[(a, (a - 1) % n)] = d[a]
    return HeffterGrid(n, n, entries)


def build_h3_base(n: int) -> HeffterGrid:
    """An H(n;3) on diagonals D_0, D_1, D_{n-1} with the structure above.

    Requires n congruent to 0 or 1 mod 4 and n >= 4.
    """
    if n % 4 not in (0, 1):
        raise ValueError(f"n = {n}: need n congruent to 0 or 1 mod 4")
    if n < 4:
        raise ValueError(f"n = {n}: need n >= 4")
    if n == 4:
        return _triples_to_grid(n, *_H4)
    m = n // 4
    b = [0] * n
    if n % 4 == 1:
        c = [*range(n - 2, 2 * m, -1), n, *range(1 - 2 * m, 0), 2 * m, n - 1]
        b[0] = n + 2
        # n is odd, so stepping by 2 from row 0 reaches every row
        order = [2 * i % n for i in range(1, n)]
    else:
        c = [*range(n - 1, 2 * m + 1, -1), -n, *range(-2 * m, 0), -(2 * m + 1)]
        b[0], b[1] = n + 1, 2 * n + 2
        order = range(2, n)
    for a in order:
        b[a] = b[a - 2] + c[a - 1] - c[a]
    d = [-(bv + cv) for bv, cv in zip(b, c)]
    return _triples_to_grid(n, b, c, d)


def relocate_h3(base: HeffterGrid, beta: int, eps: int) -> HeffterGrid:
    """Move the three diagonals of a base array onto D_beta, D_{beta+eps}, D_{beta+2eps}.

    Cell (i, j) of the base goes to (eps*(i+1)+beta, eps*j), all mod n; this
    is a row/column permutation, so it needs gcd(n, eps) = 1 and preserves
    being an H(n;3).  D_{n-1} lands on D_beta, D_0 on D_{beta+eps} and D_1
    on D_{beta+2eps}.
    """
    n = base.n
    if not base.is_square:
        raise ValueError("relocation is defined for square grids")
    if math.gcd(n, eps) != 1:
        raise ValueError(f"gcd({n}, {eps}) != 1: relocated cells would collide")
    if not 0 <= beta <= n - 2 * eps - 1:
        raise ValueError(f"beta = {beta} outside [0, {n - 2 * eps - 1}]")
    entries = {
        ((eps * (i + 1) + beta) % n, (eps * j) % n): e
        for (i, j), e in base.entries.items()
    }
    return HeffterGrid(n, n, entries)


def cyclic_shift(grid: HeffterGrid, t: int) -> HeffterGrid:
    """Shift rows and columns together: output(i, j) = grid(i+t, j+t) mod n.

    Every diagonal keeps its multiset of entries.
    """
    if not grid.is_square:
        raise ValueError("cyclic shift is defined for square grids")
    n = grid.n
    entries = {((i - t) % n, (j - t) % n): e for (i, j), e in grid.entries.items()}
    return HeffterGrid(n, n, entries)
