"""Closed-form globally simple integer Heffter arrays H(n;4p), p >= 1.

The array is built diagonal by diagonal: exactly the 4p diagonals
D_0 .. D_{4p-1} are filled, and every entry on D_d is congruent to the same
residue mod k = 4p.  The entry formulas branch on the parity of p.  Cell
coordinates are reduced mod n; the "(x+1 mod n)" factor inside entries is
reduced before multiplying by k, while everything else is exact integer
arithmetic.
"""

from __future__ import annotations

from .grid import HeffterGrid


def _check_params(n: int, p: int) -> None:
    if p < 1:
        raise ValueError("p must be positive")
    if n < 4 * p:
        raise ValueError(f"need n >= 4p, got n = {n} < {4 * p}")


def build_h4p(n: int, p: int) -> HeffterGrid:
    """Globally simple integer H(n;4p) for p >= 1 and n >= 4p."""
    _check_params(n, p)
    k = 4 * p
    entries: dict[tuple[int, int], int] = {}

    def put(r: int, x: int, e: int) -> None:
        entries[(r % n, x % n)] = e

    I = range((p - 1) // 2)
    for x in range(n):
        xp = (x + 1) % n
        for i in I:
            put(4 * i + x, x, 4 * i + 1 + k * x)
            put(4 * i + 1 + x, x, -(4 * i + 2) - k * xp)
            put(4 * i + 2 + x, x, -(k - (4 * i + 3)) - k * x)
            put(4 * i + 3 + x, x, k - (4 * i + 4) + k * xp)
        if p % 2 == 1:
            put(2 * p - 2 + x, x, 2 * p - 1 + k * x)
            put(2 * p - 1 + x, x, -2 * p - k * xp)
            for i in I:
                put(2 * p + 4 * i + x, x, -(2 * p - 2 - 4 * i) - k * x)
                put(2 * p + 4 * i + 1 + x, x, 2 * p - 3 - 4 * i + k * xp)
                put(2 * p + 4 * i + 2 + x, x, 2 * p + 4 + 4 * i + k * x)
                put(2 * p + 4 * i + 3 + x, x, -(2 * p + 5 + 4 * i) - k * xp)
        else:
            put(2 * p - 4 + x, x, 2 * p - 3 + k * x)
            put(2 * p - 3 + x, x, -2 * p + 2 - k * xp)
            for i in I:
                put(2 * p + 4 * i - 2 + x, x, -(2 * p - 4 * i) - k * x)
                put(2 * p + 4 * i - 1 + x, x, 2 * p - 1 - 4 * i + k * xp)
                put(2 * p + 4 * i + x, x, 2 * p + 2 + 4 * i + k * x)
                put(2 * p + 4 * i + 1 + x, x, -(2 * p + 3 + 4 * i) - k * xp)
            put(k - 6 + x, x, -4 - k * x)
            put(k - 5 + x, x, 3 + k * xp)
            put(k - 4 + x, x, k - 2 + k * x)
            put(k - 3 + x, x, -(k - 1) - k * xp)
        put(k - 2 + x, x, -(2 * p + 1 + k * x))
        put(k - 1 + x, x, k + k * xp)
    return HeffterGrid(n, n, entries)


def expected_diagonal_support(n: int, p: int, d: int) -> tuple[int, frozenset[int]]:
    """Residue class the support of diagonal D_d must realize.

    Returns (S_d, {S_d + kx : x in [n]}).  This is computed from the
    constant terms of the entry formulas alone and serves as a cross-check
    against the actual per-diagonal support of a built array.
    """
    _check_params(n, p)
    k = 4 * p
    if not 0 <= d < k:
        raise ValueError(f"diagonal label {d} not in [0, {k})")
    if p % 2 == 1:
        if d == 2 * p - 2:
            s = 2 * p - 1
        elif d == 2 * p - 1:
            s = 2 * p
        elif d == k - 2:
            s = 2 * p + 1
        elif d == k - 1:
            s = k
        elif d < 2 * p - 2:
            i, r = divmod(d, 4)
            s = (4 * i + 1, 4 * i + 2, k - (4 * i + 3), k - (4 * i + 4))[r]
        else:
            i, r = divmod(d - 2 * p, 4)
            s = (2 * p - 2 - 4 * i, 2 * p - 3 - 4 * i, 2 * p + 4 + 4 * i, 2 * p + 5 + 4 * i)[r]
    else:
        specials = {2 * p - 4: 2 * p - 3, 2 * p - 3: 2 * p - 2,
                    k - 6: 4, k - 5: 3, k - 4: k - 2, k - 3: k - 1,
                    k - 2: 2 * p + 1, k - 1: k}
        if d in specials:
            s = specials[d]
        elif d < 2 * p - 4:
            i, r = divmod(d, 4)
            s = (4 * i + 1, 4 * i + 2, k - (4 * i + 3), k - (4 * i + 4))[r]
        else:
            i, r = divmod(d - (2 * p - 2), 4)
            s = (2 * p - 4 * i, 2 * p - 1 - 4 * i, 2 * p + 2 + 4 * i, 2 * p + 3 + 4 * i)[r]
    return s, frozenset(s + k * x for x in range(n))
