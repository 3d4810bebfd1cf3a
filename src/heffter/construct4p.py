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


def build_h4p(n: int, p: int) -> HeffterGrid:
    """Globally simple integer H(n;4p) for p >= 1 and n >= 4p."""
    if p < 1:
        raise ValueError("p must be positive")
    if n < 4 * p:
        raise ValueError(f"need n >= 4p, got n = {n} < {4 * p}")
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
