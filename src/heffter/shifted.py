"""Support shifted globally simple arrays H(n;4p,gamma).

The filled cells sit on diagonals D_0 .. D_{4p-2} together with D_{2p+alpha},
where alpha is coprime to n; the support is {gamma*n+1 .. (4p+gamma)n} and
every line sums to exactly 0.
"""

from __future__ import annotations

import itertools
import math

from .grid import HeffterGrid


def least_coprime(n: int, start: int) -> int:
    """The least integer >= start coprime to n."""
    return next(v for v in itertools.count(start) if math.gcd(n, v) == 1)


def choose_alpha(n: int, p: int) -> int:
    """Smallest alpha in [2p-1, n-1-2p] coprime to n."""
    if n < 4 * p:
        raise ValueError(f"need n >= 4p, got n = {n} < {4 * p}")
    lo, hi = 2 * p - 1, n - 1 - 2 * p
    alpha = least_coprime(n, lo)
    if alpha > hi:
        raise ValueError(f"no alpha coprime to {n} in [{lo}, {hi}]")
    return alpha


def build_shifted(n: int, p: int, gamma: int, alpha: int) -> HeffterGrid:
    """The support shifted array H(n;4p,gamma) on diagonals D_0..D_{4p-2}, D_{2p+alpha}."""
    if p < 1:
        raise ValueError("p must be positive")
    if gamma < 1:
        raise ValueError("gamma must be positive")
    if n < 4 * p:
        raise ValueError(f"need n >= 4p, got n = {n} < {4 * p}")
    if not 2 * p - 1 <= alpha <= n - 1 - 2 * p:
        raise ValueError(f"alpha = {alpha} outside [{2 * p - 1}, {n - 1 - 2 * p}]")
    if math.gcd(n, alpha) != 1:
        raise ValueError(f"gcd({n}, {alpha}) != 1: diagonal D_{2 * p} cells would collide")

    entries: dict[tuple[int, int], int] = {}

    def put(r: int, c: int, e: int) -> None:
        entries[(r % n, c % n)] = e

    for x in range(n):
        for i in range(p):
            put(2 * i - x, -x, (gamma + 2) * n + 4 * i * n - 2 * x)
            put(2 * i + 1 + x, x, -gamma * n - 4 * i * n - 1 - 2 * x)
        put(2 * p - alpha * x, -alpha * x, -(4 * p + gamma) * n + 2 * x)
        for j in range(p - 1):
            put(2 * p + 1 + 2 * j - x, -x, (4 * p + gamma - 6) * n - 4 * j * n + 1 + 2 * x)
            put(2 * p + 2 + 2 * j + x, x, -(4 * p + gamma - 4) * n + 4 * j * n + 2 * x)
        put(2 * p + alpha + alpha * x, alpha * x, (4 * p + gamma - 2) * n + 1 + 2 * x)
    return HeffterGrid(n, n, entries)
