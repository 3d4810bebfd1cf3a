"""Globally simple H(n;4p+3): overlay an H(n;3) on a support shifted H(n;4p,3).

The shifted array leaves the diagonals outside {0..4p-2, 2p+alpha} empty; an
H(n;3) relocated onto D_{2p+alpha-eps-1}, D_{2p+alpha-1}, D_{2p+alpha+eps-1}
fills three of them.  With the shifted support {3n+1..(4p+3)n} and the
ladder support {1..3n} the union covers {1..(4p+3)n}.  For n = 1 mod 4 the
step is eps = 2; for n = 0 mod 4 a small coprime eps is searched for.  Every
candidate is accepted only after the independent verifier passes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .construct4p import UnsupportedParameters
from .grid import HeffterGrid
from .h3 import build_h3_base, cyclic_shift, relocate_h3
from .shifted import build_shifted
from .verify import verify_globally_simple, verify_heffter, verify_integer


class NoParameters(RuntimeError):
    """No (eps, alpha, shift) triple produced a verified array."""


@dataclass(frozen=True)
class MergeParams:
    n: int
    p: int
    alpha: int
    eps: int
    beta: int
    shift: int
    modulus: int


def _forbidden_values(n: int, p: int) -> set[int]:
    # the second member only constrains anything when it is an integer
    forb = {2 * n - 1}
    if (2 * p + 1) % 3 == 0:
        forb.add(2 * n - (2 * p + 1) // 3)
    return forb


def _overlay(shifted: HeffterGrid, ladder: HeffterGrid) -> HeffterGrid:
    entries = dict(shifted.entries)
    for cell, e in ladder.entries.items():
        if cell in entries:
            raise ValueError(f"overlay collision at cell {cell}")
        entries[cell] = e
    return HeffterGrid(shifted.n, shifted.n, entries)


def _full_verify(grid: HeffterGrid, n: int, k: int) -> bool:
    # distinct partial sums are required both mod 2nk+1 and mod 2nk+2: the
    # latter also holds for free when prefix sums stay within [-nk, nk], and
    # demanding it here rules out the few shifts whose sums drift past that
    M = 2 * n * k + 1
    return (verify_heffter(grid, k, k).overall
            and verify_integer(grid).overall
            and verify_globally_simple(grid, M, also_mod_plus_one=True).overall)


def _try_merge(shifted: HeffterGrid, base: HeffterGrid, n: int, p: int,
               alpha: int, eps: int, shifts) -> tuple[HeffterGrid, int] | None:
    beta = 2 * p + alpha - eps - 1
    relocated = relocate_h3(base, beta, eps)
    forb = _forbidden_values(n, p)
    for t in shifts:
        ladder = cyclic_shift(relocated, t)
        top = ladder.entry(beta % n, 0)
        bottom = ladder.entry((beta + 2 * eps) % n, 0)
        if top in forb or (bottom is not None and -bottom in forb):
            continue
        merged = _overlay(shifted, ladder)
        if _full_verify(merged, n, 4 * p + 3):
            return merged, t
    return None


def build_h4p3(
    n: int,
    p: int,
    alpha: int | None = None,
    eps: int | None = None,
    shift: int | None = None,
    node_budget: int | None = None,
) -> tuple[HeffterGrid, MergeParams]:
    """Globally simple H(n;4p+3) plus the parameters that produced it."""
    if p < 1:
        raise ValueError("p must be positive")
    if n < 4 * p + 3:
        raise ValueError(f"need n >= 4p+3, got n = {n} < {4 * p + 3}")
    if n % 4 not in (0, 1):
        raise UnsupportedParameters(f"n = {n}: need n congruent to 0 or 1 mod 4")

    if n % 4 == 1:
        if eps is not None and eps != 2:
            raise ValueError("eps must be 2 when n = 1 mod 4")
        if alpha is None:
            alpha = (n - 1) // 2
        if not 2 * p + 2 <= alpha <= n - 2 - 2 * p:
            raise ValueError(f"alpha = {alpha} outside [{2 * p + 2}, {n - 2 - 2 * p}]")
        if math.gcd(n, alpha) != 1:
            raise ValueError(f"gcd({n}, {alpha}) != 1")
        pairs = [(2, alpha)]
    else:
        pairs = _candidates(n, p, eps, alpha)
        if not pairs:
            raise UnsupportedParameters(
                f"no admissible (eps, alpha) for n={n}, p={p}: for n = 0 mod 4 the merge "
                f"needs an eps coprime to n with 3 <= eps <= (n-4p)/2, so n well above k"
            )

    base = build_h3_base(n, node_budget)
    k = 4 * p + 3
    shifts = range(n) if shift is None else (shift,)
    for e, a in pairs:
        shifted = build_shifted(n, p, 3, a)
        result = _try_merge(shifted, base, n, p, a, e, shifts)
        if result is not None:
            merged, t = result
            return merged, MergeParams(n, p, a, e, 2 * p + a - e - 1, t, 2 * n * k + 1)
    raise NoParameters(f"no (eps, alpha, shift) verified for n={n}, p={p}")


def _candidates(n: int, p: int, eps: int | None, alpha: int | None) -> list[tuple[int, int]]:
    """Admissible (eps, alpha) pairs for n = 0 mod 4, smallest eps then smallest alpha.

    eps = 1 would put a ladder diagonal on D_{2p+alpha}.
    """
    if eps is not None and alpha is not None:
        pairs = [(eps, alpha)]
    else:
        pairs = []
        if n % 12 != 0 and n >= 4 * p + 8 and eps is None and alpha is None:
            pairs.append((3, n // 2 - 1))
        for e in (eps,) if eps is not None else range(2, (n - 4 * p) // 2 + 1):
            if math.gcd(n, e) == 1:
                alphas = (alpha,) if alpha is not None else range(2 * p + e, n - e - 2 * p + 1)
                pairs += [(e, a) for a in alphas if math.gcd(n, a) == 1]
    # dict.fromkeys drops the second copy of (3, n/2-1) and keeps the order
    return list(dict.fromkeys(
        (e, a) for e, a in pairs
        if e <= (n - 4 * p) / 2 and 2 * p + e <= a <= n - e - 2 * p
        and 2 * p + a - e - 1 > 4 * p - 2 and 2 * p + a + e - 1 < n
        and 2 * p - 1 <= a <= n - 1 - 2 * p
    ))
