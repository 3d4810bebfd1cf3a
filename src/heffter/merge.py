"""Globally simple H(n;4p+3): overlay an H(n;3) on a support shifted H(n;4p,3).

The shifted array leaves the diagonals outside {0..4p-2, 2p+alpha} empty; an
H(n;3) relocated onto D_{2p+alpha-eps-1}, D_{2p+alpha-1}, D_{2p+alpha+eps-1}
fills three of them.  With the shifted support {3n+1..(4p+3)n} and the
ladder support {1..3n} the union covers {1..(4p+3)n}.  The H(n;3) is the
closed-form three-diagonal array of ``h3.build_h3_base`` (Archdeacon,
Dinitz, Donovan and Yazıcı, "Square integer Heffter arrays with empty
cells", 2015).  The parameters are closed forms too: (eps, alpha) is
(2, (n-1)/2) for n = 1 mod 4 and the pair of ``_candidates`` for n = 0 mod 4,
and the relocated H(n;3) stays at cyclic shift 0 unless a shift is forced.
The overlay is built once and accepted only after the independent verifier
passes it.

For n = 0 mod 4 the pair needs eps and alpha coprime to n with
2p+eps <= alpha <= n-2p-eps.  Without overrides, (n, p) is refused exactly
when n = 4p+4, or when 12 | n and the least alpha >= 2p+eps0 coprime to n
exceeds n-2p-eps0, where eps0 is the least integer >= 5 coprime to n.
That is a limit of the overlay, not of a missing search: trying every eps
and alpha coprime to n, every start diagonal and every shift on the 8
smallest refused pairs, up to (28, 6), verified an overlay only for
(12, 1).  The paper's case (c) likewise covers n = 0 mod 4 only for n much
larger than k.  This module builds condition (1), simple line orderings;
condition (2), compatible orderings, is not constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import HeffterGrid
from .h3 import build_h3_base, cyclic_shift, relocate_h3
from .shifted import build_shifted, least_coprime
from .verify import verify_globally_simple, verify_heffter, verify_integer


class NoParameters(RuntimeError):
    """The verifier rejected the (eps, alpha, shift) triple of a build."""


@dataclass(frozen=True)
class MergeParams:
    n: int
    p: int
    alpha: int
    eps: int
    beta: int
    shift: int
    modulus: int


def _overlay(shifted: HeffterGrid, ladder: HeffterGrid) -> HeffterGrid:
    entries = dict(shifted.entries)
    for cell, e in ladder.entries.items():
        if cell in entries:
            raise ValueError(f"overlay collision at cell {cell}")
        entries[cell] = e
    return HeffterGrid(shifted.n, shifted.n, entries)


def _full_verify(grid: HeffterGrid, n: int, k: int) -> bool:
    # distinct partial sums are required both mod 2nk+1 and mod 2nk+2; the
    # latter also holds for free when prefix sums stay within [-nk, nk]
    M = 2 * n * k + 1
    return (verify_heffter(grid, k, k).overall
            and verify_integer(grid).overall
            and verify_globally_simple(grid, M, also_mod_plus_one=True).overall)


def build_h4p3(
    n: int,
    p: int,
    alpha: int | None = None,
    eps: int | None = None,
    shift: int | None = None,
) -> tuple[HeffterGrid, MergeParams]:
    """Globally simple H(n;4p+3) plus the parameters that produced it.

    ``alpha``, ``eps`` and ``shift`` override the closed forms; whatever the
    parameters, the overlay is verified once and ``NoParameters`` is raised
    if the verifier rejects it.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if n < 4 * p + 3:
        raise ValueError(f"need n >= 4p+3, got n = {n} < {4 * p + 3}")
    if n % 4 not in (0, 1):
        raise ValueError(f"n = {n}: need n congruent to 0 or 1 mod 4")
    if shift is not None and not 0 <= shift < n:
        raise ValueError(f"shift = {shift} outside [0, {n})")

    if n % 4 == 1:
        if eps is not None and eps != 2:
            raise ValueError("eps must be 2 when n = 1 mod 4")
        if alpha is None:
            alpha = (n - 1) // 2
        if not 2 * p + 2 <= alpha <= n - 2 - 2 * p:
            raise ValueError(f"alpha = {alpha} outside [{2 * p + 2}, {n - 2 - 2 * p}]")
        if math.gcd(n, alpha) != 1:
            raise ValueError(f"gcd({n}, {alpha}) != 1")
        eps = 2
    else:
        pair = _candidates(n, p, eps, alpha)
        if pair is None:
            raise ValueError(
                f"no admissible (eps, alpha) for n={n}, p={p}: for n = 0 mod 4 the merge "
                f"needs eps and alpha coprime to n with 2p+eps <= alpha <= n-2p-eps; without "
                f"overrides that fails exactly when n = 4p+4, or when 12 | n and the least "
                f"alpha >= 2p+eps coprime to n exceeds n-2p-eps for the least eps >= 5 "
                f"coprime to n"
            )
        eps, alpha = pair

    k = 4 * p + 3
    t = shift or 0
    beta = 2 * p + alpha - eps - 1
    # built first, so a bad alpha is reported before a bad eps
    shifted = build_shifted(n, p, 3, alpha)
    merged = _overlay(shifted, cyclic_shift(relocate_h3(build_h3_base(n), beta, eps), t))
    if not _full_verify(merged, n, k):
        raise NoParameters(f"no (eps, alpha, shift) verified for n={n}, p={p}")
    return merged, MergeParams(n, p, alpha, eps, beta, t, 2 * n * k + 1)


def _candidates(n: int, p: int, eps: int | None, alpha: int | None) -> tuple[int, int] | None:
    """The admissible (eps, alpha) for n = 0 mod 4, or None if there is none.

    Without overrides that is (3, n/2-1) when 12 does not divide n and
    n >= 4p+8.  Otherwise eps is the least integer >= 3 coprime to n and
    alpha the least integer >= 2p+eps coprime to n, each unless given: eps
    is odd because n is even, and eps = 1 would put a ladder diagonal on
    D_{2p+alpha}.  A smaller eps only widens alpha's window, so no other
    pair is admissible when this one is not; the module docstring states
    when that happens.  Unless both are given, both must be coprime to n.
    """
    if eps is None and alpha is None and n % 12 != 0 and n >= 4 * p + 8:
        eps, alpha = 3, n // 2 - 1
    elif eps is None or alpha is None:
        if eps is None:
            eps = least_coprime(n, 3)
        if alpha is None:
            alpha = least_coprime(n, 2 * p + eps)
        if math.gcd(n, eps * alpha) != 1:
            return None
    if (eps <= (n - 4 * p) / 2 and 2 * p + eps <= alpha <= n - eps - 2 * p
            and 2 * p + alpha - eps - 1 > 4 * p - 2 and 2 * p + alpha + eps - 1 < n
            and 2 * p - 1 <= alpha <= n - 1 - 2 * p):
        return eps, alpha
    return None
