"""Independent checks of every defining property of a Heffter array.

Nothing in this module reuses constructor formulas: each check recomputes
its property from the grid alone, so the constructors and the verifier can
certify each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import HeffterGrid, natural_order, partial_sums


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    certificate: str = ""

    def to_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tail = f" {self.certificate}" if self.certificate else ""
        return f"CHECK {self.name} {verdict}{tail}"


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, certificate: str = "") -> None:
        self.checks.append(Check(name, passed, certificate))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def to_text(self) -> str:
        lines = [c.to_text() for c in self.checks]
        lines.append(f"OVERALL {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _uniform_fill(counts: list[int]) -> int | None:
    return counts[0] if counts and len(set(counts)) == 1 else None


def _check_fills(grid: HeffterGrid, s: int, t: int, report: VerificationReport) -> None:
    rows = grid.fills_per_row()
    cols = grid.fills_per_col()
    bad_rows = [(a, c) for a, c in enumerate(rows) if c != s]
    bad_cols = [(a, c) for a, c in enumerate(cols) if c != t]
    report.add("row-fills", not bad_rows,
               "" if not bad_rows else f"row {bad_rows[0][0]} has {bad_rows[0][1]} != {s}")
    report.add("col-fills", not bad_cols,
               "" if not bad_cols else f"col {bad_cols[0][0]} has {bad_cols[0][1]} != {t}")


def _check_support(grid: HeffterGrid, lo: int, hi: int, report: VerificationReport) -> None:
    sup, conflicts = grid.support()
    expected = set(range(lo, hi + 1))
    missing = sorted(expected - sup)
    extra = sorted(sup - expected)
    ok = not missing and not extra
    cert = []
    if missing:
        cert.append(f"missing {missing[:5]}")
    if extra:
        cert.append(f"unexpected {extra[:5]}")
    report.add("support-range", ok, "; ".join(cert))
    report.add("support-exclusive", not conflicts,
               "" if not conflicts else f"both signs present for {conflicts[:5]}")
    # duplicates: same value in two cells
    dup = len(grid.entries) != (hi - lo + 1)
    report.add("support-count", not dup,
               "" if not dup else f"{len(grid.entries)} entries for {hi - lo + 1} values")


def _check_line_sums(grid: HeffterGrid, modulus: int | None, report: VerificationReport) -> None:
    """Row/column sums; exact zero when modulus is None, else zero mod modulus."""
    name = "line-sums-zero" if modulus is None else f"line-sums-mod-{modulus}"
    bad = []
    for kind, count in (("row", grid.m), ("col", grid.n)):
        for a in range(count):
            total = grid.line_sum(kind, a)
            if (total if modulus is None else total % modulus) != 0:
                bad.append((kind, a, total))
    report.add(name, not bad,
               "" if not bad else f"{bad[0][0]} {bad[0][1]} sums to {bad[0][2]}")


def _check_simplicity(grid: HeffterGrid, modulus: int, report: VerificationReport) -> None:
    """Natural-order partial sums of every line pairwise distinct mod ``modulus``."""
    bad = []
    for kind, count in (("row", grid.m), ("col", grid.n)):
        for a in range(count):
            trace = partial_sums(grid, kind, a, natural_order(grid, kind, a), modulus)
            if trace.collision is not None:
                i, j = trace.collision
                bad.append(f"{kind} {a} positions {i},{j} (sum {trace.sums[i]} == {trace.sums[j]} mod {modulus})")
    report.add(f"natural-simple-mod-{modulus}", not bad, bad[0] if bad else "")


def default_modulus(grid: HeffterGrid) -> int:
    """2nk+1 for a square grid with k fills in every row."""
    k = _uniform_fill(grid.fills_per_row())
    if not grid.is_square or k is None:
        why = "it is not square" if not grid.is_square else "its rows are not uniformly filled"
        raise ValueError(f"grid has no default modulus: {why}; pass --modulus")
    return 2 * grid.n * k + 1


def verify_heffter(grid: HeffterGrid, s: int | None = None, t: int | None = None,
                   modulus: int | None = None) -> VerificationReport:
    """Defining checks for an H(m,n;s,t): fills, support {1..ms}, zero line sums mod 2ms+1."""
    if s is None:
        s = _uniform_fill(grid.fills_per_row()) or 0
    if t is None:
        t = _uniform_fill(grid.fills_per_col()) or 0
    if s and t and grid.m * s != grid.n * t:
        raise ValueError(f"ms = {grid.m * s} != nt = {grid.n * t}: not a Heffter shape")
    M = modulus if modulus is not None else 2 * grid.m * s + 1
    report = VerificationReport()
    _check_fills(grid, s, t, report)
    _check_support(grid, 1, grid.m * s, report)
    _check_line_sums(grid, M, report)
    return report


def verify_integer(grid: HeffterGrid) -> VerificationReport:
    """Every row and column sums to exactly 0 over the integers."""
    report = VerificationReport()
    _check_line_sums(grid, None, report)
    return report


def verify_globally_simple(grid: HeffterGrid, modulus: int | None = None,
                           also_mod_plus_one: bool = False) -> VerificationReport:
    """Natural row and column orderings have pairwise distinct partial sums mod M.

    M defaults to ``default_modulus(grid)``.  With ``also_mod_plus_one`` the
    sums are additionally checked mod M+1.
    """
    if modulus is None:
        modulus = default_modulus(grid)
    report = VerificationReport()
    _check_simplicity(grid, modulus, report)
    if also_mod_plus_one:
        _check_simplicity(grid, modulus + 1, report)
    return report


def verify_support_shifted(grid: HeffterGrid, p: int, gamma: int) -> VerificationReport:
    """Checks P1-P4 of a support shifted array H(n;4p,gamma).

    P1: 4p fills per line; P2: support {gamma*n+1 .. (4p+gamma)n} with sign
    exclusivity; P3: exact zero line sums; P4: distinct natural partial sums
    mod 2(4p+gamma)n+1.  gamma=0 degenerates to an integer H(n;4p).
    """
    if p < 1:
        raise ValueError("p must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if not grid.is_square:
        raise ValueError("support shifted arrays are square")
    n = grid.n
    k = 4 * p
    M = 2 * (k + gamma) * n + 1
    report = VerificationReport()
    _check_fills(grid, k, k, report)
    _check_support(grid, gamma * n + 1, (k + gamma) * n, report)
    _check_line_sums(grid, None, report)
    _check_simplicity(grid, M, report)
    return report
