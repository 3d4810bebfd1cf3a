import pytest

from heffter.grid import HeffterGrid, diagonal_order, partial_sums
from heffter.verify import (
    VerificationReport,
    verify_globally_simple,
    verify_heffter,
    verify_integer,
    verify_support_shifted,
)


def test_report_text_format(h17_12):
    report = verify_heffter(h17_12, 12, 12)
    text = report.to_text()
    assert text.endswith("OVERALL PASS\n")
    assert all(line.startswith(("CHECK ", "OVERALL ")) for line in text.splitlines())


def test_rectangular_heffter_passes(h6_12_8_4):
    report = verify_heffter(h6_12_8_4, 8, 4)
    assert report.overall
    assert any(c.name == "line-sums-mod-97" for c in report.checks)


def test_shape_mismatch_raises(h6_12_8_4):
    with pytest.raises(ValueError):
        verify_heffter(h6_12_8_4, 8, 5)


def test_inferred_fill_counts(h17_12):
    assert verify_heffter(h17_12).overall


def test_fill_check_fails_with_certificate(h17_12):
    entries = dict(h17_12.entries)
    cell = next(iter(entries))
    del entries[cell]
    report = verify_heffter(HeffterGrid(17, 17, entries), 12, 12)
    assert not report.overall
    names = {c.name for c in report.failures()}
    assert "row-fills" in names or "col-fills" in names


def test_support_check_catches_sign_conflict():
    g = HeffterGrid(1, 2, {(0, 0): 1, (0, 1): -1})
    report = verify_heffter(g, 2, 1)
    failed = {c.name for c in report.failures()}
    assert "support-exclusive" in failed


def test_support_check_catches_out_of_range(h17_12):
    entries = dict(h17_12.entries)
    cell = next(c for c, e in entries.items() if e == 1)
    entries[cell] = 999
    report = verify_heffter(HeffterGrid(17, 17, entries), 12, 12)
    failed = {c.name for c in report.failures()}
    assert "support-range" in failed


def test_integer_check(h17_12):
    assert verify_integer(h17_12).overall
    entries = dict(h17_12.entries)
    cell = next(iter(entries))
    entries[cell] = -entries[cell]
    report = verify_integer(HeffterGrid(17, 17, entries))
    assert not report.overall
    assert "sums to" in report.failures()[0].certificate


def test_globally_simple_pass_and_default_modulus(h17_12):
    assert verify_globally_simple(h17_12).overall
    assert verify_globally_simple(h17_12, 409).overall


def test_globally_simple_collision_certificate():
    # partial sums of the row repeat mod 5: 1, 2 (7%5), 1 (6? no)...
    g = HeffterGrid(1, 3, {(0, 0): 1, (0, 1): 5, (0, 2): -6})
    report = verify_globally_simple(g, 5)
    assert not report.overall
    assert "positions" in report.failures()[0].certificate


def test_mod_plus_one_flag(h17_12):
    report = verify_globally_simple(h17_12, 409, also_mod_plus_one=True)
    names = [c.name for c in report.checks]
    assert "natural-simple-mod-409" in names and "natural-simple-mod-410" in names
    assert report.overall


def test_support_shifted_pass(h17_12_3):
    assert verify_support_shifted(h17_12_3, 3, 3).overall


def test_support_shifted_gamma_zero_is_integer_array(h17_12):
    assert verify_support_shifted(h17_12, 3, 0).overall


def test_support_shifted_wrong_gamma_fails(h17_12_3):
    report = verify_support_shifted(h17_12_3, 3, 1)
    assert not report.overall


def test_diagonal_simplicity_matches_natural(h17_12_3):
    # diagonal order is a cyclic reversal of the natural order on these
    # arrays, so the two verdicts must agree
    assert all(partial_sums(h17_12_3, kind, a, diagonal_order(h17_12_3, kind, a), 511).collision is None
               for kind in ("row", "col") for a in range(h17_12_3.n))
    assert verify_globally_simple(h17_12_3, 511).overall


def test_empty_report_is_pass():
    assert VerificationReport().overall


@pytest.mark.parametrize("p,gamma", [(3, -1), (0, 3)])
def test_support_shifted_refuses_negative_gamma_and_nonpositive_p(h17_12_3, p, gamma):
    with pytest.raises(ValueError):
        verify_support_shifted(h17_12_3, p, gamma)
