"""Globally simple Heffter arrays: construction, verification, decomposition."""

from .construct4p import build_h4p
from .grid import HeffterGrid, PartialSumTrace, partial_sums
from .gridio import GridParseError, grid_from_text, grid_to_text, read_grid
from .h3 import build_h3_base, cyclic_shift, relocate_h3
from .merge import MergeParams, build_h4p3
from .shifted import build_shifted, choose_alpha
from .verify import (
    Check,
    VerificationReport,
    verify_globally_simple,
    verify_heffter,
    verify_integer,
    verify_support_shifted,
)

__all__ = [
    "HeffterGrid",
    "PartialSumTrace",
    "partial_sums",
    "GridParseError",
    "grid_from_text",
    "grid_to_text",
    "read_grid",
    "Check",
    "VerificationReport",
    "verify_heffter",
    "verify_integer",
    "verify_globally_simple",
    "verify_support_shifted",
    "build_h4p",
    "build_shifted",
    "choose_alpha",
    "build_h3_base",
    "relocate_h3",
    "cyclic_shift",
    "build_h4p3",
    "MergeParams",
]

__version__ = "0.1.0"
