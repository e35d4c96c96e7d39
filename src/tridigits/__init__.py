"""Exact arithmetic of triangular numbers and the structure of their digits.

The library computes triangular numbers at any magnitude, derives which
units digits they can end with in any base from 2 to 256 (with exact
rational frequencies), emits mechanically verified congruence-case
proofs of those facts, ties the values to the quadratic diagonal of the
Pascal triangle, and simulates cumulative-sum population growth whose
totals follow the same sequence.
"""

from .core import (
    MAX_BASE,
    MIN_BASE,
    DigitString,
    from_digits,
    parse_natural,
    to_digits,
    tri_exact,
    tri_mod,
    validate_base,
    validate_natural,
)
from .growth import (
    DividingDynamics,
    GrowthTrace,
    PowerLawFit,
    default_window,
    digit_histogram,
    fit_power_law,
    parse_dynamics,
    simulate,
)
from .pascal import PascalRow, iter_rows, pascal_row, quadratic_diagonal
from .prover import (
    PARITY_ANY,
    PARITY_EVEN,
    PARITY_ODD,
    CongruenceCase,
    ProofTranscript,
    enumerate_cases,
    render_transcript,
    verify_case,
)
from .residues import (
    DEFAULT_SAMPLE_SIZE,
    EmpiricalFrequencies,
    ResidueProfile,
    classify_base,
    empirical_frequencies,
    fundamental_window,
    power_of_two_sweep,
    residue_profile,
)

__version__ = "0.1.0"

__all__ = [
    "MIN_BASE",
    "MAX_BASE",
    "DigitString",
    "tri_exact",
    "tri_mod",
    "to_digits",
    "from_digits",
    "parse_natural",
    "validate_base",
    "validate_natural",
    "ResidueProfile",
    "EmpiricalFrequencies",
    "residue_profile",
    "classify_base",
    "empirical_frequencies",
    "power_of_two_sweep",
    "fundamental_window",
    "DEFAULT_SAMPLE_SIZE",
    "CongruenceCase",
    "ProofTranscript",
    "enumerate_cases",
    "verify_case",
    "render_transcript",
    "PARITY_ANY",
    "PARITY_EVEN",
    "PARITY_ODD",
    "PascalRow",
    "pascal_row",
    "iter_rows",
    "quadratic_diagonal",
    "DividingDynamics",
    "GrowthTrace",
    "PowerLawFit",
    "simulate",
    "fit_power_law",
    "digit_histogram",
    "default_window",
    "parse_dynamics",
]
