"""Which units digits triangular numbers can end with, per base.

The sequence n -> tri_mod(n, L) repeats with period dividing 2L, so the
window n in [0, 2L) decides everything: the reachable and missing digit
sets and the exact frequency of each digit. Frequencies are exact
rationals, derived from the window when read; no digit's share is ever
approximated.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .core import MIN_BASE, tri_mod, validate_base, validate_natural

__all__ = [
    "ResidueProfile", "EmpiricalFrequencies", "residue_profile", "classify_base",
    "empirical_frequencies", "power_of_two_sweep", "fundamental_window", "DEFAULT_SAMPLE_SIZE",
]

DEFAULT_SAMPLE_SIZE = 100_000


def _missing(base: int, reachable: frozenset[int]) -> tuple[int, ...]:  # in increasing order
    return tuple(d for d in range(base) if d not in reachable)


def _digit_set(digits) -> str:
    return "{" + ",".join(map(str, digits)) + "}"


@dataclass(frozen=True)
class ResidueProfile:
    """Exact units-digit distribution of triangular numbers in one base."""

    base: int
    period: int
    reachable: frozenset[int]

    @property
    def frequency(self) -> dict[int, Fraction]:
        """Exact share of every digit 0..base-1, from the base's window on each read."""
        counts = Counter(fundamental_window(self.base))
        share = {c: Fraction(c, 2 * self.base) for c in {0, *counts.values()}}  # one per count
        return {d: share[counts.get(d, 0)] for d in range(self.base)}  # no Counter.__missing__ call

    @property
    def missing_digits(self) -> tuple[int, ...]:
        """Digits no triangular number ends with, in increasing order."""
        return _missing(self.base, self.reachable)

    @property
    def gappy(self) -> bool:
        """True when some digit is never a units digit."""
        return len(self.reachable) < self.base


@dataclass(frozen=True)
class EmpiricalFrequencies:
    """Observed units-digit counts over a finite sample."""

    base: int
    sample_size: int
    counts: dict[int, int]  # entry for every digit 0..base-1

    def __post_init__(self) -> None:
        base = validate_base(self.base)
        validate_natural(self.sample_size, "sample_size", 1)
        if self.counts.keys() != set(range(base)):
            raise ValueError(f"need one count for each digit in [0, {base})")
        for count in self.counts.values():
            if type(count) is not int or count < 0:  # one pass, as DigitString checks digits
                validate_natural(count, "count")
        if (total := sum(self.counts.values())) != self.sample_size:
            raise ValueError(f"counts of digits in [0, {base}) sum to {total}, "
                             f"not sample_size {self.sample_size}")

    @classmethod
    def tally(cls, base: int, digits: Iterable[int]) -> EmpiricalFrequencies:
        """Count ``digits``, a non-empty sample each already reduced mod ``base``.

        A stray digit is counted in the sample size but under no digit, so the
        constructor rejects it, as it rejects an empty sample.
        """
        validate_base(base)  # before the sample, which may be a lazy iterator, is read
        counts = Counter(digits)
        every_digit = {d: counts[d] for d in range(base)}
        return cls(base=base, sample_size=counts.total(), counts=every_digit)

    def proportion(self, digit: int) -> Fraction:
        if validate_natural(digit, "digit") >= self.base:
            raise ValueError(f"digit must be in [0, {self.base}), got {digit}")
        return Fraction(self.counts[digit], self.sample_size)


@functools.lru_cache(maxsize=None, typed=True)  # typed: base=2.0 must miss base=2 and raise
def fundamental_window(base: int) -> tuple[int, ...]:
    """Residues tri_mod(n, base) for n in [0, 2*base), cached per base as an immutable tuple."""
    validate_base(base)
    return tuple(tri_mod(n, base) for n in range(2 * base))


def residue_profile(base: int) -> ResidueProfile:
    """Exact reachable set and period for one base; its frequencies are derived on read.

    The period is the base when it is odd and twice the base when it is
    even: T(n+p) - T(n) = p*n + p(p+1)/2 vanishes mod L for every n only
    when L divides p and, for even L, p/L is even.
    """
    window = fundamental_window(base)
    return ResidueProfile(base=base, period=base if base % 2 else 2 * base, reachable=frozenset(window))


def classify_base(base: int) -> ResidueProfile:
    """The profile of ``base``, read for ``.gappy`` and ``.missing_digits``."""
    return residue_profile(base)


def empirical_frequencies(base: int, sample_size: int = DEFAULT_SAMPLE_SIZE) -> EmpiricalFrequencies:
    """Units-digit counts tri_mod(n, base) of n in [1, sample_size], in closed form.

    The window of 2*base residues is a whole number of periods, so the
    counts are those of whole windows plus the window's prefix from n = 1:
    O(base) work, whatever ``sample_size`` is.
    """
    window = fundamental_window(base)  # checks base before sample_size, so a bad base is reported
    validate_natural(sample_size, "sample_size", 1)
    whole, rest = divmod(sample_size, len(window))
    per_window, prefix = Counter(window), Counter(window[1 : rest + 1])
    counts = {d: whole * per_window[d] + prefix[d] for d in range(base)}
    return EmpiricalFrequencies(base=base, sample_size=sample_size, counts=counts)


def power_of_two_sweep(max_base: int) -> list[tuple[int, bool]]:
    """(base, gappy) for every base in 2..=max_base.

    Sweeping makes the pattern visible: within the supported range the
    bases with no gaps are exactly the powers of two.
    """
    validate_base(max_base)
    return [(base, classify_base(base).gappy) for base in range(MIN_BASE, max_base + 1)]
