"""Exact triangular numbers, their residues, and positional digit strings.

Everything here is plain integer arithmetic: inputs of any magnitude are
fine, results are exact, and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_BASE = 2
MAX_BASE = 256

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def validate_base(base: int) -> int:
    """Return ``base`` unchanged after checking 2 <= base <= 256."""
    if type(base) is not int:
        raise TypeError(f"base must be an int, got {type(base).__name__}")
    if base < MIN_BASE or base > MAX_BASE:
        raise ValueError(f"base must be in [{MIN_BASE}, {MAX_BASE}], got {base}")
    return base


def validate_natural(value: int, name: str = "n", minimum: int = 0) -> int:
    """Return ``value`` unchanged after checking it is an int >= ``minimum``.

    ``bool`` and ``float`` raise TypeError, so no argument can turn an
    exact result into an inexact one.
    """
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def parse_natural(text: str) -> int:
    """Parse a decimal string (any length) into a non-negative integer."""
    if not text or not text.isascii() or not text.isdigit():
        raise ValueError(f"not a non-negative decimal integer: {text!r}")
    return int(text)


def tri_exact(n: int) -> int:
    """The n-th triangular number 1 + 2 + ... + n = n(n+1)/2, exactly.

    n = 0 is allowed (empty sum). The division is exact because n(n+1)
    is always even.
    """
    validate_natural(n)
    return n * (n + 1) // 2


def tri_mod(n: int, base: int) -> int:
    """tri_exact(n) mod base, without materializing tri_exact(n).

    The residue of the n-th triangular number mod L depends only on
    n mod 2L, so n is reduced first and the cost stays flat no matter
    how many digits n has.
    """
    validate_natural(n)
    validate_base(base)
    r = n % (2 * base)
    return (r * (r + 1) // 2) % base


@dataclass(frozen=True)
class DigitString:
    """Most-significant-first digits of a value in a given base.

    Canonical form: non-empty, every digit in [0, base), and no leading
    zero unless the value is exactly 0 (then a single 0 digit).
    """

    digits: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        validate_base(self.base)
        if not self.digits:
            raise ValueError("digit string must contain at least one digit")
        for d in self.digits:
            if not isinstance(d, int):
                raise TypeError(f"digit must be an int, got {type(d).__name__}")
            if d < 0 or d >= self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")
        if len(self.digits) > 1 and self.digits[0] == 0:
            raise ValueError("leading zero in multi-digit string")

    @property
    def units_digit(self) -> int:
        return self.digits[-1]

    def __str__(self) -> str:
        # Bases up to 36 use 0-9a-z; beyond that each digit is rendered
        # as a decimal number, colon-separated, so rendering stays
        # unambiguous for every supported base.
        if self.base <= len(_DIGIT_CHARS):
            return "".join(_DIGIT_CHARS[d] for d in self.digits)
        return ":".join(str(d) for d in self.digits)


def to_digits(value: int, base: int) -> DigitString:
    """Positional base-L expansion of a non-negative integer."""
    validate_natural(value, "value")
    validate_base(base)
    if value == 0:
        return DigitString((0,), base)
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    digits.reverse()
    return DigitString(tuple(digits), base)


def from_digits(d: DigitString) -> int:
    """Inverse of to_digits: from_digits(to_digits(v, L)) == v."""
    value = 0
    for digit in d.digits:
        value = value * d.base + digit
    return value
