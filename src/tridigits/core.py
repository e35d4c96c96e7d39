"""Exact triangular numbers, their residues, and positional digit strings.

Everything here is plain integer arithmetic: inputs of any magnitude are
fine, results are exact, and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MIN_BASE", "MAX_BASE", "DigitString", "tri_exact", "tri_mod", "to_digits", "from_digits",
    "parse_natural", "validate_base", "validate_natural",
]

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
    """Decimal text to an int >= 0; main lifts the int<->str cap, other callers lift it themselves."""
    if type(text) is not str:
        raise TypeError(f"text must be a str, got {type(text).__name__}")
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
        base = validate_base(self.base)
        if not self.digits:
            raise ValueError("digit string must contain at least one digit")
        for d in self.digits:
            # type() rather than isinstance(), so a bool is no digit
            if type(d) is not int or not 0 <= d < base:
                validate_natural(d, "digit")
                raise ValueError(f"digit {d} out of range for base {base}")
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


# Below base**64 the plain divmod loop is faster than splitting.
_LEAF_DIGITS = 64


def _leaf_digits(value: int, base: int, width: int) -> list[int]:
    """Digits of ``value``, most significant first, zero-padded to ``width``."""
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    digits.extend([0] * (width - len(digits)))
    digits.reverse()
    return digits


def to_digits(value: int, base: int) -> DigitString:
    """Positional base-L expansion of a non-negative integer.

    Large values are split level by level (Knuth, TAOCP vol. 2, 4.4):
    every chunk is divided by the largest power base**(64 * 2**k), then
    every part by the next smaller one, until each chunk is below
    base**64 and is expanded on its own. With schoolbook division that
    costs about two divisions of the value by its square root, not one
    division of the whole value per digit; with faster division it is
    subquadratic.
    """
    validate_natural(value, "value")
    validate_base(base)
    powers = [base**_LEAF_DIGITS]
    if value < powers[0]:
        return DigitString(tuple(_leaf_digits(value, base, 1)), base)
    # The bit lengths rule out the last, largest square without computing it.
    bits = value.bit_length()
    while 2 * powers[-1].bit_length() - 1 <= bits and (square := powers[-1] ** 2) <= value:
        powers.append(square)
    chunks = [value]
    for power in reversed(powers):
        chunks = [part for chunk in chunks for part in divmod(chunk, power)]
    # Leading zero chunks add no digits; after the first digit, every chunk is padded in full.
    digits: list[int] = []
    for chunk in chunks:
        digits += _leaf_digits(chunk, base, _LEAF_DIGITS if digits else 0)
    return DigitString(tuple(digits), base)


def from_digits(d: DigitString) -> int:
    """Inverse of to_digits: from_digits(to_digits(v, L)) == v."""
    value = 0
    for digit in d.digits:
        value = value * d.base + digit
    return value
