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
# Digit value d (as a byte) -> the ASCII code of _DIGIT_CHARS[d], for bytes.translate.
_DIGIT_BYTES = bytes.maketrans(bytes(range(len(_DIGIT_CHARS))), _DIGIT_CHARS.encode("ascii"))


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


def _natural_text(text: str) -> str:
    """Return ``text`` unchanged after checking it is ASCII decimal digits, in linear time."""
    if type(text) is not str:
        raise TypeError(f"text must be a str, got {type(text).__name__}")
    if not text or not text.isascii() or not text.isdigit():
        raise ValueError(f"not a non-negative decimal integer: {text!r}")
    return text


def parse_natural(text: str) -> int:
    """Decimal text to an int >= 0; main lifts the int<->str cap, other callers lift it themselves."""
    return int(_natural_text(text))


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
            return bytes(self.digits).translate(_DIGIT_BYTES).decode("ascii")
        return ":".join(str(d) for d in self.digits)


# Below base**64 the plain divmod loop is faster than splitting.
_LEAF_DIGITS = 64
# Quotients of at most this many bits go to builtin divmod (schoolbook on CPython
# 3.11); wider ones are halved by recursive division, whose multiplies are Karatsuba's.
# Limits from 1000 to 4000 bits timed within noise of each other for T of 3 000 to
# 40 000 digits; 2000 was among the fastest.
_DIV_LIMIT = 2000


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b << n.

    Burnikel & Ziegler, "Fast Recursive Division" (1998): the n-bit
    quotient is found as two halves, each by _div3n2n.
    """
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1  # an odd n is made even by scaling both, which leaves q and scales r
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 << n | a3, b) for b = b1 << n | b2 of 2n bits, a quotient below 1 << n."""
    if a12 >> n == b1:  # the quotient estimate from b1 alone would not fit in n bits
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:  # the estimate exceeds the true quotient by at most 2
        q -= 1
        r += b
    return q, r


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
    base**64 and is expanded on its own. Each chunk is below the square
    of its divisor, so each split is a 2n-by-n-bit division, done by
    recursive division (_div2n1n) with Karatsuba multiplies: the whole
    conversion is subquadratic, not one division of the value per digit.
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
        n = power.bit_length()
        chunks = [part for chunk in chunks for part in _div2n1n(chunk, power, n)]
    # Leading zero chunks add no digits; after the first digit, every chunk is padded in full.
    digits: list[int] = []
    for chunk in chunks:
        digits += _leaf_digits(chunk, base, _LEAF_DIGITS if digits else 0)
    return DigitString(tuple(digits), base)


def _leaf_value(digits: tuple[int, ...], base: int) -> int:
    """The value of most-significant-first ``digits``, by Horner's rule."""
    value = 0
    for digit in digits:
        value = value * base + digit
    return value


def from_digits(d: DigitString) -> int:
    """Inverse of to_digits: from_digits(to_digits(v, L)) == v.

    The split run backwards: runs of 64 digits, aligned at the units end,
    are read by Horner's rule, then neighbours are joined as
    hi * base**(64 * 2**k) + lo, level by level, so the big multiplies
    are balanced ones and not one multiply of the whole value per digit.
    """
    base, digits = d.base, d.digits
    # The leading run is the one that may be shorter than 64 digits.
    ends = range(len(digits) % _LEAF_DIGITS or _LEAF_DIGITS, len(digits) + 1, _LEAF_DIGITS)
    chunks = [_leaf_value(digits[start:end], base) for start, end in zip((0, *ends), ends)]
    power = base**_LEAF_DIGITS
    while len(chunks) > 1:
        odd = len(chunks) % 2  # an unpaired chunk is the leading one, joined at the next level
        chunks[odd:] = [hi * power + lo for hi, lo in zip(chunks[odd::2], chunks[odd + 1 :: 2])]
        power *= power
    return chunks[0]
