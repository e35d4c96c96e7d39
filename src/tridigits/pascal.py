"""Pascal triangle rows and the diagonal of quadratic-term coefficients.

``pascal_row`` is multiplicative, ``quadratic_diagonal`` additive on column 2.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from .core import validate_natural

__all__ = ["PascalRow", "pascal_row", "iter_rows", "quadratic_diagonal"]


@dataclass(frozen=True)
class PascalRow:
    index: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        validate_natural(self.index, "index")
        count = len(self.coefficients)
        if count != self.index + 1:
            raise ValueError(f"row {self.index} has {self.index + 1} coefficients, got {count}")


def iter_rows() -> Iterator[tuple[int, ...]]:
    """Yield rows (1), (1, 1), (1, 2, 1), ... forever.

    Rows are built by the additive recurrence only, so every entry is an
    exact integer at any depth; reaching row n costs O(n^2) additions.
    Neither ``pascal_row`` nor ``quadratic_diagonal`` reads these rows,
    so they are an independent check of both.
    """
    row = (1,)
    while True:
        yield row
        row = tuple(map(operator.add, (0, *row), (*row, 0)))


def pascal_row(n: int) -> PascalRow:
    """Row n of the triangle: C(n, 0) .. C(n, n), in O(n) big-integer steps.

    The first half follows C(n, k+1) = C(n, k)*(n-k)/(k+1); the division
    is exact because C(n, k)*(n-k) = C(n, k+1)*(k+1). The second half
    mirrors the first.
    """
    validate_natural(n)
    half = [1]
    for k in range(n // 2):
        half.append(half[-1] * (n - k) // (k + 1))
    return PascalRow(index=n, coefficients=(*half, *reversed(half[:(n + 1) // 2])))


def quadratic_diagonal(count: int) -> list[int]:
    """C(2,2), C(3,2), ..., C(count+1, 2), in ``count`` additions.

    These are the coefficients sitting two places into each row from
    row 2 onward; element t equals the t-th triangular number. Pascal's
    rule on column 2, C(t+1, 2) = C(t, 2) + t, makes them the running
    sums of 1..count; the closed form t(t+1)/2 is the independent check.
    """
    validate_natural(count, "count", 1)
    return list(accumulate(range(1, count + 1)))
