"""Pascal triangle rows and the diagonal of quadratic-term coefficients.

``pascal_row`` uses the multiplicative rule; ``iter_rows`` stays additive.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .core import validate_natural

__all__ = ["PascalRow", "pascal_row", "iter_rows", "quadratic_diagonal"]


@dataclass(frozen=True)
class PascalRow:
    index: int
    coefficients: tuple[int, ...]


def iter_rows() -> Iterator[tuple[int, ...]]:
    """Yield rows (1), (1, 1), (1, 2, 1), ... forever.

    Rows are built by the additive recurrence only, so every entry is an
    exact integer at any depth; reaching row n costs O(n^2) additions.
    ``quadratic_diagonal`` reads its rows from here, and ``pascal_row``
    does not, so these rows are an independent check of it.
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
    """C(2,2), C(3,2), ..., C(count+1, 2), read off actual rows.

    These are the coefficients sitting two places into each row from
    row 2 onward; element t equals the t-th triangular number. The
    values are extracted from additively built rows, not computed by
    the closed form, so comparing the two is a real cross-check.
    """
    validate_natural(count, "count", 1)
    return [row[2] for row in islice(iter_rows(), 2, count + 2)]
