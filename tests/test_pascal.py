import math
from itertools import islice

import pytest

import tridigits.pascal
from tridigits import PascalRow, iter_rows, pascal_row, quadratic_diagonal, tri_exact


def test_known_rows():
    assert pascal_row(0).coefficients == (1,)
    assert pascal_row(4).coefficients == (1, 4, 6, 4, 1)
    assert pascal_row(9).coefficients == (1, 9, 36, 84, 126, 126, 84, 36, 9, 1)


def test_negative_row_rejected():
    with pytest.raises(ValueError):
        pascal_row(-1)


def test_row_must_hold_index_plus_one_coefficients():
    assert PascalRow(index=2, coefficients=(1, 2, 1)) == pascal_row(2)
    with pytest.raises(ValueError, match=r"^row 3 has 4 coefficients, got 1$"):
        PascalRow(3, (9,))
    with pytest.raises(ValueError, match=r"^index must be >= 0, got -1$"):
        PascalRow(-1, ())
    with pytest.raises(TypeError, match=r"^index must be an int, got bool$"):
        PascalRow(True, (1, 1))


def test_rows_symmetric_and_recurrent_up_to_100():
    prev = None
    for n, coeffs in enumerate(islice(iter_rows(), 101)):
        assert len(coeffs) == n + 1
        assert coeffs == coeffs[::-1]
        if prev is not None:
            assert all(coeffs[i] == prev[i - 1] + prev[i] for i in range(1, n))
        prev = coeffs


def test_row_sums_are_powers_of_two():
    for n, coeffs in enumerate(islice(iter_rows(), 61)):
        assert sum(coeffs) == 2**n


@pytest.mark.parametrize("n", [0, 1, 5, 20, 60, 500, 1500, 5000])
def test_rows_match_binomials(n):
    assert pascal_row(n).coefficients == tuple(math.comb(n, r) for r in range(n + 1))


def test_rows_match_additive_rows_up_to_200():
    # n = 0, 1 and 2 are the edge cases of the mirrored half
    for n, row in enumerate(islice(iter_rows(), 201)):
        assert pascal_row(n).coefficients == row


def test_row_does_not_build_rows_additively(monkeypatch):
    def refuse():
        raise AssertionError("pascal_row read iter_rows")

    monkeypatch.setattr(tridigits.pascal, "iter_rows", refuse)
    assert pascal_row(1500).coefficients[750] == math.comb(1500, 750)


def test_quadratic_diagonal_first_eight():
    assert quadratic_diagonal(8) == [1, 3, 6, 10, 15, 21, 28, 36]


def test_quadratic_diagonal_bounds():
    assert quadratic_diagonal(1) == [1]
    assert quadratic_diagonal(13)[-1] == 91
    with pytest.raises(ValueError):
        quadratic_diagonal(0)


def test_diagonal_equals_triangular_numbers():
    # the diagonal comes from Pascal's rule on column 2; the closed form
    # is the independent route
    diagonal = quadratic_diagonal(1000)
    assert len(diagonal) == 1000
    for t, value in enumerate(diagonal, start=1):
        assert value == tri_exact(t)


def test_diagonal_matches_additive_rows_up_to_200():
    rows = [row[2] for row in islice(iter_rows(), 2, 202)]
    for count in range(1, 201):
        assert quadratic_diagonal(count) == rows[:count]


@pytest.mark.parametrize("count", [1500, 5000])
def test_diagonal_matches_binomials(count):
    assert quadratic_diagonal(count) == [math.comb(t + 1, 2) for t in range(1, count + 1)]


def test_diagonal_does_not_build_rows(monkeypatch):
    def refuse():
        raise AssertionError("quadratic_diagonal read iter_rows")

    monkeypatch.setattr(tridigits.pascal, "iter_rows", refuse)
    assert quadratic_diagonal(1500)[-1] == math.comb(1501, 2)
