import dataclasses
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tridigits import (
    EmpiricalFrequencies,
    ResidueProfile,
    classify_base,
    empirical_frequencies,
    fundamental_window,
    power_of_two_sweep,
    residue_profile,
    tri_exact,
    tri_mod,
)
from tridigits import residues


def test_base10_profile_matches_known_frequencies():
    profile = residue_profile(10)
    fifth, tenth, zero = Fraction(1, 5), Fraction(1, 10), Fraction(0)
    assert profile.frequency == {
        0: fifth, 1: fifth, 2: zero, 3: tenth, 4: zero,
        5: fifth, 6: fifth, 7: zero, 8: tenth, 9: zero,
    }
    assert profile.reachable == frozenset({0, 1, 3, 5, 6, 8})
    assert profile.period == 20


def test_base3_profile():
    profile = residue_profile(3)
    assert profile.reachable == frozenset({0, 1})
    assert profile.frequency == {0: Fraction(2, 3), 1: Fraction(1, 3), 2: Fraction(0)}
    assert profile.period == 3


def test_base8_profile_uniform():
    profile = residue_profile(8)
    assert profile.reachable == frozenset(range(8))
    assert all(profile.frequency[d] == Fraction(1, 8) for d in range(8))


def test_base2_profile():
    assert fundamental_window(2) == (0, 1, 1, 0)
    profile = residue_profile(2)
    assert profile.reachable == frozenset({0, 1})
    assert profile.frequency == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert profile.period == 4


def test_cached_window_matches_naive_window():
    # naive oracle: the uncached window, recomputed for every base
    fundamental_window.cache_clear()
    for base in range(2, 257):
        window = fundamental_window(base)
        assert window == tuple(tri_mod(n, base) for n in range(2 * base))
        assert fundamental_window(base) is window
        expected = {d: Fraction(window.count(d), 2 * base) for d in range(base)}
        assert residue_profile(base).frequency == expected


def test_frequencies_sum_to_one_exactly():
    for base in range(2, 65):
        profile = residue_profile(base)
        assert sum(profile.frequency.values()) == 1
        assert set(profile.frequency) == set(range(base))


def test_reachable_matches_bruteforce_prefix():
    # naive oracle: accumulate the sums directly and reduce each one
    seen = {base: set() for base in range(2, 65)}
    total = 0
    for n in range(10_001):
        for base in range(2, 65):
            seen[base].add(total % base)
        total += n + 1
    for base in range(2, 65):
        assert residue_profile(base).reachable == seen[base]


def test_period_is_minimal_and_divides_window():
    for base in range(2, 65):
        profile = residue_profile(base)
        window = fundamental_window(base)
        size = len(window)
        assert size % profile.period == 0
        # brute scan over ALL shifts, not just divisors
        periods = [
            p
            for p in range(1, size + 1)
            if all(window[i] == window[(i + p) % size] for i in range(size))
        ]
        assert min(periods) == profile.period


def test_period_closed_form():
    # T(n+p) - T(n) = p*n + p(p+1)/2 forces p to be a multiple of the
    # base, and the base itself works only when it is odd
    for base in range(2, 65):
        expected = base if base % 2 == 1 else 2 * base
        assert residue_profile(base).period == expected


def test_empirical_known_counts():
    emp = empirical_frequencies(10, 20)
    assert emp.counts == {0: 4, 1: 4, 2: 0, 3: 2, 4: 0, 5: 4, 6: 4, 7: 0, 8: 2, 9: 0}

    emp3 = empirical_frequencies(3, 3)
    assert emp3.counts == {0: 2, 1: 1, 2: 0}

    emp1 = empirical_frequencies(10, 1)
    assert emp1.counts[1] == 1
    assert sum(emp1.counts.values()) == 1


def test_empirical_counts_sum_to_sample_size():
    for base, n in [(7, 123), (12, 1), (64, 999)]:
        emp = empirical_frequencies(base, n)
        assert sum(emp.counts.values()) == n
        assert emp.proportion(0) == Fraction(emp.counts[0], n)


@given(
    base=st.integers(min_value=2, max_value=256),
    sample_size=st.integers(min_value=1, max_value=5000),
)
def test_empirical_matches_naive_count(base, sample_size):
    # naive oracle: reduce each exact triangular number
    naive = Counter(tri_exact(n) % base for n in range(1, sample_size + 1))
    emp = empirical_frequencies(base, sample_size)
    assert emp.counts == {d: naive[d] for d in range(base)}
    assert emp.sample_size == sample_size


# The closed-form count splits the sample into whole windows of 2L residues
# and a prefix: one sample short of a window, a whole window, one past it,
# and several windows plus a prefix.
@pytest.mark.parametrize("base", [2, 3, 10, 255, 256])
@pytest.mark.parametrize("windows, extra", [(1, -1), (1, 0), (1, 1), (5, 7)])
def test_empirical_matches_naive_count_at_window_boundaries(base, windows, extra):
    sample_size = windows * 2 * base + extra
    naive = Counter(tri_exact(n) % base for n in range(1, sample_size + 1))
    assert empirical_frequencies(base, sample_size).counts == {d: naive[d] for d in range(base)}


# A per-sample count could never finish this. The oracle counts n in 1..2L,
# a whole number of periods, and the last samples themselves, each from the
# exact triangular number.
@pytest.mark.parametrize("base", [7, 10, 256])
def test_empirical_counts_a_googol_of_samples(base):
    sample_size = 10**100
    whole, rest = divmod(sample_size, 2 * base)
    per_window = Counter(tri_exact(n) % base for n in range(1, 2 * base + 1))
    tail = Counter(tri_exact(n) % base for n in range(sample_size - rest + 1, sample_size + 1))
    emp = empirical_frequencies(base, sample_size)
    assert emp.sample_size == sum(emp.counts.values()) == sample_size
    assert emp.counts == {d: whole * per_window[d] + tail[d] for d in range(base)}


def test_empirical_rejects_zero_sample():
    with pytest.raises(ValueError):
        empirical_frequencies(10, 0)


# A digit outside range(base) would leave sample_size above the counts' sum,
# and an empty sample would make proportion() divide by zero.
@pytest.mark.parametrize("digits", [[11, 3], [3, -1], [10], [2.5], []])
def test_tally_rejects_stray_digits_and_empty_samples(digits):
    with pytest.raises(ValueError):
        EmpiricalFrequencies.tally(10, digits)


def _every_digit(base, **counts):
    return {d: counts.get(f"d{d}", 0) for d in range(base)}


# States no count produces: every digit needs one natural count, and the counts
# make up the sample exactly.
@pytest.mark.parametrize("args, error, message", [
    ((10, 5, {d: 7 for d in range(10)}), ValueError, "sum to 70, not sample_size 5"),
    ((10, 5, {0: 5}), ValueError, r"need one count for each digit in \[0, 10\)"),
    ((10, 5, {**_every_digit(10, d0=5), 10: 0}), ValueError, "need one count for each digit"),
    ((10, 0, _every_digit(10)), ValueError, "sample_size must be >= 1"),
    ((10, 1.0, _every_digit(10, d0=1)), TypeError, "sample_size must be an int"),
    ((10, 1, _every_digit(10, d0=True)), TypeError, "count must be an int, got bool"),
    ((10, 1, _every_digit(10, d0=1.0)), TypeError, "count must be an int, got float"),
    ((10, 1, _every_digit(10, d0=2, d1=-1)), ValueError, "count must be >= 0, got -1"),
    ((300, 1, _every_digit(300, d0=1)), ValueError, "base must be in"),
])
def test_empirical_frequencies_rejects_inconsistent_states(args, error, message):
    with pytest.raises(error, match=message):
        EmpiricalFrequencies(*args)


def test_empirical_frequencies_accepts_what_a_count_produces():
    emp = EmpiricalFrequencies(10, 5, _every_digit(10, d0=3, d9=2))
    assert emp.proportion(9) == Fraction(2, 5)
    assert EmpiricalFrequencies.tally(10, [0, 0, 0, 9, 9]) == emp


def _unread_sample():
    raise AssertionError("sample read before the base was checked")
    yield 0


@pytest.mark.parametrize("base, error", [(300, ValueError), (True, TypeError), (2.0, TypeError)])
def test_tally_checks_its_base_before_reading_the_sample(base, error):
    with pytest.raises(error, match="^base must be"):
        EmpiricalFrequencies.tally(base, _unread_sample())


def test_window_multiples_reproduce_exact_frequencies():
    for base in range(2, 65):
        profile = residue_profile(base)
        for q in (1, 3):
            n = 2 * base * q
            emp = empirical_frequencies(base, n)
            for d in range(base):
                assert Fraction(emp.counts[d], n) == profile.frequency[d]


def test_classification_examples():
    ten = classify_base(10)
    assert ten.gappy
    assert ten.missing_digits == (2, 4, 7, 9)
    assert not classify_base(4).gappy
    assert not classify_base(16).gappy
    assert classify_base(6).gappy


def test_reachable_is_frequency_support():
    for base in range(2, 65):
        profile = residue_profile(base)
        support = frozenset(d for d in range(base) if profile.frequency[d] > 0)
        assert profile.reachable == support


def test_gappy_iff_some_digit_missing():
    for base in range(2, 65):
        profile = residue_profile(base)
        result = classify_base(base)
        assert result.gappy == bool(result.missing_digits)
        assert result.gappy == (len(profile.reachable) < base)
        assert set(result.missing_digits) == set(range(base)) - profile.reachable
        assert list(result.missing_digits) == sorted(result.missing_digits)


def test_sweep_nongappy_exactly_powers_of_two():
    for max_base in (2, 10, 16, 64, 256):
        sweep = power_of_two_sweep(max_base)
        assert [b for b, _ in sweep] == list(range(2, max_base + 1))
        non_gappy = {b for b, gappy in sweep if not gappy}
        assert non_gappy == {b for b in range(2, max_base + 1) if b & (b - 1) == 0}


def test_sweep_bounds():
    with pytest.raises(ValueError):
        power_of_two_sweep(257)
    with pytest.raises(ValueError):
        power_of_two_sweep(1)


def test_profile_stores_only_what_the_window_does_not_derive():
    assert [f.name for f in dataclasses.fields(ResidueProfile)] == ["base", "period", "reachable"]


def test_classifying_builds_no_frequencies(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr(residues, "Fraction", refuse)
    assert len(power_of_two_sweep(256)) == 255
    for base in range(2, 257):
        profile = classify_base(base)
        assert profile.gappy == bool(profile.missing_digits)


def test_frequency_follows_the_base_after_a_replace():
    assert dataclasses.replace(residue_profile(9), period=10).frequency == residue_profile(9).frequency


def test_profiles_are_hashable_and_distinct_per_base():
    assert len({residue_profile(b) for b in range(2, 257)}) == 255
    assert hash(residue_profile(10)) == hash(residue_profile(10))


def test_writing_into_a_frequency_leaves_the_next_read_unchanged():
    profile = residue_profile(10)
    frequency = profile.frequency
    frequency[2] = Fraction(1)
    del frequency[0]
    assert profile.frequency == residue_profile(10).frequency
    assert profile.frequency[2] == 0 and profile.frequency[0] == Fraction(1, 5)


@given(base=st.integers(min_value=2, max_value=256))
def test_profile_structure_property(base):
    profile = residue_profile(base)
    window = 2 * base
    assert window % profile.period == 0
    for f in profile.frequency.values():
        assert window % f.denominator == 0
    assert sum(profile.frequency.values()) == 1


# Oracles from number theory that share no code with the residue window.
# 8*T(n) + 1 = (2n + 1)**2, so mod an odd prime power q a digit j is a units
# digit exactly when 8j + 1 is a square mod q, while mod 2**e every digit is
# reached. T mod q depends on n mod q and T mod 2**e on n mod 2**(e + 1), so
# by the Chinese remainder theorem the prime powers of L combine independently.
ALL_BASES = range(2, 257)


def prime_powers(n):
    """{p: e} with n == prod(p**e), by trial division."""
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def squares_mod(q):
    return {x * x % q for x in range(q)}


@pytest.mark.parametrize("base", ALL_BASES)
def test_reachable_count_is_the_product_of_square_counts(base):
    expected = math.prod(
        2**e if p == 2 else len(squares_mod(p**e)) for p, e in prime_powers(base).items()
    )
    assert len(residue_profile(base).reachable) == expected


@pytest.mark.parametrize("base", ALL_BASES)
def test_reachable_mod_odd_prime_powers_is_the_square_test(base):
    reachable = residue_profile(base).reachable
    for p, e in prime_powers(base).items():
        if p != 2:
            q = p**e
            squares = squares_mod(q)
            assert {d % q for d in reachable} == {j for j in range(q) if (8 * j + 1) % q in squares}


@pytest.mark.parametrize("base", ALL_BASES)
def test_gappy_exactly_when_an_odd_prime_divides_the_base(base):
    assert residue_profile(base).gappy == (set(prime_powers(base)) != {2})


COPRIME_PAIRS = [
    (a, b) for a in range(2, 17) for b in range(a + 1, 17) if math.gcd(a, b) == 1 and a * b <= 256
]


def test_there_are_64_coprime_pairs():
    assert len(COPRIME_PAIRS) == 64


@pytest.mark.parametrize("a,b", COPRIME_PAIRS)
def test_frequency_of_a_coprime_product_is_the_product_of_frequencies(a, b):
    fa, fb, fab = (residue_profile(L).frequency for L in (a, b, a * b))
    assert all(fab[d] == fa[d % a] * fb[d % b] for d in range(a * b))
