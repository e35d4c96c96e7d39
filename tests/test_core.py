import inspect
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tridigits import (
    PARITY_ANY,
    CongruenceCase,
    DigitString,
    DividingDynamics,
    ProofTranscript,
    digit_histogram,
    empirical_frequencies,
    fit_power_law,
    from_digits,
    fundamental_window,
    parse_dynamics,
    parse_natural,
    pascal_row,
    quadratic_diagonal,
    render_transcript,
    simulate,
    to_digits,
    tri_exact,
    tri_mod,
    validate_base,
    verify_case,
)
from tridigits import core
from tridigits.core import _DIV_LIMIT, _div2n1n, _div3n2n


def test_tri_exact_known_values():
    assert tri_exact(0) == 0
    assert tri_exact(4) == 10
    assert tri_exact(8) == 36
    # oracle: direct summation
    assert tri_exact(13) == sum(range(1, 14)) == 91


def test_tri_exact_matches_running_sum():
    total = 0
    for n in range(1, 10_001):
        total += n
        assert tri_exact(n) == total
        assert tri_exact(n) - tri_exact(n - 1) == n


def test_tri_exact_rejects_negative():
    with pytest.raises(ValueError):
        tri_exact(-1)


def test_tri_mod_known_values():
    assert tri_mod(4, 10) == 0
    assert tri_mod(0, 7) == 0
    assert tri_mod(13, 10) == 1
    # 10^30 is 0 mod 20, so the residue equals tri_mod(0, 10)
    assert tri_mod(10**30, 10) == 0


def test_tri_mod_handles_astronomical_index():
    assert tri_mod(10**100_000, 10) == 0
    assert tri_mod(10**100_000 + 4, 10) == 0


@pytest.mark.parametrize("base", [2, 3, 5, 8, 10, 16, 64])
def test_tri_mod_matches_cumulative_sum(base):
    total = 0
    for n in range(2001):
        assert tri_mod(n, base) == total % base
        total += n + 1


def test_tri_mod_periodicity_full_range():
    # the residue pattern repeats every 2L, and already every L when L is odd
    for base in range(2, 65):
        double = 2 * base
        for n in range(10_001):
            assert tri_mod(n + double, base) == tri_mod(n, base)
            if base % 2 == 1:
                assert tri_mod(n + base, base) == tri_mod(n, base)


@given(
    n=st.integers(min_value=0, max_value=10**30),
    base=st.integers(min_value=2, max_value=256),
)
def test_tri_mod_agrees_with_exact_mod(n, base):
    assert tri_mod(n, base) == tri_exact(n) % base


def test_to_digits_known_values():
    assert to_digits(10, 3).digits == (1, 0, 1)
    assert to_digits(0, 16).digits == (0,)
    assert to_digits(91, 10).digits == (9, 1)


def naive_digits(value, base):
    """The one-digit-per-divmod loop to_digits used before it split by powers."""
    if value == 0:
        return (0,)
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    return tuple(reversed(digits))


@given(
    value=st.integers(min_value=0, max_value=10**3000),
    shift=st.integers(min_value=0, max_value=10_000),
    base=st.integers(min_value=2, max_value=256),
)
def test_to_digits_matches_naive_loop(value, shift, base):
    # the shift spreads the drawn values over every length up to 3000 digits
    value >>= shift
    assert to_digits(value, base).digits == naive_digits(value, base)


@pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 255, 256])
def test_to_digits_matches_naive_loop_at_split_boundaries(base):
    values = [0, 1]
    for m in (63, 64, 65, 127, 128, 129, 256, 512, 1024, 1500):
        values += [base**m - 1, base**m, base**m + 1]
    # long internal zero runs: every low half below the top must be padded
    values += [base**5000 + 1, base**4097 + base**64, (base - 1) * base**3000 + base - 1]
    for value in values:
        assert to_digits(value, base).digits == naive_digits(value, base), value


@pytest.fixture
def no_int_str_cap():
    """Lift the int<->str cap for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_to_digits_base10_matches_str_at_100k_digits(no_int_str_cap):
    rng = random.Random(31)
    for text in (
        str(rng.randrange(1, 10)) + "".join(rng.choice("0123456789") for _ in range(99_999)),
        "1" + "0" * 99_998 + "1",
    ):
        assert str(to_digits(int(text), 10)) == text


# about 10^5 decimal digits each; the second has a 300 000-bit zero run
LARGE_VALUES = [random.Random(32).getrandbits(332_193), (1 << 332_192) + 1]


@pytest.mark.parametrize("value", LARGE_VALUES, ids=["random", "zero_run"])
def test_to_digits_power_of_two_bases_match_builtins(value):
    assert str(to_digits(value, 2)) == format(value, "b")
    assert str(to_digits(value, 16)) == format(value, "x")
    assert bytes(to_digits(value, 256).digits) == value.to_bytes((value.bit_length() + 7) // 8, "big")


def _lines_run(call, *functions):
    """Source lines of ``functions`` that ``call()`` executes, as stripped text."""
    codes = {f.__code__: inspect.getsourcelines(f) for f in functions}
    seen = set()

    def tracer(frame, event, arg):
        if frame.f_code in codes:
            if event == "line":
                lines, first = codes[frame.f_code]
                seen.add(lines[frame.f_lineno - first].strip())
            return tracer
        return None

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return seen


def _division_cases(rng, n):
    """(a, b) with b of exactly n bits and a < b << n: random, and at each edge."""
    b = rng.getrandbits(n) | 1 << (n - 1)
    top = b << n
    return [(rng.randrange(top), b), (top - 1, b), (top - b, b), (top - b - 1, b), (0, b), (b, b),
            (rng.randrange(top) >> rng.randrange(2 * n), b),
            ((1 << 2 * n - 1) - 1, 1 << n - 1), ((1 << 2 * n) - (1 << n) - 1, (1 << n) - 1)]


@pytest.mark.parametrize("limit", [_DIV_LIMIT, 64, 8, 1])
def test_recursive_division_matches_divmod(monkeypatch, limit):
    # A low limit recurses to the bottom on small numbers, through odd n at every level.
    monkeypatch.setattr(core, "_DIV_LIMIT", limit)
    rng = random.Random(limit)
    sizes = [*range(1, 40), 63, 64, 65, 127, 129, *(rng.randrange(40, 1200) for _ in range(60))]
    if limit == _DIV_LIMIT:
        sizes += [_DIV_LIMIT - 1, _DIV_LIMIT, _DIV_LIMIT + 1, 2 * _DIV_LIMIT + 1, 4099, 12_345, 20_000]
        sizes += [rng.randrange(_DIV_LIMIT, 20_000) for _ in range(20)]
    for n in sizes:
        for a, b in _division_cases(rng, n):
            assert _div2n1n(a, b, n) == divmod(a, b), (n, a, b)


def test_recursive_division_reaches_every_branch(monkeypatch):
    monkeypatch.setattr(core, "_DIV_LIMIT", 4)
    rng = random.Random(17)
    cases = [(a, b, n) for n in (5, 7, 9, 16, 33, 100, 257) for a, b in _division_cases(rng, n)]
    seen = _lines_run(lambda: [_div2n1n(a, b, n) for a, b, n in cases], _div2n1n, _div3n2n)
    for line in (
        "a, b, n = a << 1, b << 1, n + 1",  # the pad for odd n
        "q, r = (1 << n) - 1, a12 - (b1 << n) + b1",  # a12 >> n == b1
        "q, r = _div2n1n(a12, b1, n)",
        "q -= 1",  # the correction loop
    ):
        assert line in seen
    # (b << n) - 1 has the largest quotient, (1 << n) - 1, and takes the a12 >> n == b1 branch
    assert any(divmod(a, b)[0] == (1 << n) - 1 for a, b, n in cases)


def divmod_split_digits(value, base):
    """to_digits as it split before recursive division, with builtin divmod at every level."""
    powers = [base**64]
    while powers[-1] ** 2 <= value:
        powers.append(powers[-1] ** 2)
    chunks = [value]
    for power in reversed(powers):
        chunks = [part for chunk in chunks for part in divmod(chunk, power)]
    digits = []
    for chunk in chunks:
        leaf = naive_digits(chunk, base)
        digits += [0] * (64 - len(leaf)) + list(leaf)
    first = next((i for i, d in enumerate(digits) if d), len(digits) - 1)
    return tuple(digits[first:])


def _values_around_the_division_limit(rng, base):
    """Values of _DIV_LIMIT bits, and values whose top split, by the power base**(64 * 2**k)
    of n bits, has a quotient of just below to just above _DIV_LIMIT bits."""
    power = base**64
    while power.bit_length() < _DIV_LIMIT + 3:  # so that every value below is under power**2
        power *= power
    n = power.bit_length()
    values = []
    for bits in (_DIV_LIMIT - 1, _DIV_LIMIT + 1, *range(n + _DIV_LIMIT - 1, n + _DIV_LIMIT + 3)):
        values += [rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1]
    return values


@pytest.mark.parametrize("base", range(2, 257))
def test_to_digits_matches_the_divmod_split(base):
    rng = random.Random(base)
    values = _values_around_the_division_limit(rng, base)
    values.append(rng.randrange(10**19_999, 10**20_000))  # 20 000 decimal digits
    for value in values:
        assert to_digits(value, base).digits == divmod_split_digits(value, base), value.bit_length()


def horner_from_digits(d):
    """from_digits as it was before it joined runs pairwise: one multiply-add per digit."""
    value = 0
    for digit in d.digits:
        value = value * d.base + digit
    return value


def test_from_digits_inverts_known_values():
    assert from_digits(DigitString((1, 0, 1), 3)) == 10
    assert from_digits(DigitString((0,), 2)) == 0


@pytest.mark.parametrize("base", [2, 3, 10, 37, 200, 256])
def test_from_digits_matches_horner_at_run_boundaries(base):
    rng = random.Random(base)
    for length in (1, 2, 63, 64, 65, 127, 128, 129, 192, 193, 255, 256, 257, 64 * 7 + 5, 4096, 5001):
        digits = (rng.randrange(1, base), *(rng.randrange(base) for _ in range(length - 1)))
        for d in (digits, (1, *(0,) * (length - 1)), (base - 1,) * length):
            ds = DigitString(d, base)
            assert from_digits(ds) == horner_from_digits(ds), length


@pytest.mark.parametrize("base", range(2, 257))
def test_from_digits_inverts_to_digits_in_every_base(base):
    rng = random.Random(base)
    for bits in (0, 1, 64, 500, 2000, 20_000):
        value = rng.getrandbits(bits)
        assert from_digits(to_digits(value, base)) == value


def test_digit_out_of_range_rejected():
    with pytest.raises(ValueError):
        DigitString((3, 7), 5)


def test_leading_zero_rejected():
    with pytest.raises(ValueError):
        DigitString((0, 5), 10)


def test_digit_type_and_sign_errors_come_from_validate_natural():
    with pytest.raises(TypeError, match=r"^digit must be an int, got bool$"):
        DigitString((True,), 2)
    with pytest.raises(TypeError, match=r"^digit must be an int, got float$"):
        DigitString((1.0,), 2)
    with pytest.raises(ValueError, match=r"^digit must be >= 0, got -1$"):
        DigitString((-1,), 10)


def test_empty_digit_string_rejected():
    with pytest.raises(ValueError):
        DigitString((), 10)


def test_rendering_small_and_large_bases():
    assert str(to_digits(91, 10)) == "91"
    assert str(to_digits(255, 16)) == "ff"
    assert str(to_digits(35, 36)) == "z"
    # beyond base 36 digits render as colon-separated decimal numbers
    assert str(to_digits(1000, 100)) == "10:0"
    assert to_digits(1000, 100).units_digit == 0


@pytest.mark.parametrize("base", range(2, 37))
def test_rendering_up_to_base_36_matches_the_per_digit_join(base):
    # the per-digit join that the translate table replaced is the oracle
    chars = "0123456789abcdefghijklmnopqrstuvwxyz"
    values = [0, 1, base - 1, random.Random(base).randrange(base**19_999, base**20_000)]
    values += [base**k + delta for k in range(1, 70) for delta in (-1, 0, 1)]
    for value in values:
        digits = to_digits(value, base)
        assert str(digits) == "".join(chars[d] for d in digits.digits)


def test_roundtrip_bulk_seeded():
    rng = random.Random(20250809)
    values = [rng.randrange(10**40) for _ in range(10_000)]
    for base in (2, 3, 4, 8, 10, 16, 255):
        for v in values:
            assert from_digits(to_digits(v, base)) == v


@given(
    value=st.integers(min_value=0, max_value=10**60),
    base=st.integers(min_value=2, max_value=256),
)
def test_roundtrip_property(value, base):
    ds = to_digits(value, base)
    assert from_digits(ds) == value
    assert ds.units_digit == value % base
    assert all(0 <= d < base for d in ds.digits)
    # decimal-string round trip of the value itself
    assert parse_natural(str(value)) == value


@pytest.mark.parametrize("bad", [1, 0, -3, 257, 1000])
def test_base_bounds_rejected(bad):
    with pytest.raises(ValueError):
        validate_base(bad)


def test_base_bounds_accepted():
    assert validate_base(2) == 2
    assert validate_base(256) == 256


def test_parse_natural():
    assert parse_natural("0") == 0
    assert parse_natural("007") == 7
    assert parse_natural("9" * 200) == 10**200 - 1
    for bad in ["", "-1", "1.5", "abc", " 5", "+5"]:
        with pytest.raises(ValueError):
            parse_natural(bad)


SOUND_CASE = CongruenceCase(3, 0, PARITY_ANY, 0)
LINEAR_TRACE = simulate(DividingDynamics.linear(), 20)


# bool is an int subclass and floats compare like ints, so each of these
# once slipped through or failed inside the loop it was meant to bound.
@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: tri_exact(True), TypeError, id="tri_exact"),
        pytest.param(lambda: tri_mod(True, 10), TypeError, id="tri_mod"),
        pytest.param(lambda: to_digits(True, 2), TypeError, id="to_digits"),
        pytest.param(lambda: DigitString((True, False), 2), TypeError, id="bool_digits"),
        pytest.param(lambda: quadratic_diagonal(True), TypeError, id="diagonal"),
        pytest.param(lambda: quadratic_diagonal(2.0), TypeError, id="diagonal_float"),
        pytest.param(lambda: empirical_frequencies(10, 2.5), TypeError, id="empirical"),
        pytest.param(lambda: digit_histogram(LINEAR_TRACE, 300), ValueError, id="histogram_base_300"),
        pytest.param(lambda: verify_case(SOUND_CASE, 1.5), TypeError, id="verify_case"),
        pytest.param(lambda: verify_case(CongruenceCase(3, 0, PARITY_ANY, 0.0), 5), TypeError,
                     id="verify_case_float_digit"),
        pytest.param(lambda: verify_case(CongruenceCase(3, True, PARITY_ANY, 1), 5), TypeError,
                     id="verify_case_bool_digit"),
        pytest.param(lambda: verify_case(CongruenceCase(3, 4, PARITY_ANY, 1), 5), ValueError,
                     id="verify_case_digit_not_below_base"),
        pytest.param(lambda: verify_case(CongruenceCase(3, 0, PARITY_ANY, 3), 5), ValueError,
                     id="verify_case_output_not_below_base"),
        pytest.param(lambda: verify_case(CongruenceCase(3.0, 0, PARITY_ANY, 0), 5), TypeError,
                     id="verify_case_float_base"),
        pytest.param(  # the ValueError verify_case raises for it, not a KeyError
            lambda: render_transcript(
                ProofTranscript(3, (CongruenceCase(3, 0, "some", 0),))),
            ValueError, id="render_transcript_unknown_parity"),
        pytest.param(lambda: parse_natural(5), TypeError, id="parse_natural_int"),
        pytest.param(lambda: parse_natural(b"5"), TypeError, id="parse_natural_bytes"),
        pytest.param(lambda: parse_dynamics(5), TypeError, id="parse_dynamics_int"),
        pytest.param(lambda: simulate(DividingDynamics.linear(), 2.0), TypeError, id="simulate"),
        pytest.param(lambda: pascal_row(2.0), TypeError, id="pascal_row"),
        pytest.param(lambda: pascal_row(True), TypeError, id="pascal_row_bool"),
        pytest.param(lambda: fit_power_law(LINEAR_TRACE, (True, 10)), TypeError, id="fit_window_bool"),
        pytest.param(lambda: fit_power_law(LINEAR_TRACE, (1, 10.0)), TypeError, id="fit_window_float"),
        pytest.param(lambda: LINEAR_TRACE.total_at(True), TypeError, id="total_at"),
        pytest.param(lambda: DividingDynamics.constant(1.5), TypeError, id="constant"),
        pytest.param(lambda: DividingDynamics.decline(3.5, 1), TypeError, id="decline"),
        pytest.param(lambda: DividingDynamics("linear", level=5), ValueError, id="linear_level"),
        pytest.param(lambda: DividingDynamics.linear().dividing_counts(True), TypeError,
                     id="dividing_counts_bool"),
        pytest.param(lambda: DividingDynamics.constant(2).dividing_counts(-1), ValueError,
                     id="dividing_counts_negative"),
        pytest.param(lambda: DividingDynamics.linear().dividing_at(2.5), TypeError,
                     id="dividing_at_float"),
        pytest.param(lambda: DividingDynamics.linear().dividing_at(True), TypeError,
                     id="dividing_at_bool"),
        pytest.param(lambda: DividingDynamics.decline(10, 2).dividing_at(-3), ValueError,
                     id="dividing_at_negative"),
        pytest.param(lambda: DividingDynamics.constant(4).dividing_at(0), ValueError,
                     id="dividing_at_zero"),
        pytest.param(lambda: empirical_frequencies(10, 20).proportion(True), TypeError,
                     id="proportion_bool"),
        pytest.param(lambda: empirical_frequencies(10, 20).proportion(1.0), TypeError,
                     id="proportion_float"),
        pytest.param(lambda: empirical_frequencies(10, 20).proportion(10), ValueError,
                     id="proportion_digit_not_below_base"),
        pytest.param(lambda: empirical_frequencies(10, 20).proportion(-1), ValueError,
                     id="proportion_negative"),
        # a cached window for 2 must not answer for 2.0 or True; an untyped
        # cache keys keyword calls by value, so base=2.0 would hit base=2
        pytest.param(lambda: (fundamental_window(2), fundamental_window(2.0)), TypeError,
                     id="window_cache_float"),
        pytest.param(lambda: (fundamental_window(2), fundamental_window(True)), TypeError,
                     id="window_cache_bool"),
        pytest.param(lambda: (fundamental_window(base=2), fundamental_window(base=2.0)), TypeError,
                     id="window_cache_keyword_float"),
    ],
)
def test_entry_points_validate_integer_arguments(call, error):
    with pytest.raises(error):
        call()
