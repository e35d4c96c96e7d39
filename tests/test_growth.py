import dataclasses
import math
import os
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tridigits import growth
from tridigits import (
    DividingDynamics,
    GrowthTrace,
    PowerLawFit,
    digit_histogram,
    empirical_frequencies,
    fit_power_law,
    parse_dynamics,
    residue_profile,
    simulate,
    tri_exact,
)


def test_linear_growth_first_totals():
    trace = simulate(DividingDynamics.linear(), 4)
    assert trace.dividing == (1, 2, 3, 4)
    assert trace.total == (1, 3, 6, 10)


def test_constant_growth_is_linear():
    trace = simulate(DividingDynamics.constant(3), 5)
    assert trace.total == (3, 6, 9, 12, 15)


def test_decline_trace_hand_checked():
    trace = simulate(DividingDynamics.decline(5, 1), 6)
    assert trace.dividing == (4, 3, 2, 1, 0, 0)
    assert trace.total == (4, 7, 9, 10, 10, 10)


def test_linear_totals_are_triangular():
    trace = simulate(DividingDynamics.linear(), 10_000)
    for t in range(1, 10_001):
        assert trace.total_at(t) == tri_exact(t)


def test_initial_total_offsets_everything():
    trace = simulate(DividingDynamics.linear(), 10, initial_total=7)
    assert trace.total[0] == 8
    assert trace.total[-1] == 7 + tri_exact(10)


def test_total_at_bounds():
    trace = simulate(DividingDynamics.linear(), 5)
    with pytest.raises(ValueError):
        trace.total_at(0)
    with pytest.raises(ValueError):
        trace.total_at(6)


@given(
    kind=st.sampled_from(["linear", "constant", "decline"]),
    level=st.integers(min_value=1, max_value=50),
    start=st.integers(min_value=1, max_value=50),
    slope=st.integers(min_value=1, max_value=5),
    horizon=st.integers(min_value=1, max_value=200),
    initial=st.integers(min_value=0, max_value=10**6),
)
def test_conservation_and_monotonicity(kind, level, start, slope, horizon, initial):
    if kind == "linear":
        dynamics = DividingDynamics.linear()
    elif kind == "constant":
        dynamics = DividingDynamics.constant(level)
    else:
        dynamics = DividingDynamics.decline(start, slope)
    trace = simulate(dynamics, horizon, initial)
    assert trace.total[-1] == initial + sum(trace.dividing)
    assert all(d >= 0 for d in trace.dividing)
    previous = initial
    for d, total in zip(trace.dividing, trace.total):
        assert total - previous == d
        assert total >= previous
        previous = total


dynamics_strategy = st.one_of(
    st.just(DividingDynamics.linear()),
    st.builds(DividingDynamics.constant, st.integers(min_value=1, max_value=50)),
    st.builds(
        DividingDynamics.decline,
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=5),
    ),
)


def explicit_loop_simulate(dynamics, horizon, initial_total):
    """The running-sum loop simulate replaced, kept as its oracle."""
    dividing, total = [], []
    running = initial_total
    for t in range(1, horizon + 1):
        d = dynamics.dividing_at(t)
        running += d
        dividing.append(d)
        total.append(running)
    return tuple(dividing), tuple(total)


@given(
    dynamics=dynamics_strategy,
    horizon=st.integers(min_value=1, max_value=300),
    initial=st.integers(min_value=1, max_value=10**6),
)
def test_simulate_matches_the_explicit_loop(dynamics, horizon, initial):
    trace = simulate(dynamics, horizon, initial)
    dividing, total = explicit_loop_simulate(dynamics, horizon, initial)
    assert (trace.dividing, trace.total, trace.horizon) == (dividing, total, horizon)
    assert (trace.dynamics, trace.initial_total) == (dynamics, initial)


def test_trace_stores_only_its_totals():
    trace = simulate(DividingDynamics.decline(5, 1), 6, 2)
    assert [f.name for f in dataclasses.fields(GrowthTrace)] == ["dynamics", "initial_total", "total"]
    assert trace == GrowthTrace(DividingDynamics.decline(5, 1), 2, (6, 9, 11, 12, 12, 12))
    assert (trace.horizon, trace.dividing) == (6, (4, 3, 2, 1, 0, 0))


def test_dividing_counts_come_from_the_totals():
    assert GrowthTrace(DividingDynamics.linear(), 0, (5, 5, 5)).dividing == (5, 0, 0)
    assert GrowthTrace(DividingDynamics.linear(), 7, (1, 3, 6)).dividing == (-6, 2, 3)


@pytest.mark.parametrize(
    "initial, total, error",
    [(0, (), ValueError), (True, (1,), TypeError), (0.0, (1,), TypeError), (-1, (1,), ValueError)],
)
def test_trace_rejects_a_bad_initial_total_or_no_totals(initial, total, error):
    with pytest.raises(error):
        GrowthTrace(DividingDynamics.linear(), initial, total)


def naive_dividing(dynamics, horizon):
    return [dynamics.dividing_at(t) for t in range(1, horizon + 1)]


@given(
    dynamics=st.one_of(
        dynamics_strategy,
        # start a multiple of slope: the count reaches 0 exactly at t = k
        st.builds(
            lambda k, slope: DividingDynamics.decline(k * slope, slope),
            st.integers(min_value=1, max_value=60),
            st.integers(min_value=1, max_value=9),
        ),
        # starts of 400+ digits, with slopes that reach 0 within the horizon or not
        st.builds(
            DividingDynamics.decline,
            st.integers(min_value=10**400, max_value=10**401),
            st.one_of(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=10**398, max_value=10**400),
            ),
        ),
    ),
    horizon=st.integers(min_value=0, max_value=400),
)
def test_dividing_counts_match_dividing_at(dynamics, horizon):
    assert list(dynamics.dividing_counts(horizon)) == naive_dividing(dynamics, horizon)


@pytest.mark.parametrize(
    "dynamics, horizon",
    [
        (DividingDynamics.decline(3, 5), 4),  # start < slope: nothing ever divides
        (DividingDynamics.decline(5, 5), 3),  # start == slope
        (DividingDynamics.decline(12, 4), 3),  # last step of the decline is d = 0
        (DividingDynamics.decline(12, 4), 2),  # horizon ends just before the zero point
        (DividingDynamics.decline(7, 2), 1000),  # horizon far past the zero point
        # a 421-digit start whose count is last positive at t = 100
        (DividingDynamics.decline(10**420 + 3, 10**418), 250),
        (DividingDynamics.constant(10**400), 5),
        (DividingDynamics.linear(), 0),
        (DividingDynamics.constant(3), 0),
        (DividingDynamics.decline(9, 1), 0),
    ],
)
def test_dividing_counts_edges(dynamics, horizon):
    counts = list(dynamics.dividing_counts(horizon))
    assert counts == naive_dividing(dynamics, horizon)
    assert len(counts) == horizon and all(d >= 0 for d in counts)


def normal_equations_fit(trace, lo, hi):
    """Means, sxx and sxy by hand: the arithmetic fit_power_law replaced."""
    xs = [math.log(t) for t in range(lo, hi + 1)]
    ys = [math.log(trace.total[t - 1]) for t in range(lo, hi + 1)]
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / n)
    return slope, intercept, residual


@given(
    dynamics=dynamics_strategy,
    horizon=st.integers(min_value=2, max_value=2000),
    initial=st.integers(min_value=1, max_value=10**6),
    data=st.data(),
)
def test_fit_matches_the_normal_equations(dynamics, horizon, initial, data):
    trace = simulate(dynamics, horizon, initial)
    lo = data.draw(st.integers(min_value=1, max_value=horizon - 1))
    hi = data.draw(st.integers(min_value=lo + 1, max_value=horizon))
    fit = fit_power_law(trace, (lo, hi))
    # Python 3.12+ sums the regression with sumprod, not fsum: equal up to
    # rounding, and abs_tol covers offsets and residuals that are about 0.
    for got, want in zip((fit.exponent, fit.offset, fit.residual), normal_equations_fit(trace, lo, hi)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_fit_exponent_for_linear_dynamics_near_two():
    trace = simulate(DividingDynamics.linear(), 1000)
    fit = fit_power_law(trace, (500, 1000))
    assert abs(fit.exponent - 2.0) <= 0.05


def test_fit_exponent_for_constant_dynamics_is_one():
    # N(t) = c*t is exactly a line in log-log space
    fit = fit_power_law(simulate(DividingDynamics.constant(1), 1000), (500, 1000))
    assert abs(fit.exponent - 1.0) <= 1e-6
    assert fit.residual <= 1e-9

    seven = fit_power_law(simulate(DividingDynamics.constant(7), 1000), (500, 1000))
    assert abs(seven.exponent - 1.0) <= 1e-6
    assert abs(seven.offset - math.log(7)) <= 1e-6


def test_default_window_is_upper_half():
    trace = simulate(DividingDynamics.linear(), 1000)
    assert fit_power_law(trace).window == (500, 1000)


def test_fit_handles_huge_totals():
    # totals far beyond float range still fit, thanks to integer log
    trace = simulate(DividingDynamics.constant(10**400), 100)
    fit = fit_power_law(trace, (50, 100))
    assert abs(fit.exponent - 1.0) <= 1e-6


def test_fit_rejects_bad_windows():
    trace = simulate(DividingDynamics.linear(), 10)
    for window in [(0, 5), (5, 11), (7, 6), (4, 4)]:
        with pytest.raises(ValueError):
            fit_power_law(trace, window)


def test_fit_rejects_nonpositive_totals():
    # start 1, slope 1 never divides at all: totals stay at zero
    trace = simulate(DividingDynamics.decline(1, 1), 5)
    assert trace.total == (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        fit_power_law(trace, (1, 5))


def test_fit_names_the_first_nonpositive_total_in_the_window():
    # hand-built: only a 0 (t=4) and a later, smaller -2 (t=6) are not positive
    trace = GrowthTrace(DividingDynamics.linear(), 0, (1, 3, 6, 0, 15, -2, 28, 36))
    with pytest.raises(ValueError, match=r"^total at t=4 is not positive; cannot take its log$"):
        fit_power_law(trace, (2, 8))
    with pytest.raises(ValueError, match=r"^total at t=6 is not positive"):
        fit_power_law(trace, (5, 8))
    assert fit_power_law(trace, (7, 8)).window == (7, 8)


def test_flat_window_fits_exactly():
    # decline:6984,10 stops dividing at t=698, long before the window [9631, 19263]
    trace = simulate(parse_dynamics("decline:6984,10"), 19263, 95)
    fit = fit_power_law(trace)
    n = trace.total[-1]
    assert fit == PowerLawFit(exponent=0.0, offset=math.log(n), window=(9631, 19263), residual=0.0)
    assert math.copysign(1.0, fit.exponent) == 1.0  # not -0.0

    hand_built = GrowthTrace(DividingDynamics.linear(), 0, (3, 10**400, 10**400, 10**400))
    assert fit_power_law(hand_built, (2, 4)) == PowerLawFit(0.0, math.log(10**400), (2, 4), 0.0)


@pytest.mark.parametrize(
    "totals, window, t",
    [
        ((4, 0, 0, 0), (2, 4), 2),  # a flat window of zeros
        ((4, -3, -3, -3), (2, 4), 2),  # a flat window of one negative total
        ((1, 3, 6, 10, 0), (2, 5), 5),  # only the last total is not positive
        ((1, 3, -10**400, 10), (1, 4), 3),
        ((1.0, 3.0, 0.0, 10.0), (1, 4), 3),
    ],
)
def test_fit_names_the_first_nonpositive_total(totals, window, t):
    trace = GrowthTrace(DividingDynamics.linear(), 0, totals)
    with pytest.raises(ValueError, match=rf"^total at t={t} is not positive; cannot take its log$"):
        fit_power_law(trace, window)


def test_flat_window_of_a_huge_total_fits_exactly():
    trace = GrowthTrace(DividingDynamics.linear(), 0, (10**400,) * 5)
    fit = fit_power_law(trace, (1, 5))
    assert fit == PowerLawFit(0.0, math.log(10**400), (1, 5), 0.0)
    assert math.copysign(1.0, fit.exponent) == 1.0


LIMIT = growth._LOG_T_LIMIT


@pytest.fixture
def empty_log_table(monkeypatch):
    monkeypatch.setattr(growth, "_LOG_T", array("d"))


def logs(lo, hi):
    return array("d", map(math.log, range(lo, hi + 1)))


@pytest.mark.parametrize(
    "lo, hi",
    [(1, 2), (7, 5000), (LIMIT - 300, LIMIT), (LIMIT - 300, LIMIT + 300), (LIMIT + 1, LIMIT + 300)],
    ids=["first", "below", "ending_at_limit", "straddling", "beyond"],
)
def test_log_table_slices_equal_math_log(empty_log_table, lo, hi):
    assert growth._log_t(lo, hi) == logs(lo, hi)
    assert len(growth._LOG_T) == (hi if hi <= LIMIT else 0)


def test_log_table_grown_out_of_order(empty_log_table):
    for lo, hi in [(9000, 20000), (3, 10), (15000, 60000), (1, 2)]:
        assert growth._log_t(lo, hi) == logs(lo, hi)
    assert growth._LOG_T == logs(1, 60000)


def test_import_leaves_the_log_table_empty():
    code = "import tridigits, tridigits.cli; from tridigits import growth; print(len(growth._LOG_T))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "0\n"


@given(
    start=st.integers(min_value=1, max_value=3000),
    slope=st.integers(min_value=1, max_value=20),
    initial=st.integers(min_value=1, max_value=10**6),
    data=st.data(),
)
def test_fit_after_the_decline_ends_is_exact_and_matches_the_normal_equations(
    start, slope, initial, data
):
    last = (start - 1) // slope  # the last step with d(t) > 0; 0 when none has
    lo = data.draw(st.integers(min_value=max(1, last), max_value=max(1, last) + 300))
    hi = data.draw(st.integers(min_value=lo + 1, max_value=lo + 2000))
    trace = simulate(DividingDynamics.decline(start, slope), hi, initial)
    fit = fit_power_law(trace, (lo, hi))
    n = trace.total[lo - 1]
    assert set(trace.total[lo - 1 : hi]) == {n}
    assert fit == PowerLawFit(exponent=0.0, offset=math.log(n), window=(lo, hi), residual=0.0)
    for got, want in zip((fit.exponent, fit.offset, fit.residual), normal_equations_fit(trace, lo, hi)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_flat_window_skips_the_regression(monkeypatch):
    def refuse(xs, ys):
        raise AssertionError("regressed a flat window")

    monkeypatch.setattr(statistics, "linear_regression", refuse)
    trace = simulate(DividingDynamics.decline(50, 7), 100, 3)
    assert fit_power_law(trace, (8, 100)) == PowerLawFit(0.0, math.log(trace.total[-1]), (8, 100), 0.0)


def test_window_with_equal_ends_but_not_flat_is_regressed(monkeypatch):
    # hand-built and not monotone: the first and last totals agree, the middle one does not
    calls = []
    regression = statistics.linear_regression

    def record(xs, ys):
        calls.append(len(xs))
        return regression(xs, ys)

    monkeypatch.setattr(statistics, "linear_regression", record)
    trace = GrowthTrace(DividingDynamics.linear(), 0, (1, 5, 9, 5))
    fit = fit_power_law(trace, (2, 4))
    assert calls == [3]
    assert fit.residual > 0
    for got, want in zip((fit.exponent, fit.offset, fit.residual), normal_equations_fit(trace, 2, 4)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize(
    "totals",
    [(float("nan"),) * 3, (float("nan"), float("nan"), float("nan"))],
    ids=["one_nan_object", "distinct_nans"],
)
def test_a_window_of_nan_is_not_flat(totals):
    # tuple.count matches by identity before ==, so one repeated nan object once read as flat
    fit = fit_power_law(GrowthTrace(DividingDynamics.linear(), 0, totals), (1, 3))
    assert all(math.isnan(value) for value in (fit.exponent, fit.offset, fit.residual))


def test_histogram_linear_base10_gaps():
    trace = simulate(DividingDynamics.linear(), 10_000)
    hist = digit_histogram(trace, 10)
    assert all(hist.counts[d] == 0 for d in (2, 4, 7, 9))
    assert all(hist.counts[d] > 0 for d in (0, 1, 3, 5, 6, 8))
    assert sum(hist.counts.values()) == 10_000


def test_histogram_linear_base8_no_gaps():
    trace = simulate(DividingDynamics.linear(), 10_000)
    hist = digit_histogram(trace, 8)
    assert all(hist.counts[d] > 0 for d in range(8))


def test_histogram_constant_ten_all_on_zero_digit():
    trace = simulate(DividingDynamics.constant(10), 100)
    hist = digit_histogram(trace, 10)
    assert hist.counts[0] == 100
    assert sum(hist.counts.values()) == 100


@pytest.mark.parametrize("base", [3, 4, 8, 10, 16])
def test_histogram_support_within_reachable(base):
    trace = simulate(DividingDynamics.linear(), 5000)
    support = {d for d, c in digit_histogram(trace, base).counts.items() if c}
    assert support <= residue_profile(base).reachable


def test_parse_dynamics():
    assert parse_dynamics("linear") == DividingDynamics.linear()
    assert parse_dynamics("constant:3") == DividingDynamics.constant(3)
    assert parse_dynamics("decline:5,1") == DividingDynamics.decline(5, 1)
    # as ``tri 007`` echoes n = 7, a spec's numbers are read as plain decimals
    assert parse_dynamics("constant:07").describe() == "constant:7"
    assert parse_dynamics("decline:010,02").describe() == "decline:10,2"
    # int() takes the last six, whose describe() would not echo the input
    for bad in ["", "linear:1", "linear:", "constant", "constant:", "constant:0", "constant:x",
                "decline:5", "decline:5,1,2", "decline:a,b", "exp:2", "constant:1_0", "constant: 7 ",
                "constant:+7", "constant:\u0667", "decline:1_0,1", "decline:5, 1"]:
        with pytest.raises(ValueError, match="^malformed dynamics spec"):
            parse_dynamics(bad)


def test_describe_round_trips():
    for dynamics in [
        DividingDynamics.linear(),
        DividingDynamics.constant(9),
        DividingDynamics.decline(12, 3),
    ]:
        assert parse_dynamics(dynamics.describe()) == dynamics


def test_dynamics_validation():
    with pytest.raises(ValueError):
        DividingDynamics.constant(0)
    with pytest.raises(ValueError):
        DividingDynamics.decline(0, 1)
    with pytest.raises(ValueError):
        DividingDynamics.decline(5, 0)
    with pytest.raises(ValueError):
        DividingDynamics(kind="bogus")
    with pytest.raises(ValueError):
        simulate(DividingDynamics.linear(), 0)
    with pytest.raises(ValueError):
        simulate(DividingDynamics.linear(), 5, initial_total=-1)


@pytest.mark.parametrize("base", [7, 10, 64, 255])
@pytest.mark.parametrize("horizon", [1, 17, 4097])
def test_linear_histogram_counts_the_first_triangular_numbers(base, horizon):
    # linear dynamics from 0 total T(1), ..., T(horizon), the sample empirical_frequencies counts
    trace = simulate(DividingDynamics.linear(), horizon)
    assert digit_histogram(trace, base).counts == empirical_frequencies(base, horizon).counts
