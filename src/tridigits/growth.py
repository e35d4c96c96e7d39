"""Discrete growth driven by a dividing-cell count and its running sum.

At each step t = 1, 2, ... some number d(t) of cells divides; the total
population is the cumulative sum N(t) = N0 + d(1) + ... + d(t). When
d(t) grows linearly the totals are exactly the triangular numbers, so
the totals inherit all the units-digit structure of that sequence, and
their long-run shape is a power law with exponent approaching 2.
"""

from __future__ import annotations

import math
import operator
import statistics
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat

from .core import parse_natural, validate_natural
from .residues import EmpiricalFrequencies

__all__ = [
    "DividingDynamics", "GrowthTrace", "PowerLawFit", "simulate", "fit_power_law",
    "digit_histogram", "default_window", "parse_dynamics",
]

LINEAR = "linear"
CONSTANT = "constant"
DECLINE = "decline"
# The parameters each kind reads; the ones it does not read must stay 0.
_PARAMETERS = {LINEAR: (), CONSTANT: ("level",), DECLINE: ("start", "slope")}


@dataclass(frozen=True)
class DividingDynamics:
    """How many cells divide at step t.

    linear:   d(t) = t
    constant: d(t) = level
    decline:  d(t) = max(start - slope*t, 0), clamped so the count
              never goes negative
    """

    kind: str
    level: int = 0
    start: int = 0
    slope: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _PARAMETERS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}")
        for name in ("level", "start", "slope"):
            value = getattr(self, name)
            used = name in _PARAMETERS[self.kind]
            validate_natural(value, f"{self.kind} {name}", 1 if used else 0)
            if value and not used:
                raise ValueError(f"{self.kind} dynamics take no {name}, got {value}")

    @classmethod
    def linear(cls) -> "DividingDynamics":
        return cls(kind=LINEAR)

    @classmethod
    def constant(cls, level: int) -> "DividingDynamics":
        return cls(kind=CONSTANT, level=level)

    @classmethod
    def decline(cls, start: int, slope: int = 1) -> "DividingDynamics":
        return cls(kind=DECLINE, start=start, slope=slope)

    def dividing_at(self, t: int) -> int:
        validate_natural(t, "t", 1)
        if self.kind == LINEAR:
            return t
        if self.kind == CONSTANT:
            return self.level
        return max(self.start - self.slope * t, 0)

    def dividing_counts(self, horizon: int) -> Iterable[int]:
        """d(1) .. d(horizon) from C-level iterators; dividing_at is their oracle."""
        validate_natural(horizon, "horizon")
        if self.kind == DECLINE:
            return islice(chain(range(self.start - self.slope, 0, -self.slope), repeat(0)), horizon)
        return range(1, horizon + 1) if self.kind == LINEAR else repeat(self.level, horizon)

    def describe(self) -> str:
        values = ",".join(str(getattr(self, name)) for name in _PARAMETERS[self.kind])
        return f"{self.kind}:{values}" if values else self.kind


def parse_dynamics(text: str) -> DividingDynamics:
    """Parse ``linear``, ``constant:c``, or ``decline:D,a``."""
    if type(text) is not str:
        raise TypeError(f"dynamics spec must be a str, got {type(text).__name__}")
    kind, sep, params = text.partition(":")
    names = _PARAMETERS.get(kind)
    values = params.split(",") if sep else []
    try:
        if names is not None and len(values) == len(names):
            return DividingDynamics(kind, **{n: parse_natural(v) for n, v in zip(names, values)})
    except ValueError as exc:
        raise ValueError(f"malformed dynamics spec {text!r}: {exc}") from None
    raise ValueError(f"malformed dynamics spec {text!r}")


@dataclass(frozen=True)
class GrowthTrace:
    """The totals N(1) .. N(T); the horizon and dividing counts are derived."""

    dynamics: DividingDynamics
    initial_total: int
    total: tuple[int, ...]  # N(1) .. N(T)

    def __post_init__(self) -> None:
        validate_natural(self.initial_total, "initial_total")
        if not self.total:
            raise ValueError("a trace needs at least one total")

    @property
    def horizon(self) -> int:
        return len(self.total)

    @property
    def dividing(self) -> tuple[int, ...]:
        """d(1) .. d(T), the successive differences of N0, N(1) .. N(T), on each read."""
        return tuple(map(operator.sub, self.total, chain((self.initial_total,), self.total)))

    def total_at(self, t: int) -> int:
        validate_natural(t, "t")
        if t < 1 or t > self.horizon:
            raise ValueError(f"t must be in [1, {self.horizon}], got {t}")
        return self.total[t - 1]


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    offset: float
    window: tuple[int, int]
    residual: float  # RMS error in log-log space


def simulate(dynamics: DividingDynamics, horizon: int, initial_total: int = 0) -> GrowthTrace:
    """Run the dynamics for ``horizon`` steps, accumulating totals exactly."""
    validate_natural(horizon, "horizon", 1)
    validate_natural(initial_total, "initial_total")
    running = accumulate(dynamics.dividing_counts(horizon), initial=initial_total)
    return GrowthTrace(dynamics, initial_total, tuple(islice(running, 1, None)))


# log(1) .. log(len(_LOG_T)), the xs of every fit; grown on demand up to _LOG_T_LIMIT
# entries (2 MiB), so the process keeps no more than that for later fits.
_LOG_T = array("d")
_LOG_T_LIMIT = 1 << 18


def _log_t(lo: int, hi: int) -> array:
    """log(lo) .. log(hi) as floats, the same math.log of the same ints in every case."""
    if hi > _LOG_T_LIMIT:
        return array("d", map(math.log, range(lo, hi + 1)))
    if hi > len(_LOG_T):
        _LOG_T.extend(map(math.log, range(len(_LOG_T) + 1, hi + 1)))
    return _LOG_T[lo - 1 : hi]


def default_window(trace: GrowthTrace) -> tuple[int, int]:
    """Upper half of the trace, where asymptotic behavior dominates."""
    return (max(1, trace.horizon // 2), trace.horizon)


def fit_power_law(trace: GrowthTrace, window: tuple[int, int] | None = None) -> PowerLawFit:
    """Least-squares line through (log t, log N(t)) over the window.

    The slope is the power-law exponent. Every total in the window must
    be positive, and the window needs at least two points for a slope
    to exist. math.log is used directly on the integer totals, so
    arbitrarily large populations fit without overflow. A flat window,
    where every total is the same N, is fitted exactly with no
    regression: exponent 0, offset log N and residual 0. The xs, log t,
    are sliced from a table of log 1 .. log 2**18 that fits fill on
    demand and keep for later fits (at most 2 MiB); a window reaching
    past 2**18 takes its logs per call.
    """
    if window is None:
        window = default_window(trace)
    lo, hi = (validate_natural(bound, "window bound") for bound in window)
    if lo < 1 or hi > trace.horizon or lo > hi:
        raise ValueError(f"window [{lo}, {hi}] not within [1, {trace.horizon}]")
    if hi - lo < 1:
        raise ValueError("window must contain at least two points")
    totals = trace.total[lo - 1 : hi]
    n = totals[0]
    try:  # math.log raises ValueError exactly for a total <= 0
        if n == n and totals.count(n) == len(totals):  # N = N0 * t**0 exactly; nan is never flat
            return PowerLawFit(exponent=0.0, offset=math.log(n), window=(lo, hi), residual=0.0)
        ys = array("d", map(math.log, totals))
    except ValueError:
        t = next(t for t, value in enumerate(totals, lo) if value <= 0)
        raise ValueError(f"total at t={t} is not positive; cannot take its log") from None
    xs = _log_t(lo, hi)
    slope, intercept = statistics.linear_regression(xs, ys)
    squares = ((r := y - (slope * x + intercept)) * r for x, y in zip(xs, ys))
    residual = math.sqrt(math.fsum(squares) / len(xs))
    return PowerLawFit(exponent=slope, offset=intercept, window=(lo, hi), residual=residual)


def digit_histogram(trace: GrowthTrace, base: int) -> EmpiricalFrequencies:
    """Units-digit counts (base L) of the totals N(1) .. N(T)."""
    return EmpiricalFrequencies.tally(base, map(operator.mod, trace.total, repeat(base)))
