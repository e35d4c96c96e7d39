"""Stdlib-only oracles for every benchmark job.

Each ``check_*`` function returns ``None`` when a job's output is right and
a one-line description of the first problem otherwise. None of them calls
into ``tridigits``: triangular values come from ``n(n+1)//2``, units digits
from a direct ``t(t+1)//2 % L`` window, Pascal entries from ``math.comb``
and growth totals from closed forms. Checks on long digit strings are cheap
on purpose (digit count, low and high digits, digit sums mod L-1 and L+1);
a full re-conversion would cost as much as the job it checks.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from array import array
from collections import Counter
from fractions import Fraction

_LOW_DIGITS = 8
_DECIMAL = bytes.maketrans(b"0123456789", bytes(range(10)))
_ALNUM = bytes.maketrans(b"0123456789abcdefghijklmnopqrstuvwxyz", bytes(range(36)))


def tri(n: int) -> int:
    return n * (n + 1) // 2


def window(base: int) -> list[int]:
    """Units digits of T(t) in ``base`` for t in [0, 2*base), by direct evaluation."""
    return [tri(t) % base for t in range(2 * base)]


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _digit_set(digits) -> str:
    return "{" + ",".join(str(d) for d in digits) + "}"


def _expect_lines(out: str, expected: list[str]) -> str | None:
    got = out.split("\n")
    want = expected + [""]
    if len(got) != len(want):
        return f"expected {len(expected)} lines, got {len(got) - 1}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i + 1}: expected {w[:60]!r}, got {g[:60]!r}"
    return None


def digit_problem(value: int, base: int, digits) -> str | None:
    """Check that ``digits`` (most significant first) spell ``value`` in ``base``."""
    k = len(digits)
    if k == 0:
        return "no digits"
    if min(digits) < 0 or max(digits) >= base:
        return f"digit out of range for base {base}"
    if value == 0:
        return None if k == 1 else "zero must be the single digit 0"
    if digits[0] == 0:
        return "leading zero"
    low_power = base ** (k - 1)
    if not low_power <= value < low_power * base:
        return f"{k} digits cannot spell a value with this many base-{base} digits"
    m = min(k, _LOW_DIGITS)
    if _from_digits(digits[k - m:], base) != value % base**m:
        return "low digits differ"
    if _from_digits(digits[:m], base) != value // base ** (k - m):
        return "high digits differ"
    # L = 1 mod L-1 and L = -1 mod L+1: the two sums catch any single wrong digit.
    if base > 2 and sum(digits) % (base - 1) != value % (base - 1):
        return f"digit sum differs mod {base - 1}"
    alternating = sum(digits[k - 1::-2]) - sum(digits[k - 2::-2]) if k > 1 else digits[0]
    if alternating % (base + 1) != value % (base + 1):
        return f"alternating digit sum differs mod {base + 1}"
    return None


def _from_digits(digits, base: int) -> int:
    value = 0
    for d in digits:
        value = value * base + d
    return value


def parse_rendered_digits(text: str, base: int):
    """Digits of a rendered DigitString: 0-9a-z up to base 36, else ``d:d:...``."""
    if base <= 36:
        return text.encode("ascii").translate(_ALNUM)
    return [int(part) for part in text.split(":")]


def _residue_facts(base: int):
    w = window(base)
    counts = Counter(w)
    span = 2 * base
    period = next(
        p for p in range(1, span + 1)
        if span % p == 0 and all(w[i] == w[(i + p) % span] for i in range(span))
    )
    frequency = [Fraction(counts[d], span) for d in range(base)]
    reachable = sorted(counts)
    missing = [d for d in range(base) if d not in counts]
    return period, frequency, reachable, missing


def _freq_counts(base: int, count: int) -> list[int]:
    # T(n) mod L has period 2L in n, so counts over n in [1, count] come from
    # whole windows plus a prefix; T(0) = 0 is in the window but not counted.
    w = window(base)
    full, rest = divmod(count + 1, 2 * base)
    counts = [0] * base
    for t, r in enumerate(w):
        counts[r] += full + (t < rest)
    counts[0] -= 1
    return counts


# ---------------------------------------------------------------- big_index


def check_tri_output(n_text: str, base: int, out: str) -> str | None:
    value = tri(int(n_text))
    lines = out.split("\n")
    if len(lines) != 5 or lines[4] != "":
        return f"expected 4 lines, got {len(lines) - 1}"
    if lines[0] != f"n = {n_text}":
        return "n line differs"
    head, sep, decimal = lines[1].partition(" = ")
    if head != "value" or not sep:
        return "missing value line"
    problem = digit_problem(value, 10, decimal.encode("ascii").translate(_DECIMAL))
    if problem:
        return f"value: {problem}"
    prefix = f"digits (base {base}) = "
    if not lines[2].startswith(prefix):
        return "missing digits line"
    problem = digit_problem(value, base, parse_rendered_digits(lines[2][len(prefix):], base))
    if problem:
        return f"digits: {problem}"
    if lines[3] != f"units digit = {value % base}":
        return "units digit line differs"
    return None


def check_to_digits(n: int, base: int, result) -> str | None:
    if result.base != base:
        return f"base {result.base} != {base}"
    return digit_problem(tri(n), base, result.digits)


def check_tri_mod(n: int, base: int, result) -> str | None:
    expected = tri(n) % base
    return None if result == expected else f"tri_mod gave {result}, expected {expected}"


def check_rejected(rc: int, out: str, err: str) -> str | None:
    """Malformed requests exit 2 with one ``error:`` line and no traceback."""
    if rc != 2:
        return f"exit code {rc}, expected 2"
    if "Traceback" in err:
        return "traceback on stderr"
    error_lines = [line for line in err.splitlines() if "error:" in line]
    if len(error_lines) != 1:
        return f"{len(error_lines)} error: lines on stderr, expected 1"
    return None


# ------------------------------------------------------------- digit_census


def check_residues(base: int, fmt: str, out: str) -> str | None:
    period, frequency, reachable, missing = _residue_facts(base)
    if fmt == "json":
        expected = {
            "base": base,
            "period": period,
            "reachable": reachable,
            "frequencies": [
                {"digit": d, "exact": _frac(f), "approx": float(f)}
                for d, f in enumerate(frequency)
            ],
        }
        return None if json.loads(out) == expected else "json document differs"
    lines = [f"base = {base}", f"period = {period}", f"{'digit':>5}  {'exact':>7}  approx"]
    lines += [f"{d:>5}  {_frac(f):>7}  {float(f):.6f}" for d, f in enumerate(frequency)]
    lines += [f"reachable: {_digit_set(reachable)}", f"missing: {_digit_set(missing)}"]
    return _expect_lines(out, lines)


def check_classify(lo: int, hi: int, fmt: str, out: str) -> str | None:
    rows = []
    for base in range(lo, hi + 1):
        reached = set(window(base))
        rows.append((base, [d for d in range(base) if d not in reached]))
    if fmt == "json":
        expected = [{"base": b, "gappy": bool(m), "missing": m} for b, m in rows]
        return None if json.loads(out) == expected else "json document differs"
    lines = [f"{'base':>4}  gappy  missing"]
    lines += [f"{b:>4}  {'yes' if m else 'no':<5}  {_digit_set(m)}" for b, m in rows]
    return _expect_lines(out, lines)


def expected_cases(base: int) -> list[tuple[int, int, str, int]]:
    """(base, i, parity, j) per congruence case, from the k = 0 and k = 1 windows."""
    w = window(base)
    cases = []
    for i in range(base):
        even, odd = w[i], w[base + i]
        if even == odd:
            cases.append((base, i, "any", even))
        else:
            cases += [(base, i, "even", even), (base, i, "odd", odd)]
    return cases


def check_prove(base: int, out: str) -> str | None:
    tags = {"any": "all k", "even": "k even", "odd": "k odd"}
    cases = expected_cases(base)
    reached = {j for *_, j in cases}
    lines = [f"base={base}"]
    lines += [f"S_{{{base}k+{i}}} == {j} (mod {base}) [{tags[p]}]" for _, i, p, j in cases]
    lines.append(f"missing: {_digit_set(d for d in range(base) if d not in reached)}")
    return _expect_lines(out, lines)


def check_freq(base: int, count: int, fmt: str, out: str) -> str | None:
    _, frequency, _, _ = _residue_facts(base)
    rows = []
    for d, c in enumerate(_freq_counts(base, count)):
        proportion = Fraction(c, count)
        rows.append((d, c, proportion, frequency[d], abs(proportion - frequency[d])))
    max_dev = max(row[4] for row in rows)
    if fmt == "json":
        expected = {
            "base": base,
            "count": count,
            "digits": [
                {"digit": d, "count": c, "proportion": float(p), "exact": _frac(e),
                 "approx": float(e), "deviation": float(dev)}
                for d, c, p, e, dev in rows
            ],
            "max_deviation": float(max_dev),
        }
        return None if json.loads(out) == expected else "json document differs"
    lines = [f"base = {base}", f"count = {count}",
             f"{'digit':>5}  {'count':>9}  proportion  {'exact':>7}  {'approx':>8}  deviation"]
    lines += [
        f"{d:>5}  {c:>9}  {float(p):>10.6f}  {_frac(e):>7}  {float(e):>8.6f}  {float(dev):.6f}"
        for d, c, p, e, dev in rows
    ]
    lines.append(f"max deviation = {float(max_dev):.6f}")
    return _expect_lines(out, lines)


def check_residue_profile(base: int, profile) -> str | None:
    period, frequency, reachable, _ = _residue_facts(base)
    if profile.base != base or profile.period != period:
        return f"base/period {profile.base}/{profile.period}, expected {base}/{period}"
    if profile.reachable != frozenset(reachable):
        return "reachable set differs"
    if profile.frequency != dict(enumerate(frequency)):
        return "frequencies differ"
    return None


def check_prove_verify(base: int, result) -> str | None:
    transcript, verified = result
    cases = expected_cases(base)
    got = [(c.base, c.input_digit, c.k_parity, c.output_digit) for c in transcript.cases]
    if got != cases:
        return "cases differ"
    reached = {j for *_, j in cases}
    if transcript.derived_reachable != frozenset(reached):
        return "derived reachable set differs"
    if transcript.derived_missing != tuple(d for d in range(base) if d not in reached):
        return "derived missing digits differ"
    if len(verified) != len(cases) or not all(verified):
        return "verify_case rejected a true case"
    return None


def check_sweep(max_base: int, result) -> str | None:
    expected = [(b, len(set(window(b))) < b) for b in range(2, max_base + 1)]
    return None if result == expected else "sweep differs"


# ------------------------------------------------------------ growth_curves


class Totals:
    """Closed forms for the dividing counts d(t) and totals N(t) of one dynamics spec."""

    def __init__(self, spec: str, initial: int):
        kind, _, params = spec.partition(":")
        self.plateau = None  # for decline, the last step with a positive count
        if kind == "linear":
            self.dividing = lambda t: t
            self._unclamped = lambda t: initial + t * (t + 1) // 2
        elif kind == "constant":
            level = int(params)
            self.dividing = lambda t: level
            self._unclamped = lambda t: initial + level * t
        else:
            start, slope = (int(x) for x in params.split(","))
            self.plateau = (start - 1) // slope
            self.dividing = lambda t: max(start - slope * t, 0)
            self._unclamped = lambda t: initial + t * start - slope * (t * (t + 1) // 2)

    def total(self, t: int) -> int:
        return self._unclamped(t if self.plateau is None else min(t, self.plateau))

    def totals(self, lo: int, hi: int):
        """N(lo) .. N(hi), one at a time."""
        top = hi if self.plateau is None else max(lo - 1, min(hi, self.plateau))
        return itertools.chain(map(self._unclamped, range(lo, top + 1)),
                               itertools.repeat(self.total(hi), hi - top))

    def histogram(self, steps: int, base: int) -> list[int]:
        """Units-digit counts of N(1..steps). Before any plateau N(t) mod L has
        period 2L in t, so whole periods are counted once and multiplied."""
        stop = steps if self.plateau is None else min(steps, self.plateau)
        full, rest = divmod(stop, 2 * base)
        counts = [0] * base
        for t in range(1, 2 * base + 1):
            counts[self._unclamped(t) % base] += full + (t <= rest)
        counts[self.total(stop) % base] += steps - stop
        return counts

    def fit(self, steps: int) -> tuple[float, float, float, tuple[int, int]]:
        """Least squares through (log t, log N(t)) on [steps//2, steps], normal equations."""
        lo, hi = max(1, steps // 2), steps
        # Packed arrays and generators: the check holds less than the fit it checks.
        xs = array("d", map(math.log, range(lo, hi + 1)))
        ys = array("d", map(math.log, self.totals(lo, hi)))
        n = len(xs)
        sx, sy = math.fsum(xs), math.fsum(ys)
        sxx = math.fsum(map(operator.mul, xs, xs))
        sxy = math.fsum(map(operator.mul, xs, ys))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        offset = (sy - slope * sx) / n
        residual = math.sqrt(math.fsum((y - slope * x - offset) ** 2 for x, y in zip(xs, ys)) / n)
        return slope, offset, residual, (lo, hi)

    def totals_problem(self, steps: int, dividing, totals) -> str | None:
        if _differ(totals, self.totals(1, steps)):
            return "totals differ"
        if dividing is not None and _differ(dividing, map(self.dividing, range(1, steps + 1))):
            return "dividing counts differ"
        return None


def _differ(got, want) -> bool:
    """Whether two iterables differ in an item or in length, walking both once."""
    pairs = itertools.zip_longest(got, want, fillvalue=object())
    return any(itertools.starmap(operator.ne, pairs))


_TOTALS_KEY = re.compile(r'"total"\s*:\s*\[')
# Possessive quantifiers: no backtracking state is kept per item.
_DIGIT_STRING_ARRAY = re.compile(r'\s*+(?:"\d++"(?:\s*+,\s*+"\d++")*+\s*+)?+')
_DIGIT_STRING = re.compile(r'"(\d+)"')


def _digit_strings(text: str, pos: int, endpos: int):
    """The digit strings in ``text[pos:endpos]``, as ints, one at a time."""
    return map(int, map(operator.itemgetter(1), _DIGIT_STRING.finditer(text, pos, endpos)))


def _seq_line(f, steps: int) -> str:
    # The CLI prints every value of a short sequence, else the first five and the last.
    if steps <= 24:
        return " ".join(str(f(t)) for t in range(1, steps + 1))
    return " ".join(str(f(t)) for t in range(1, 6)) + f" ... {f(steps)}"


def _fit_close(got: float, want: float, tolerance: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=tolerance)


def check_simulate(spec: str, steps: int, initial: int, base: int | None, fmt: str, out: str) -> str | None:
    model = Totals(spec, initial)
    exponent, offset, residual, fit_window = model.fit(steps)
    histogram = model.histogram(steps, base) if base is not None else None
    if fmt == "json":
        # The totals are read in place, one at a time, so the check never holds
        # more than the output itself: peak memory stays the program's.
        start = _TOTALS_KEY.search(out).end()
        end = out.index("]", start)
        doc = json.loads(out[:start] + out[end:])
        if (doc.get("dynamics"), doc.get("steps"), doc.get("initial")) != (spec, steps, initial):
            return "header fields differ"
        if not _DIGIT_STRING_ARRAY.fullmatch(out, start, end):
            return "totals are not an array of digit strings"
        problem = model.totals_problem(steps, None, _digit_strings(out, start, end))
        if problem:
            return problem
        fit = doc["fit"]
        if fit["window"] != list(fit_window):
            return "fit window differs"
        for key, want in (("exponent", exponent), ("offset", offset), ("residual", residual)):
            if not _fit_close(fit[key], want, 1e-9):
                return f"fit {key} {fit[key]} != {want}"
        if base is None:
            return None if "histogram" not in doc else "unexpected histogram"
        expected = {"base": base, "counts": [{"digit": d, "count": c} for d, c in enumerate(histogram)]}
        return None if doc.get("histogram") == expected else "histogram differs"
    lines = [
        f"dynamics = {spec}",
        f"steps = {steps}",
        f"initial = {initial}",
        f"dividing = {_seq_line(model.dividing, steps)}",
        f"totals = {_seq_line(model.total, steps)}",
        f"final total = {model.total(steps)}",
        f"fit window = [{fit_window[0]}, {fit_window[1]}]",
    ]
    got = out.split("\n")
    fit_lines = got[7:10]
    got[7:10] = []
    if base is not None:
        lines += [f"units digit counts (base {base}):", f"{'digit':>5}  count"]
        lines += [f"{d:>5}  {c}" for d, c in enumerate(histogram)]
    problem = _expect_lines("\n".join(got), lines)
    if problem:
        return problem
    for line, (key, want) in zip(fit_lines, (("exponent", exponent), ("offset", offset), ("residual", residual))):
        label, _, value = line.partition(" = ")
        # Printed to six decimals: allow the rounding plus a little.
        if label != f"fit {key}" or not _fit_close(float(value), want, 1.5e-6):
            return f"fit {key} line {line!r} != {want:.6f}"
    return None


def check_growth_chain(spec: str, steps: int, initial: int, base: int, result) -> str | None:
    trace, fit, histogram = result
    model = Totals(spec, initial)
    if (trace.horizon, trace.initial_total) != (steps, initial):
        return "trace header differs"
    problem = model.totals_problem(steps, trace.dividing, trace.total)
    if problem:
        return problem
    exponent, offset, residual, fit_window = model.fit(steps)
    if fit.window != fit_window:
        return "fit window differs"
    for key, want in (("exponent", exponent), ("offset", offset), ("residual", residual)):
        if not _fit_close(getattr(fit, key), want, 1e-9):
            return f"fit {key} {getattr(fit, key)} != {want}"
    if (histogram.base, histogram.sample_size) != (base, steps):
        return "histogram header differs"
    if histogram.counts != dict(enumerate(model.histogram(steps, base))):
        return "histogram counts differ"
    return None


def check_diagonal(count: int, result) -> str | None:
    expected = [math.comb(t + 1, 2) for t in range(1, count + 1)]
    return None if result == expected else "diagonal differs from C(t+1, 2)"


def check_pascal_row(n: int, result) -> str | None:
    if result.index != n:
        return f"row index {result.index} != {n}"
    expected = tuple(math.comb(n, k) for k in range(n + 1))
    return None if result.coefficients == expected else "row differs from C(n, k)"
