"""Terminal entry point: every analysis as a subcommand.

Identical invocations produce byte-identical output. Tables are plain
ASCII; ``--format json`` emits a single well-formed document instead.
Exact rationals are always printed as ``p/q`` in lowest terms.
"""

import argparse
import functools
import os
import sys
from collections.abc import Callable, Iterable, Iterator

from . import __version__
from .core import _natural_text, parse_natural, to_digits, tri_exact, validate_base

# Each handler imports its own layers when it runs, and json only for --format json:
# a call pays for the layers of its subcommand only, and `tri` for core alone.

# What a subcommand computes: its table lines and a builder of its
# ``--format json`` text, in parts (None without --format). Only main prints.
_Output = tuple[list[str], Callable[[], Iterable[str]] | None]
_SLICE = 4096  # simulate's JSON totals are converted to text this many at a time
# simulate's longest horizon. Linear dynamics with --base 10 take 4.0 s (table) or
# 4.7 s (JSON) and 340 MB at this limit on a 2-CPU host with Python 3.11. Totals
# wider than 64 bits shorten it in proportion (cmd_simulate).
_MAX_STEPS = 5_000_000
# The longest decimal text read from argv (tri's index, every integer option, each
# --bases range), checked before the text is read as an int. At this limit
# `tri <n> --base 2` takes 0.6 s as a process on the same host.
_MAX_DIGITS = 100_000


@functools.cache
def _exact():
    """tri prints T(n) from exact decimal arithmetic: libmpdec parses and prints in linear
    time, where str() of a binary int is quadratic. Call only this context's methods;
    Decimal operators would round to the thread's 28-digit context."""
    import decimal
    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           traps=[decimal.Inexact, decimal.Rounded])


def _json_text(doc) -> list[str]:
    """The whole of a subcommand's ``--format json`` text."""
    import json
    return [json.dumps(doc, indent=2)]


def _simulate_json(doc: dict, totals: tuple[int, ...]) -> Iterator[str]:
    """json.dumps({**doc, "total": list(map(str, totals))}, indent=2), in parts."""
    import json
    head, tail = json.dumps(doc, indent=2).split('"total": null', 1)  # before any part is written
    yield f'{head}"total": [\n    "{totals[0]}'
    for i in range(1, len(totals), _SLICE):
        yield '",\n    "'.join(("", *map(str, totals[i : i + _SLICE])))
    yield '"\n  ]' + tail


def _frac(f) -> str:  # an exact Fraction
    return f"{f.numerator}/{f.denominator}"


def _seq_line(value_at: Callable[[int], int], count: int) -> str:
    """value_at(1) .. value_at(count), or the first five and the last of a long run."""
    if count <= 24:
        return " ".join(str(value_at(t)) for t in range(1, count + 1))
    head = " ".join(str(value_at(t)) for t in range(1, 6))
    return f"{head} ... {value_at(count)}"


def _capped(text: str, name: str) -> str:
    """Return ``text`` unchanged after checking it has at most _MAX_DIGITS characters."""
    if len(text) > _MAX_DIGITS:
        raise ValueError(f"{name} must have at most {_MAX_DIGITS} digits, got {len(text)}")
    return text


def _parse_bases(text: str) -> list[int]:
    """Inclusive ranges ``a..b`` and single bases, comma-separated."""
    bases: set[int] = set()
    for token in text.split(","):
        token = _capped(token.strip(), "base range")
        lo_text, sep, hi_text = token.partition("..")
        try:
            lo, hi = parse_natural(lo_text), parse_natural(hi_text if sep else lo_text)
        except ValueError:
            raise ValueError(f"invalid base range {token!r}") from None
        if lo > hi:
            raise ValueError(f"empty base range {token!r}")
        for base in range(lo, hi + 1):
            bases.add(validate_base(base))
    return sorted(bases)


def _option_natural(text: str) -> int:
    """An integer option's value by ``parse_natural``, whose message argparse then reports."""
    try:
        # parse_natural by name at call time, as main finds its handlers
        return parse_natural(_capped(text, "value"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_tri(args: argparse.Namespace) -> _Output:
    # As text: only --base needs a binary int, built before the Decimal.
    _natural_text(_capped(args.n, "n"))
    digits = None if args.base is None else to_digits(tri_exact(parse_natural(args.n)), args.base)
    exact = _exact()
    n = exact.create_decimal(args.n)  # exact: args.n is validated decimal text
    value = exact.divide_int(exact.multiply(n, exact.add(n, 1)), 2)
    lines = [f"n = {n}", f"value = {value}"]  # a Decimal prints without leading zeros
    if digits is not None:
        lines += [f"digits (base {args.base}) = {digits}", f"units digit = {digits.units_digit}"]
    return lines, None


def cmd_residues(args: argparse.Namespace) -> _Output:
    from .residues import _digit_set, residue_profile
    profile = residue_profile(args.base)
    doc = {
        "base": profile.base,
        "period": profile.period,
        "reachable": sorted(profile.reachable),
        "frequencies": [
            {"digit": d, "exact": _frac(f), "approx": float(f)}
            for d, f in profile.frequency.items()
        ],
    }
    lines = [f"{name} = {doc[name]}" for name in ("base", "period")]
    lines.append(f"{'digit':>5}  {'exact':>7}  approx")
    lines += [f"{r['digit']:>5}  {r['exact']:>7}  {r['approx']:.6f}" for r in doc["frequencies"]]
    lines.append(f"reachable: {_digit_set(doc['reachable'])}")
    lines.append(f"missing: {_digit_set(profile.missing_digits)}")
    return lines, lambda: _json_text(doc)


def cmd_classify(args: argparse.Namespace) -> _Output:
    from .residues import _digit_set, classify_base
    doc = [
        {"base": p.base, "gappy": p.gappy, "missing": list(p.missing_digits)}
        for p in map(classify_base, _parse_bases(args.bases))
    ]
    lines = [f"{'base':>4}  gappy  missing"]
    lines += [
        f"{r['base']:>4}  {'yes' if r['gappy'] else 'no':<5}  {_digit_set(r['missing'])}" for r in doc
    ]
    return lines, lambda: _json_text(doc)


def cmd_prove(args: argparse.Namespace) -> _Output:
    from .prover import enumerate_cases, render_transcript
    return render_transcript(enumerate_cases(args.base)).splitlines(), None


def cmd_freq(args: argparse.Namespace) -> _Output:
    from .residues import DEFAULT_SAMPLE_SIZE, empirical_frequencies, residue_profile
    n = DEFAULT_SAMPLE_SIZE if args.count is None else args.count
    empirical = empirical_frequencies(args.base, n)
    rows = []
    # Integer true division is correctly rounded, as Fraction.__float__ is, so these
    # are the floats of the exact proportion, frequency and deviation.
    for d, exact in residue_profile(args.base).frequency.items():
        count, p, q = empirical.counts[d], exact.numerator, exact.denominator
        rows.append({
            "digit": d,
            "count": count,
            "proportion": count / n,
            "exact": _frac(exact),
            "approx": p / q,
            "deviation": abs(count * q - p * n) / (n * q),
        })
    doc = {
        "base": args.base,
        "count": n,
        "digits": rows,
        "max_deviation": max(r["deviation"] for r in rows),
    }
    width = max(9, len(str(max(empirical.counts.values()))))  # the largest count is the widest
    lines = [f"{name} = {doc[name]}" for name in ("base", "count")]
    lines.append(f"{'digit':>5}  {'count':>{width}}  proportion  {'exact':>7}  {'approx':>8}  deviation")
    lines += [
        f"{r['digit']:>5}  {r['count']:>{width}}  {r['proportion']:>10.6f}  "
        f"{r['exact']:>7}  {r['approx']:>8.6f}  {r['deviation']:.6f}"
        for r in rows
    ]
    lines.append(f"max deviation = {doc['max_deviation']:.6f}")
    return lines, lambda: _json_text(doc)


def cmd_simulate(args: argparse.Namespace) -> _Output:
    from .growth import digit_histogram, fit_power_law, parse_dynamics, simulate
    dynamics = parse_dynamics(args.dynamics)
    if args.base is not None:
        validate_base(args.base)  # before the trace, which may be long
    if args.steps > _MAX_STEPS:
        raise ValueError(f"steps must be <= {_MAX_STEPS}, got {args.steps}")
    # A trace holds one total per step, each about as wide as the largest number given.
    bits = max(64, max(args.initial, dynamics.level, dynamics.start).bit_length())
    if args.steps * bits > _MAX_STEPS * 64:
        raise ValueError(f"trace too large: {args.steps} steps of {bits}-bit totals; "
                         f"steps * max(64, bits) must be <= {_MAX_STEPS * 64}")
    trace = simulate(dynamics, args.steps, args.initial)
    # The whole document in order; its totals stay None, as only --format json converts them.
    doc = {"dynamics": dynamics.describe(), "steps": trace.horizon, "initial": trace.initial_total,
           "total": None, "fit": None}
    lines = [f"{name} = {doc[name]}" for name in ("dynamics", "steps", "initial")]
    lines += [
        f"dividing = {_seq_line(dynamics.dividing_at, trace.horizon)}",
        f"totals = {_seq_line(trace.total_at, trace.horizon)}",
        f"final total = {trace.total[-1]}",
    ]
    try:
        fit = fit_power_law(trace)
    except ValueError as exc:
        lines.append(f"fit = unavailable ({exc})")
    else:
        doc["fit"] = {"exponent": fit.exponent, "offset": fit.offset, "residual": fit.residual,
                      "window": list(fit.window)}
        lines.append("fit window = [{}, {}]".format(*fit.window))
        lines += [f"fit {name} = {doc['fit'][name]:.6f}" for name in ("exponent", "offset", "residual")]
    if args.base is not None:
        histogram = digit_histogram(trace, args.base)
        counts = [{"digit": d, "count": histogram.counts[d]} for d in range(histogram.base)]
        doc["histogram"] = {"base": histogram.base, "counts": counts}
        lines += [f"units digit counts (base {histogram.base}):", f"{'digit':>5}  count"]
        lines += [f"{r['digit']:>5}  {r['count']}" for r in counts]
    return lines, lambda: _simulate_json(doc, trace.total)


@functools.cache  # one parser per process: argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridigits",
        description="Triangular numbers and the structure of their units digits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tri", help="triangular number for an index n")
    p.add_argument("n", help="index as a decimal string (any length)")
    p.add_argument("--base", type=_option_natural, help="also show base-L digits and units digit")

    p = sub.add_parser("residues", help="exact units-digit profile of one base")
    p.add_argument("--base", type=_option_natural, required=True)

    p = sub.add_parser("classify", help="gappy/non-gappy classification of bases")
    p.add_argument("--bases", required=True, help="e.g. 10, 3..16, or 4,8,16")

    p = sub.add_parser("prove", help="case-enumeration proof transcript for one base")
    p.add_argument("--base", type=_option_natural, required=True)

    p = sub.add_parser("freq", help="empirical units-digit counts vs exact frequencies")
    p.add_argument("--base", type=_option_natural, required=True)
    p.add_argument("--count", type=_option_natural)  # None: residues' DEFAULT_SAMPLE_SIZE

    p = sub.add_parser("simulate", help="cumulative-sum growth trace and power-law fit")
    p.add_argument("--dynamics", required=True, help="linear | constant:c | decline:D,a")
    p.add_argument("--steps", type=_option_natural, required=True)
    p.add_argument("--base", type=_option_natural, help="also show units-digit histogram of totals")
    p.add_argument("--initial", type=_option_natural, default=0, help="starting total (default 0)")

    for name in ("residues", "classify", "freq", "simulate"):
        sub.choices[name].add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Lift the int<->str conversion cap for this call only: decimals of any length parse and print.
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        # By name at call time, so a handler rebound after the parser was built is used.
        lines, doc = globals()[f"cmd_{args.command}"](args)
        sys.stdout.writelines(doc() if doc and args.format == "json" else ["\n".join(lines)])
        sys.stdout.write("\n")
        sys.stdout.flush()  # here, so a closed pipe is caught below and not at interpreter exit
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Point the descriptor
        # at devnull so the flush at interpreter exit cannot fail again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
    finally:
        sys.set_int_max_str_digits(old_cap)
