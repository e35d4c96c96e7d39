"""Terminal entry point: every analysis as a subcommand.

Identical invocations produce byte-identical output. Tables are plain
ASCII; ``--format json`` emits a single well-formed document instead.
Exact rationals are always printed as ``p/q`` in lowest terms.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from fractions import Fraction

from . import __version__
from .core import parse_natural, to_digits, tri_exact, validate_base
from .growth import digit_histogram, fit_power_law, parse_dynamics, simulate
from .prover import enumerate_cases, render_transcript
from .residues import DEFAULT_SAMPLE_SIZE, classify_base, empirical_frequencies, residue_profile

# What a subcommand computes: its table lines and a builder of its
# ``--format json`` document (None without --format). Only main prints.
_Output = tuple[list[str], Callable[[], object] | None]


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _digit_set(digits) -> str:
    return "{" + ",".join(str(d) for d in digits) + "}"


def _seq_line(values) -> str:
    if len(values) <= 24:
        return " ".join(str(v) for v in values)
    head = " ".join(str(v) for v in values[:5])
    return f"{head} ... {values[-1]}"


def _parse_bases(text: str) -> list[int]:
    """Inclusive ranges ``a..b`` and single bases, comma-separated."""
    bases: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        lo_text, sep, hi_text = token.partition("..")
        try:
            if sep:
                lo, hi = int(lo_text), int(hi_text)
            else:
                lo = hi = int(token)
        except ValueError:
            raise ValueError(f"invalid base range {token!r}") from None
        if lo > hi:
            raise ValueError(f"empty base range {token!r}")
        for base in range(lo, hi + 1):
            bases.add(validate_base(base))
    return sorted(bases)


def cmd_tri(args: argparse.Namespace) -> _Output:
    value = tri_exact(parse_natural(args.n))
    # Convert first: an invalid base fails before the decimal value is built.
    digits = None if args.base is None else to_digits(value, args.base)
    # args.n is validated decimal text, so stripping its leading zeros
    # echoes n without converting it back from binary.
    lines = [f"n = {args.n.lstrip('0') or '0'}", f"value = {value}"]
    if digits is not None:
        lines += [f"digits (base {args.base}) = {digits}", f"units digit = {digits.units_digit}"]
    return lines, None


def cmd_residues(args: argparse.Namespace) -> _Output:
    profile = residue_profile(args.base)
    reachable = sorted(profile.reachable)
    lines = [
        f"base = {profile.base}",
        f"period = {profile.period}",
        f"{'digit':>5}  {'exact':>7}  approx",
    ]
    lines += [f"{d:>5}  {_frac(f):>7}  {float(f):.6f}" for d, f in profile.frequency.items()]
    lines.append(f"reachable: {_digit_set(reachable)}")
    lines.append(f"missing: {_digit_set(profile.missing_digits)}")
    return lines, lambda: {
        "base": profile.base,
        "period": profile.period,
        "reachable": reachable,
        "frequencies": [
            {"digit": d, "exact": _frac(f), "approx": float(f)}
            for d, f in profile.frequency.items()
        ],
    }


def cmd_classify(args: argparse.Namespace) -> _Output:
    profiles = [classify_base(base) for base in _parse_bases(args.bases)]
    lines = [f"{'base':>4}  gappy  missing"]
    for p in profiles:
        flag = "yes" if p.gappy else "no"
        lines.append(f"{p.base:>4}  {flag:<5}  {_digit_set(p.missing_digits)}")
    return lines, lambda: [
        {"base": p.base, "gappy": p.gappy, "missing": list(p.missing_digits)} for p in profiles
    ]


def cmd_prove(args: argparse.Namespace) -> _Output:
    return render_transcript(enumerate_cases(args.base)).splitlines(), None


def cmd_freq(args: argparse.Namespace) -> _Output:
    empirical = empirical_frequencies(args.base, args.count)
    rows = []
    for d, exact in residue_profile(args.base).frequency.items():
        proportion = empirical.proportion(d)
        rows.append((d, empirical.counts[d], proportion, exact, abs(proportion - exact)))
    max_deviation = max(dev for *_, dev in rows)
    lines = [
        f"base = {args.base}",
        f"count = {args.count}",
        f"{'digit':>5}  {'count':>9}  proportion  {'exact':>7}  {'approx':>8}  deviation",
    ]
    for d, count, proportion, exact, dev in rows:
        lines.append(
            f"{d:>5}  {count:>9}  {float(proportion):>10.6f}  "
            f"{_frac(exact):>7}  {float(exact):>8.6f}  {float(dev):.6f}"
        )
    lines.append(f"max deviation = {float(max_deviation):.6f}")
    return lines, lambda: {
        "base": args.base,
        "count": args.count,
        "digits": [
            {
                "digit": d,
                "count": count,
                "proportion": float(proportion),
                "exact": _frac(exact),
                "approx": float(exact),
                "deviation": float(dev),
            }
            for d, count, proportion, exact, dev in rows
        ],
        "max_deviation": float(max_deviation),
    }


def cmd_simulate(args: argparse.Namespace) -> _Output:
    dynamics = parse_dynamics(args.dynamics)
    trace = simulate(dynamics, args.steps, args.initial)
    lines = [
        f"dynamics = {dynamics.describe()}",
        f"steps = {trace.horizon}",
        f"initial = {trace.initial_total}",
        f"dividing = {_seq_line(trace.dividing)}",
        f"totals = {_seq_line(trace.total)}",
        f"final total = {trace.total[-1]}",
    ]
    # rest: the document's fields after the totals
    try:
        fit = fit_power_law(trace)
    except ValueError as exc:
        lines.append(f"fit = unavailable ({exc})")
        rest = {"fit": None}
    else:
        lines += [
            f"fit window = [{fit.window[0]}, {fit.window[1]}]",
            f"fit exponent = {fit.exponent:.6f}",
            f"fit offset = {fit.offset:.6f}",
            f"fit residual = {fit.residual:.6f}",
        ]
        rest = {
            "fit": {
                "exponent": fit.exponent,
                "offset": fit.offset,
                "residual": fit.residual,
                "window": list(fit.window),
            },
        }
    if args.base is not None:
        histogram = digit_histogram(trace, args.base)
        digits = range(histogram.base)
        lines += [f"units digit counts (base {histogram.base}):", f"{'digit':>5}  count"]
        lines += [f"{d:>5}  {histogram.counts[d]}" for d in digits]
        rest["histogram"] = {
            "base": histogram.base,
            "counts": [{"digit": d, "count": histogram.counts[d]} for d in digits],
        }
    # Only --format json prints every total, so only it converts them.
    return lines, lambda: {
        "dynamics": dynamics.describe(),
        "steps": trace.horizon,
        "initial": trace.initial_total,
        "total": [str(v) for v in trace.total],
        **rest,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridigits",
        description="Triangular numbers and the structure of their units digits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tri", help="triangular number for an index n")
    p.add_argument("n", help="index as a decimal string (any length)")
    p.add_argument("--base", type=int, help="also show base-L digits and units digit")
    p.set_defaults(func=cmd_tri)

    p = sub.add_parser("residues", help="exact units-digit profile of one base")
    p.add_argument("--base", type=int, required=True)
    p.set_defaults(func=cmd_residues)

    p = sub.add_parser("classify", help="gappy/non-gappy classification of bases")
    p.add_argument("--bases", required=True, help="e.g. 10, 3..16, or 4,8,16")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("prove", help="case-enumeration proof transcript for one base")
    p.add_argument("--base", type=int, required=True)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("freq", help="empirical units-digit counts vs exact frequencies")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--count", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("simulate", help="cumulative-sum growth trace and power-law fit")
    p.add_argument("--dynamics", required=True, help="linear | constant:c | decline:D,a")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--base", type=int, help="also show units-digit histogram of totals")
    p.add_argument("--initial", type=int, default=0, help="starting total (default 0)")
    p.set_defaults(func=cmd_simulate)

    for name in ("residues", "classify", "freq", "simulate"):
        sub.choices[name].add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Lift the int<->str conversion cap (Python 3.11+) for this call only,
    # so decimal input of unbounded length is accepted and huge values print.
    capped = hasattr(sys, "set_int_max_str_digits")
    if capped:
        old_cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        lines, doc = args.func(args)
        print(json.dumps(doc(), indent=2) if doc and args.format == "json" else "\n".join(lines))
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
        if capped:
            sys.set_int_max_str_digits(old_cap)


if __name__ == "__main__":
    sys.exit(main())
