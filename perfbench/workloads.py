"""Seeded job generation and execution for the three benchmark workloads.

A job is ``(kind, params)`` with plain, comparable params. ``generate`` lays
jobs out in rounds. Within a round each job kind draws its sizes from equal
strata of the stated range (log-spaced where the range spans decades), and
pairs them with bases and options along a golden-ratio stride that depends on
the round number only. Where a value falls inside its stratum follows a
golden-ratio sequence over the rounds, from a start the seed picks, so that
the first few rounds already cover each stratum evenly. So every seed sees the
same mix of cheap and costly jobs, and runs with different seeds measure the
same work, however few rounds they get through; the seed moves every value
within its stratum, the digits of every index and the job order.

Every kind has a ``prepare`` step, run before the clock starts, that turns
params into call inputs (building a long decimal index is not the program's
work), a ``run`` step that is timed, and a ``check`` step from ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from pathlib import Path

import oracle

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "tridigits" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no tridigits package under {SRC}")
sys.path.insert(0, str(SRC))

import tridigits as td  # noqa: E402
from tridigits import cli  # noqa: E402

WORKLOADS = ("big_index", "digit_census", "growth_curves")
ROUNDS = 256  # rounds generated per run; a run that gets through them all starts again at round 0

_GOLDEN = (math.sqrt(5) - 1) / 2
_SILVER = math.sqrt(2) - 1


# ------------------------------------------------------------------ sampling


class Rounds(random.Random):
    """The seeded generator of one run, which also knows the round it is in.

    ``strata`` asks it where to fall inside each stratum. Each ``strata`` call
    of a round function gets a start drawn from the seed in round 0 and keeps
    it; round r moves it on by r times the golden ratio. So over any number of
    rounds the values of a stratum spread evenly over it instead of clumping
    by chance, and a short run measures the same mix as a long one.
    """

    def __init__(self, seed: str):
        super().__init__(seed)
        self.round_no = 0
        self._starts: list[float] = []  # one per strata() call of a round, in call order
        self._calls = 0

    def begin_round(self, round_no: int) -> None:
        self.round_no = round_no
        self._calls = 0

    def stratum_offset(self, i: int) -> float:
        """Where stratum ``i`` of the next ``strata`` call falls, in [0, 1)."""
        if i == 0:
            if self._calls == len(self._starts):
                self._starts.append(self.random())
            self._calls += 1
        start = self._starts[self._calls - 1]
        return (start + self.round_no * _GOLDEN + i * _SILVER) % 1.0


def strata(rng: Rounds, k: int, lo: int, hi: int, log: bool = False) -> list[int]:
    """k integers in [lo, hi], one from each of k equal strata, ascending."""
    out = []
    for i in range(k):
        u = (i + rng.stratum_offset(i)) / k
        x = lo * ((hi + 1) / lo) ** u if log else lo + u * (hi - lo + 1)
        out.append(min(hi, max(lo, int(x))))
    return out


def spread(values: list, round_no: int) -> list:
    """``values`` reordered along a golden-ratio stride, shifted by the round.

    Zipped with ascending sizes, neighbouring sizes get far-apart values, and
    over successive rounds each size meets every value.
    """
    k = len(values)
    step = max(1, round(k * _GOLDEN))
    while math.gcd(step, k) != 1:
        step += 1
    return [values[(step * (i + round_no)) % k] for i in range(k)]


def cycle(options: list, k: int, round_no: int) -> list:
    """k options taken in turn, spread over the ascending sizes they are zipped with."""
    return spread([options[i % len(options)] for i in range(k)], round_no)


# ------------------------------------------------------------------ rounds


def _big_index_round(rng: Rounds, r: int) -> list:
    jobs = []
    for kind, k in (("tri", 32), ("to_digits", 16), ("tri_mod", 14)):
        lengths = strata(rng, k, 1, 20_000, log=True)
        bases = spread(strata(rng, k, 2, 256), r)
        jobs += [(kind, (rng.getrandbits(64), n, b)) for n, b in zip(lengths, bases)]
    bad_base = rng.choice((0, 1, 257, 1000))
    small = str(rng.randrange(1, 10**6))
    jobs.append(("invalid", ("tri", small, "--base", str(bad_base))))
    jobs.append(("invalid", ("tri", small + rng.choice("x.-e") + "7", "--base", "10")))
    return jobs


def _digit_census_round(rng: Rounds, r: int) -> list:
    def bases(k):
        return spread(strata(rng, k, 2, 256), r)

    fmts = ("table", "json")
    jobs = [("residues", (b, "table")) for b in bases(8)]
    jobs += [("residues", (b, "json")) for b in bases(6)]
    widths = strata(rng, 6, 1, 64, log=True)
    for lo, width, fmt in zip(bases(6), widths, cycle(fmts, 6, r)):
        jobs.append(("classify", (lo, min(256, lo + width - 1), fmt)))
    jobs += [("prove", (b,)) for b in bases(8)]
    counts = strata(rng, 8, 1_000, 300_000, log=True)
    jobs += [("freq", (b, n, f)) for b, n, f in zip(bases(8), counts, cycle(fmts, 8, r))]
    jobs += [("residue_profile", (b,)) for b in bases(10)]
    k_limits = strata(rng, 8, 1, 64, log=True)
    jobs += [("prove_verify", (b, k)) for b, k in zip(bases(8), k_limits)]
    jobs += [("sweep", (m,)) for m in strata(rng, 2, 2, 256)]
    lo = rng.randrange(3, 257)
    jobs += [
        ("invalid", ("residues", "--base", str(rng.choice((0, 1, 257, 300))))),
        ("invalid", ("classify", "--bases", f"{lo}..{rng.randrange(2, lo)}")),
        ("invalid", ("freq", "--base", str(rng.randrange(2, 257)), "--count", "0")),
        ("invalid", ("prove", "--base", str(rng.choice((-5, 1, 257, 1000))))),
    ]
    return jobs


def _dynamics(rng: Rounds, kind: str) -> str:
    if kind == "linear":
        return "linear"
    if kind == "constant":
        return f"constant:{rng.randrange(1, 1001)}"
    slope = rng.randrange(1, 51)
    return f"decline:{slope * rng.randrange(2, 20_001) + rng.randrange(slope)},{slope}"


def _growth_curves_round(rng: Rounds, r: int) -> list:
    kinds = ("linear", "constant", "decline")
    combos = [(d, h) for d in kinds for h in (False, True)]
    jobs = []
    for fmt in ("table", "json"):
        # Each format also gets one job at the full horizon in every round, so
        # peak memory does not hinge on how many rounds a run gets through.
        steps = strata(rng, 7, 1_000, 199_999, log=True) + [200_000]
        for t, (dyn, with_base) in zip(steps, cycle(combos, 8, r)):
            initial = rng.choice((0, rng.randrange(1, 1001)))
            base = rng.randrange(2, 257) if with_base else None
            jobs.append(("simulate", (_dynamics(rng, dyn), t, initial, base, fmt)))
    steps = strata(rng, 8, 1_000, 200_000, log=True)
    for t, dyn in zip(steps, cycle(list(kinds), 8, r)):
        initial = rng.choice((0, rng.randrange(1, 1001)))
        jobs.append(("growth_chain", (_dynamics(rng, dyn), t, initial, rng.randrange(2, 257))))
    jobs += [("diagonal", (c,)) for c in strata(rng, 6, 100, 1_500, log=True)]
    jobs += [("pascal_row", (n,)) for n in strata(rng, 6, 100, 1_500, log=True)]
    bad = rng.choice(("constant:0", "decline:5", "linear:2", "logistic", "constant:x", "decline:0,1"))
    jobs.append(("invalid", ("simulate", "--dynamics", bad, "--steps", "1000")))
    jobs.append(("invalid", ("simulate", "--dynamics", "linear", "--steps", "1000",
                             "--base", str(rng.choice((0, 1, 257, 500))))))
    return jobs


_ROUND = {
    "big_index": _big_index_round,
    "digit_census": _digit_census_round,
    "growth_curves": _growth_curves_round,
}


def generate(workload: str, seed: int, rounds: int = ROUNDS) -> list[list[tuple]]:
    """All jobs of a run, in rounds, shuffled within each round."""
    rng = Rounds(f"{workload}:{seed}")
    out = []
    for r in range(rounds):
        rng.begin_round(r)
        jobs = _ROUND[workload](rng, r)
        rng.shuffle(jobs)
        out.append(jobs)
    return out


# ------------------------------------------------------------------ execution


def index_text(job_seed: int, length: int) -> str:
    """The decimal index of a big_index job: ``length`` digits, no leading zero."""
    rng = random.Random(job_seed)
    return rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 1))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _on_params(check):
    """Adapt an oracle taking (*params, result) to the (params, inputs, result) form."""
    return lambda params, inputs, result: check(*params, result)


def _cli_ok(check):
    """Check a CLI job that must succeed: exit 0, then ``check(params, inputs, stdout)``."""
    def checked(params, inputs, result):
        rc, out, err = result
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:120]}"
        return check(params, inputs, out)
    return checked


def _fmt(fmt: str) -> list[str]:
    return ["--format", "json"] if fmt == "json" else []


def _prepare_int(params):
    job_seed, length, base = params
    n_text = index_text(job_seed, length)
    return n_text, int(n_text), base


def _prepare_simulate(params):
    spec, steps, initial, base, fmt = params
    argv = ["simulate", "--dynamics", spec, "--steps", str(steps)]
    if initial:
        argv += ["--initial", str(initial)]
    if base is not None:
        argv += ["--base", str(base)]
    return argv + _fmt(fmt)


def _growth_chain(inputs):
    spec, steps, initial, base = inputs
    trace = td.simulate(td.parse_dynamics(spec), steps, initial)
    return trace, td.fit_power_law(trace), td.digit_histogram(trace, base)


def _prove_verify(inputs):
    base, k_limit = inputs
    transcript = td.enumerate_cases(base)
    return transcript, [td.verify_case(case, k_limit) for case in transcript.cases]


def _same(params):
    return params


# kind -> (prepare(params) -> inputs, run(inputs) -> result, check(params, inputs, result))
KINDS = {
    "tri": (
        lambda p: ["tri", index_text(p[0], p[1]), "--base", str(p[2])],
        run_cli,
        _cli_ok(lambda params, argv, out: oracle.check_tri_output(argv[1], params[2], out)),
    ),
    "to_digits": (
        _prepare_int,
        lambda inputs: td.to_digits(td.tri_exact(inputs[1]), inputs[2]),
        lambda params, inputs, result: oracle.check_to_digits(inputs[1], inputs[2], result),
    ),
    "tri_mod": (
        _prepare_int,
        lambda inputs: td.tri_mod(inputs[1], inputs[2]),
        lambda params, inputs, result: oracle.check_tri_mod(inputs[1], inputs[2], result),
    ),
    "residues": (
        lambda p: ["residues", "--base", str(p[0])] + _fmt(p[1]),
        run_cli,
        _cli_ok(_on_params(oracle.check_residues)),
    ),
    "classify": (
        lambda p: ["classify", "--bases", f"{p[0]}..{p[1]}"] + _fmt(p[2]),
        run_cli,
        _cli_ok(_on_params(oracle.check_classify)),
    ),
    "prove": (
        lambda p: ["prove", "--base", str(p[0])],
        run_cli,
        _cli_ok(_on_params(oracle.check_prove)),
    ),
    "freq": (
        lambda p: ["freq", "--base", str(p[0]), "--count", str(p[1])] + _fmt(p[2]),
        run_cli,
        _cli_ok(_on_params(oracle.check_freq)),
    ),
    "residue_profile": (_same, lambda p: td.residue_profile(p[0]), _on_params(oracle.check_residue_profile)),
    "prove_verify": (_same, _prove_verify, lambda params, inputs, result: oracle.check_prove_verify(params[0], result)),
    "sweep": (_same, lambda p: td.power_of_two_sweep(p[0]), _on_params(oracle.check_sweep)),
    "simulate": (_prepare_simulate, run_cli, _cli_ok(_on_params(oracle.check_simulate))),
    "growth_chain": (_same, _growth_chain, _on_params(oracle.check_growth_chain)),
    "diagonal": (_same, lambda p: td.quadratic_diagonal(p[0]), _on_params(oracle.check_diagonal)),
    "pascal_row": (_same, lambda p: td.pascal_row(p[0]), _on_params(oracle.check_pascal_row)),
    "invalid": (list, run_cli, lambda params, inputs, result: oracle.check_rejected(*result)),
}


def repeat_key(workload: str, kind: str, params, inputs):
    """What a cache could key on: the index in big_index, the base in digit_census."""
    if workload == "big_index" and kind != "invalid":
        return inputs[1] if kind == "tri" else inputs[0]
    if workload == "digit_census" and kind not in ("invalid", "classify", "sweep"):
        return params[0]
    return None


REPEAT_LABEL = {"big_index": "index", "digit_census": "base"}
