"""tridigits benchmark: three closed-loop workloads, timed end to end and per layer.

One client in one thread sends each job after the previous one finished.
Jobs mix library calls with in-process ``tridigits.cli.main(argv)`` calls
whose stdout is captured; interpreter start-up is kept out of the jobs and
measured on its own, as ``setup_s``. Each job's result is checked by a stdlib-only
oracle outside the timed region.

The host the benchmark was built on runs at speeds up to twice apart from one
second to the next, and every job slows or speeds up with it. So a run also
times a small fixed reference computation, which does not touch
``tridigits``, right before every job and after each round's last, and scales
the times of each round's jobs to a host on which that computation takes the
time REFERENCE gives. The report prints the raw figures and the host's speed
next to the scaled ones.

    python3 perfbench/run.py --workload big_index --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

With ``--trace 0`` the last stdout line holds the end-to-end metrics of a run
of ``--seconds`` of job time at the reference host's speed. With ``--trace 1``
it holds the per-layer metrics of a traced run over a fixed number of rounds,
so that its counts and self times are those of the same work whatever the
speed of the code or the host. Either way it is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"
DEFAULT_SECONDS = 25.0  # run_seconds in BENCHMARK.json
TRACED_ROUNDS = 16  # whole rounds of a traced run, whatever --seconds says
SETUP_SAMPLES = 10
MIN_JOBS = 100  # so that at least ten latencies lie beyond the 90th percentile
WALL_LIMIT_S = 120.0  # stop starting rounds after this, whatever --seconds says
SHOW_FAILURES = 10
SETUP_REFERENCES = 5  # reference samples taken before and after each set-up sample
_BIG = 7 ** 2500
_SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import tridigits, tridigits.cli\n"
    "print(time.perf_counter() - t)\n"
)


def setup_once() -> float:
    """Seconds a fresh interpreter takes to import tridigits and tridigits.cli."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(workloads.SRC)))
    return float(done.stdout)


def _small_int_work() -> int:
    """Small-integer interpreter work and int formatting, in fixed amounts."""
    acc = 0
    for i in range(1200):
        acc += i * i % 7
    for i in range(400):
        acc += len(str(i * 7919))
    return acc


def _big_int_work() -> int:
    """Big-integer multiply, divide and decimal conversion, in fixed amounts."""
    return divmod(_BIG * _BIG, _BIG + 12345)[1] % 2 + len(str(_BIG >> 3000))


_FULL = (_small_int_work, _big_int_work)
_FULL_MS = 0.36
# Per workload: the reference work its times are scaled by, and that work's
# time in ms on the host the times are scaled to (about its median where the
# bounds were set). big_index jobs are big-integer work, which slows down far
# less than interpreter work when this host is busy, so its reference is too.
REFERENCE = {
    "big_index": ((_big_int_work,), 0.17),
    "digit_census": (_FULL, _FULL_MS),
    "growth_curves": (_FULL, _FULL_MS),
}


def reference_ns(parts=_FULL) -> int:
    """Nanoseconds the reference work takes on this host now."""
    start = time.perf_counter_ns()
    for part in parts:
        part()
    return time.perf_counter_ns() - start


def setup_sample() -> tuple[float, float]:
    """One set-up time in seconds, and the factor that scales it to the
    reference host, from the whole reference work timed just before and after it."""
    refs = [reference_ns() for _ in range(SETUP_REFERENCES)]
    seconds = setup_once()
    refs += [reference_ns() for _ in range(SETUP_REFERENCES)]
    return seconds, _FULL_MS * 1e6 / statistics.median(refs)


def run_jobs(workload: str, seed: int, seconds: float, tracer: spans.Tracer | None,
             setup_samples: list[tuple[float, float]] | None):
    """Run whole rounds until ``seconds`` of job time, at the reference host's
    speed, have passed or, when traced, exactly TRACED_ROUNDS rounds.

    The reference work is timed right before every job and after a round's
    last job. A round's scale is the workload's REFERENCE time over the
    median of those, so the jobs of a round share the host's speed in that
    round and one interrupted sample does not set it.

    Returns per-job latencies in ns, the round of each job, each round's
    scale, every reference time in ns, failures, and the repeat count for the
    workload's cache key. When ``setup_samples`` is a list, ``setup_sample()``
    results are added to it between rounds, spread over the run so that
    their median does not rest on the load of the host in one second.
    """
    rounds = workloads.generate(workload, seed, TRACED_ROUNDS if tracer is not None else workloads.ROUNDS)
    parts, reference_ms = REFERENCE[workload]
    # The job pool is harness state: keep the collector from walking it during jobs.
    gc.collect()
    gc.freeze()
    latencies: list[int] = []
    job_round: list[int] = []
    scales: list[float] = []
    references: list[int] = []
    failures: list[tuple[str, object, str]] = []
    seen: set = set()
    repeats = keyed = 0
    busy = 0.0  # job time so far, in ns, at the reference host's speed
    wall_start = time.perf_counter()
    clock = time.perf_counter_ns
    sample_every = seconds * 1e9 / SETUP_SAMPLES
    next_sample = 0.0
    r = 0

    def more() -> bool:
        if tracer is not None:
            return r < TRACED_ROUNDS
        return ((busy < seconds * 1e9 or len(latencies) < MIN_JOBS)
                and time.perf_counter() - wall_start < WALL_LIMIT_S)

    while more():
        if setup_samples is not None and busy >= next_sample:
            setup_samples.append(setup_sample())
            next_sample = busy + sample_every
        first = len(latencies)
        round_refs = []
        for kind, params in rounds[r % len(rounds)]:
            prepare, run, check = workloads.KINDS[kind]
            inputs = prepare(params)
            if tracer is not None:
                tracer.job = len(latencies)
            round_refs.append(reference_ns(parts))
            start = clock()
            try:
                result = run(inputs)
            except Exception as exc:  # a raising job is a failed job, not a dead run
                result = exc
            elapsed = clock() - start
            latencies.append(elapsed)
            job_round.append(r)
            if isinstance(result, Exception):
                problem = f"raised {result!r}"[:200]
            else:
                try:
                    problem = check(params, inputs, result)
                except Exception as exc:
                    problem = f"output did not parse: {exc!r}"[:200]
            if problem is not None:
                failures.append((kind, params, problem))
            if tracer is not None and run is workloads.run_cli and isinstance(result, tuple):
                tracer.counters["cli.main.stdout_bytes"] += len(result[1].encode())
            key = workloads.repeat_key(workload, kind, params, inputs)
            if key is not None:
                keyed += 1
                digest = hash(key)
                repeats += digest in seen
                seen.add(digest)
            # Drop this job's output before the next job runs, so it does not
            # add to that job's memory.
            inputs = result = key = None
        round_refs.append(reference_ns(parts))
        references += round_refs
        scales.append(reference_ms * 1e6 / statistics.median(round_refs))
        busy += sum(latencies[first:]) * scales[-1]
        r += 1
    while setup_samples is not None and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample())
    return latencies, job_round, scales, references, failures, repeats, keyed


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    sys.set_int_max_str_digits(0)  # the harness, not cli.main, lifts the cap for every job
    setup_samples = None
    if not traced:
        setup_once()  # writes the bytecode cache, which users pay for once
        setup_samples = []
    for _ in range(20):
        reference_ns()  # warms the reference work up
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install(workloads.td)
    try:
        latencies, job_round, scales, references, failures, repeats, keyed = run_jobs(
            workload, seed, seconds, tracer, setup_samples)
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted = len(latencies)
    busy = sum(latencies)
    jobs_per_s = attempted / (busy / 1e9)
    scaled = [ns * scales[r] for ns, r in zip(latencies, job_round)]
    scaled_jobs_per_s = attempted / (sum(scaled) / 1e9)
    length = f"rounds {TRACED_ROUNDS}" if traced else f"seconds {seconds:g}"
    print(f"workload {workload}  seed {seed}  {length}  trace {int(traced)}")
    print(f"jobs attempted {attempted}  failed {len(failures)}  "
          f"failed_ratio {len(failures) / attempted:.6f}  timed {busy / 1e9:.3f} s")
    for kind, params, problem in failures[:SHOW_FAILURES]:
        print(f"  FAILED {kind} {str(params)[:100]}: {problem}")
    if workload in workloads.REPEAT_LABEL:
        label = workloads.REPEAT_LABEL[workload]
        print(f"repeated_{label}_share {repeats / keyed:.4f}  ({repeats} of {keyed} jobs "
              f"repeat an earlier job's {label})")
    print(f"host: reference work {statistics.median(references) / 1e6:.4f} ms (median of {len(references)}, "
          f"quartiles {' '.join(f'{q / 1e6:.4f}' for q in statistics.quantiles(references, n=4))}); "
          f"times below are scaled to {REFERENCE[workload][1]:g} ms")
    if traced:
        metrics = tracer.metrics()
        metrics["traced.jobs_per_s"] = (scaled_jobs_per_s, "1/s")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}, {tracer.dropped} not kept")
    else:
        beyond_p90 = attempted - int(attempted * 0.9)
        metrics = {
            "jobs_per_s": (scaled_jobs_per_s, "1/s"),
            "job_p50_ms": (statistics.median(scaled) / 1e6, "ms"),
            "job_p90_ms": (statistics.quantiles(scaled, n=10)[8] / 1e6, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(s * scale for s, scale in setup_samples), "s"),
        }
        print(f"latency samples {attempted}, about {beyond_p90} beyond p90")
        print(f"unscaled: jobs_per_s {jobs_per_s:.6g} 1/s  job_p50_ms {statistics.median(latencies) / 1e6:.6g} ms  "
              f"job_p90_ms {statistics.quantiles(latencies, n=10)[8] / 1e6:.6g} ms  "
              f"setup_s {statistics.median(s for s, _ in setup_samples):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload in a fresh interpreter; its report is echoed, its JSON returned."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def _split_checks(traced: dict[str, dict]) -> list[tuple[str, bool]]:
    """The layer split each workload was chosen for, read from the traced runs."""
    def values(workload, suffix, prefixes=("",)):
        return [m["value"] for name, m in traced[workload]["metrics"].items()
                if name.endswith(suffix) and name.startswith(prefixes)]

    big = ("core.to_digits", "core.parse_natural", "cli.cmd_tri")
    share = sum(values("big_index", ".self_s", big)) / sum(values("big_index", ".self_s"))
    return [
        (f"{' + '.join(big)} carry {share:.0%} of big_index self time", share > 0.5),
        ("growth.* and pascal.* have zero calls outside growth_curves",
         not any(v for w in ("big_index", "digit_census") for v in values(w, ".calls", ("growth.", "pascal.")))),
        ("core.to_digits has zero calls outside big_index",
         not any(v for w in ("digit_census", "growth_curves") for v in values(w, "core.to_digits.calls"))),
    ]


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    plain, traced = {}, {}
    for workload in workloads.WORKLOADS:
        plain[workload] = _child(workload, seed, seconds, traced=False)
        traced[workload] = _child(workload, seed, seconds, traced=True)
        print()
    print(f"{'metric':<14}" + "".join(f"{w:>16}" for w in workloads.WORKLOADS) + "  unit")
    rows = list(plain[workloads.WORKLOADS[0]]["metrics"])
    for name in rows:
        unit = plain[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{plain[w]['metrics'][name]['value']:>16.6g}" for w in workloads.WORKLOADS)
        print(f"{name:<14}{cells}  {unit}")
    ratios = "".join(f"{plain[w]['failed'] / plain[w]['attempted']:>16.6g}" for w in workloads.WORKLOADS)
    print(f"{'failed_ratio':<14}{ratios}  ratio")
    overhead = "".join(
        f"{1 - traced[w]['metrics']['traced.jobs_per_s']['value'] / plain[w]['metrics']['jobs_per_s']['value']:>16.1%}"
        for w in workloads.WORKLOADS)
    print(f"{'trace_cost':<14}{overhead}  share of jobs_per_s lost when traced")
    checks = _split_checks(traced)
    for text, ok in checks:
        print(f"split {'confirmed' if ok else 'NOT confirmed'}: {text}")
    correct = all(r["correct"] for r in (*plain.values(), *traced.values()))
    return 0 if correct and all(ok for _, ok in checks) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="job time of an untraced run; a traced run runs a fixed number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics, with spans written to .perfbench/")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
