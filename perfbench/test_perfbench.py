"""Self-tests of the benchmark. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent


def _run(kind, params):
    prepare, run, check = workloads.KINDS[kind]
    inputs = prepare(params)
    result = run(inputs)
    return inputs, result, lambda r: check(params, inputs, r)


@pytest.fixture(autouse=True)
def _unbounded_int_text():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, rounds=4)
    assert first == workloads.generate(workload, 7, rounds=4)
    assert first != workloads.generate(workload, 8, rounds=4)
    assert workloads.index_text(12345, 300) == workloads.index_text(12345, 300)


def test_every_round_has_the_same_mix_for_every_seed():
    for workload in workloads.WORKLOADS:
        def kinds(seed):
            return [sorted(kind for kind, _ in jobs) for jobs in workloads.generate(workload, seed, rounds=3)]
        assert kinds(1) == kinds(2)


def test_strata_cover_each_stratum_evenly_over_rounds():
    rng = workloads.Rounds("evenness")
    values = []
    for r in range(13):
        rng.begin_round(r)
        values += workloads.strata(rng, 1, 0, 12_999)
    # 13 rounds of a golden-ratio sequence put at most two values in any
    # thirteenth of the stratum; 13 independent draws do so for about 7 seeds in 10.
    assert max(Counter(v // 1000 for v in values).values()) <= 2


def _bump_line(out: str, index: int) -> str:
    """Add 1 to the last number on one line of a rendered output."""
    lines = out.split("\n")
    head, _, last = lines[index].rpartition(" ")
    lines[index] = f"{head} {int(last) + 1}"
    return "\n".join(lines)


def _bump_first_count(out: str) -> str:
    """Add 1 to digit 0's count in a freq table, keeping the column width."""
    lines = out.split("\n")
    row = lines[3]
    lines[3] = f"{row[:7]}{int(row[7:16]) + 1:>9}{row[16:]}"
    return "\n".join(lines)


def _corrupt_digits(out: str) -> str:
    lines = out.split("\n")
    prefix, _, digits = lines[2].rpartition(" ")
    middle = len(digits) // 2
    wrong = "1" if digits[middle] != "1" else "2"
    lines[2] = f"{prefix} {digits[:middle]}{wrong}{digits[middle + 1:]}"
    return "\n".join(lines)


def _json_edit(out: str, edit) -> str:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


def _cli(corrupt_out):
    return lambda result: (result[0], corrupt_out(result[1]), result[2])


CORRUPTIONS = [
    ("tri", (11, 400, 7), _cli(_corrupt_digits)),
    ("tri", (12, 40, 200), _cli(lambda out: out.replace("units digit = ", "units digit = 1"))),
    ("to_digits", (13, 300, 3), lambda r: SimpleNamespace(base=r.base, digits=r.digits[:-1] + ((r.digits[-1] + 1) % 3,))),
    ("tri_mod", (14, 200, 10), lambda r: (r + 1) % 10),
    ("residues", (10, "table"), _cli(lambda out: out.replace("period = 20", "period = 10"))),
    ("residues", (12, "json"), _cli(lambda out: _json_edit(out, lambda d: d["reachable"].pop()))),
    ("classify", (8, 12, "table"), _cli(lambda out: out.replace("no ", "yes", 1))),
    ("classify", (8, 12, "json"), _cli(lambda out: _json_edit(out, lambda d: d[0].update(gappy=True)))),
    ("prove", (10,), _cli(lambda out: out.replace("== 1 (mod 10)", "== 2 (mod 10)", 1))),
    ("freq", (10, 5000, "table"), _cli(_bump_first_count)),
    ("freq", (7, 5000, "json"), _cli(lambda out: _json_edit(out, lambda d: d["digits"][0].update(count=0)))),
    ("residue_profile", (9,), lambda r: dataclasses.replace(r, period=r.period + 1)),
    ("prove_verify", (6, 8), lambda r: (r[0], r[1][:-1] + [False])),
    ("sweep", (20,), lambda r: [(b, not g) if b == 16 else (b, g) for b, g in r]),
    ("simulate", ("decline:500,3", 1000, 7, 10, "table"), _cli(lambda out: _bump_line(out, 5))),
    ("simulate", ("linear", 1000, 0, 10, "table"), _cli(lambda out: _bump_line(out, -2))),
    ("simulate", ("constant:3", 1000, 2, None, "json"),
     _cli(lambda out: _json_edit(out, lambda d: d["total"].__setitem__(500, "0")))),
    ("simulate", ("linear", 1000, 0, None, "json"), _cli(lambda out: out.replace('"1",\n', '"1"\n', 1))),
    ("simulate", ("linear", 1000, 0, None, "json"), _cli(lambda out: out.replace('"10"', '"10", "11"', 1))),
    ("simulate", ("linear", 1000, 0, None, "table"),
     _cli(lambda out: out.replace("fit exponent = 1.9", "fit exponent = 1.8"))),
    ("growth_chain", ("linear", 1000, 5, 7),
     lambda r: (dataclasses.replace(r[0], total=r[0].total[:-1] + (0,)), r[1], r[2])),
    ("growth_chain", ("constant:4", 1000, 0, 7),
     lambda r: (r[0], dataclasses.replace(r[1], exponent=r[1].exponent * 1.001), r[2])),
    ("diagonal", (50,), lambda r: r[:-1] + [r[-1] + 1]),
    ("pascal_row", (30,), lambda r: dataclasses.replace(r, coefficients=r.coefficients[:-1] + (2,))),
    ("invalid", ("freq", "--base", "10", "--count", "0"), lambda r: (2, r[1], "Traceback\n" + r[2])),
    ("invalid", ("residues", "--base", "1"), lambda r: (0, r[1], r[2])),
]


@pytest.mark.parametrize("kind, params, corrupt", CORRUPTIONS, ids=lambda x: x if isinstance(x, str) else "")
def test_oracle_accepts_the_result_and_flags_a_corrupted_one(kind, params, corrupt):
    _, result, check = _run(kind, params)
    assert check(result) is None
    corrupted = corrupt(result)
    assert corrupted != result
    assert check(corrupted) is not None


def test_every_job_kind_is_covered_by_a_corruption_test():
    assert {kind for kind, _, _ in CORRUPTIONS} == set(workloads.KINDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_jobs_give_identical_output(workload, tmp_path):
    jobs = workloads.generate(workload, 3, rounds=1)[0]
    plain = [_run(kind, params)[1] for kind, params in jobs]
    originals = dict(vars(workloads.td))
    tracer = spans.Tracer()
    tracer.install(workloads.td)
    try:
        for job_id, ((kind, params), expected) in enumerate(zip(jobs, plain)):
            tracer.job = job_id
            assert _run(kind, params)[1] == expected, kind
    finally:
        tracer.uninstall()
    assert dict(vars(workloads.td)) == originals
    metrics = tracer.metrics()
    assert set(metrics) == {f"{n}.{m}" for n in spans.SPAN_NAMES for m in ("calls", "self_s")} | set(spans.COUNTERS)
    assert all(value >= 0 for value, _ in metrics.values())

    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {r["id"]: r for r in records}
    for r in records:
        assert r["start_ns"] <= r["end_ns"]
        parent = by_id.get(r["parent"])
        if parent is not None:
            assert parent["start_ns"] <= r["start_ns"] and r["end_ns"] <= parent["end_ns"]
            assert parent["job"] == r["job"]


def test_counters_come_from_the_real_calls():
    tracer = spans.Tracer()
    tracer.install(workloads.td)
    try:
        workloads.td.quadratic_diagonal(10)
        workloads.td.empirical_frequencies(7, 100)
        workloads.run_cli(["tri", "123", "--base", "5"])
    finally:
        tracer.uninstall()
    m = {name: value for name, (value, _) in tracer.metrics().items()}
    assert m["pascal.iter_rows.entries_yielded"] == sum(range(1, 13))  # rows 0..11
    assert m["pascal.quadratic_diagonal.useful_ratio"] == 10 / sum(range(1, 13))
    assert m["residues.empirical_frequencies.samples"] == 100
    assert m["core.parse_natural.digits_in"] == 3
    assert m["core.to_digits.digits_out"] == 6  # T(123) = 7626 = 221001 in base 5
    assert m["cli.main.calls"] == 1 and m["cli.cmd_tri.calls"] == 1


@pytest.mark.parametrize("kind, params", [
    ("simulate", ("linear", 20_000, 0, 7, "json")),
    ("simulate", ("decline:90000,3", 20_000, 5, None, "table")),
    ("growth_chain", ("constant:5", 20_000, 3, 7)),
])
def test_oracle_holds_less_memory_than_the_job(kind, params):
    # peak_rss_mb is read for the whole process: the checks must not set it.
    prepare, run, check = workloads.KINDS[kind]
    inputs = prepare(params)
    tracemalloc.start()
    try:
        result = run(inputs)
        job_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert check(params, inputs, result) is None
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check_peak < job_peak


def test_traced_counts_do_not_depend_on_the_clock(monkeypatch):
    import run

    monkeypatch.setattr(run, "TRACED_ROUNDS", 1)
    counts = []
    for seconds in (0.001, 30.0):
        tracer = spans.Tracer()
        tracer.install(workloads.td)
        try:
            run.run_jobs("growth_curves", 2, seconds, tracer, None)
        finally:
            tracer.uninstall()
        counts.append({name: value for name, (value, unit) in tracer.metrics().items() if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["growth.simulate.steps"] > 0


def test_reference_work_stays_outside_tridigits():
    import run

    # Times are scaled by the reference work, so no change to the package may move it.
    tracer = spans.Tracer()
    tracer.install(workloads.td)
    try:
        run.reference_ns()
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_every_round_gets_one_scale_from_its_reference_times():
    import run

    latencies, job_round, scales, references, *_ = run.run_jobs("digit_census", 3, 0.001, None, None)
    assert len(scales) == job_round[-1] + 1
    # One reference time before every job and one after each round's last job.
    assert len(references) == len(latencies) + len(scales)
    assert all(scale > 0 for scale in scales)


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "digit_census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_split_checks_flag_calls_outside_the_intended_workload():
    import run

    def traced(calls_elsewhere):
        return {"metrics": {"core.to_digits.self_s": {"value": 3.0}, "cli.main.self_s": {"value": 1.0},
                            "growth.simulate.calls": {"value": calls_elsewhere},
                            "core.to_digits.calls": {"value": calls_elsewhere}}}

    clean = {w: traced(0) for w in workloads.WORKLOADS}
    assert all(ok for _, ok in run._split_checks(clean))
    leaky = dict(clean, digit_census=traced(2))
    assert [ok for _, ok in run._split_checks(leaky)] == [True, False, False]
