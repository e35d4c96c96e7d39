import contextlib
import decimal
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridigits import (
    DEFAULT_SAMPLE_SIZE, digit_histogram, empirical_frequencies, fit_power_law, parse_dynamics,
    parse_natural, residue_profile, simulate, tri_exact,
)
from tridigits.cli import _MAX_DIGITS, _MAX_STEPS, _SLICE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tri_basic(capsys):
    code, out, err = run_cli(capsys, "tri", "4", "--base", "10")
    assert code == 0
    assert "value = 10" in out
    assert "units digit = 0" in out
    assert err == ""


def test_tri_zero(capsys):
    code, out, _ = run_cli(capsys, "tri", "0")
    assert code == 0
    assert "value = 0" in out


def test_tri_base3_digits(capsys):
    code, out, _ = run_cli(capsys, "tri", "13", "--base", "3")
    assert code == 0
    assert "value = 91" in out
    assert "digits (base 3) = 10101" in out
    assert "units digit = 1" in out


def test_tri_huge_index(capsys):
    n = "1" + "0" * 30
    code, out, _ = run_cli(capsys, "tri", n, "--base", "10")
    assert code == 0
    assert "units digit = 0" in out


def test_tri_lifts_int_str_cap_only_for_the_call(capsys):
    old = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(default)
    try:
        code, out, _ = run_cli(capsys, "tri", "9" * 5000)
        assert sys.get_int_max_str_digits() == default
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 0
    # T(10^5000 - 1) = 5*10^9999 - 5*10^4999
    assert f"value = 4{'9' * 4999}5{'0' * 4999}\n" in out


@pytest.mark.parametrize("n, echoed", [("007", "7"), ("000", "0")])
def test_tri_echoes_index_without_leading_zeros(capsys, n, echoed):
    code, out, _ = run_cli(capsys, "tri", n)
    assert code == 0
    assert out.startswith(f"n = {echoed}\n")


def test_tri_rejects_garbage(capsys):
    code, out, err = run_cli(capsys, "tri", "abc")
    assert code != 0
    assert err.startswith("error:")
    assert out == ""


# The same error line whether the index is read as an int (--base) or only checked as text.
@pytest.mark.parametrize("base", [[], ["--base", "10"]], ids=["text", "int"])
@pytest.mark.parametrize("n", ["1e3", "+5", " 7", "", "\u0661\u0662", "1_0"])
def test_tri_rejects_non_decimal_index_text(capsys, n, base):
    code, out, err = run_cli(capsys, "tri", n, *base)
    assert (code, out, err) == (2, "", f"error: not a non-negative decimal integer: {n!r}\n")


_NINES = "9" * 20_000  # T(10^k - 1) = 5*10^(2k-1) - 5*10^(k-1)


@pytest.mark.parametrize("n, expected", [
    (_NINES, (0, f"n = {_NINES}\nvalue = 4{'9' * 19_999}5{'0' * 19_999}\n", "")),
    ("0070", (0, "n = 70\nvalue = 2485\n", "")),
    ("1e3", (2, "", "error: not a non-negative decimal integer: '1e3'\n")),
], ids=["nines", "leading_zeros", "not_decimal"])
def test_tri_without_base_reads_no_int(capsys, monkeypatch, n, expected):
    def refuse(*args):
        raise AssertionError("tri without --base converted its index to an int")

    monkeypatch.setattr("tridigits.cli.parse_natural", refuse)
    for module in ("tridigits.core", "tridigits.cli"):  # int() anywhere in the two modules
        monkeypatch.setattr(f"{module}.int", refuse, raising=False)
    assert run_cli(capsys, "tri", n) == expected


@contextlib.contextmanager
def _no_int_str_cap():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _indices():
    """Decimal indices of 1 to 5000 digits: random, all 9s, with leading zeros, and 0."""
    rng = random.Random(16)
    lengths = [*range(1, 60), 99, 100, 101, 1000, 4300, 4301, 5000]
    texts = ["0", "00", "000", "007", "0" * 50 + "9" * 30]
    for length in lengths:
        texts.append(rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 1)))
        texts.append("9" * length)
        texts.append("0" * (length % 4 + 1) + texts[-2])
    return texts


@pytest.mark.parametrize("n", _indices(), ids=lambda n: f"{len(n)}:{n[:3]}..{n[-2:]}")
def test_tri_value_is_the_exact_triangular_number(capsys, n):
    code, out, err = run_cli(capsys, "tri", n)
    with _no_int_str_cap():
        expected = f"n = {int(n)}\nvalue = {tri_exact(int(n))}\n"
    assert (code, out, err) == (0, expected, "")


@given(st.text("0123456789", min_size=1, max_size=120))
@settings(max_examples=200, deadline=None)
def test_tri_value_is_exact_for_any_digit_text(n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["tri", n, "--base", "10"]) == 0
    value = tri_exact(int(n))
    assert out.getvalue().splitlines()[1:3] == [f"value = {value}", f"digits (base 10) = {value}"]


def test_tri_is_exact_whatever_the_decimal_context(capsys):
    before = decimal.getcontext()
    state = (before.prec, before.rounding, dict(before.traps), dict(before.flags))
    n = "9" * 27 + "123456789" * 4  # beyond the default context's 28 digits
    with decimal.localcontext(decimal.Context(prec=3, traps=[])):
        code, out, _ = run_cli(capsys, "tri", n)
        inner = decimal.getcontext()
        assert (inner.prec, inner.flags[decimal.Rounded], inner.flags[decimal.Inexact]) == (3, False, False)
    assert code == 0
    assert out.splitlines()[1] == f"value = {tri_exact(int(n))}"
    run_cli(capsys, "tri", "9" * 60)
    after = decimal.getcontext()
    assert (after.prec, after.rounding, dict(after.traps), dict(after.flags)) == state


def test_tri_runs_at_the_digits_limit(capsys):
    code, out, err = run_cli(capsys, "tri", "9" * _MAX_DIGITS)
    # T(10^k - 1) = 5*10^(2k-1) - 5*10^(k-1)
    k = _MAX_DIGITS
    assert (code, err) == (0, "")
    assert out == f"n = {'9' * k}\nvalue = 4{'9' * (k - 1)}5{'0' * (k - 1)}\n"


@pytest.mark.parametrize("n", ["9" * (_MAX_DIGITS + 1), "0" * (_MAX_DIGITS + 1), "x" * 10**6],
                         ids=["nines", "zeros", "letters"])
def test_tri_refuses_an_index_over_the_digits_limit_before_reading_it(capsys, monkeypatch, n):
    def refuse(text):
        raise AssertionError("read an index over the digits limit")

    monkeypatch.setattr("tridigits.cli.parse_natural", refuse)
    code, out, err = run_cli(capsys, "tri", n)  # --base is read by parse_natural too
    assert (code, out) == (2, "")
    assert err == f"error: n must have at most {_MAX_DIGITS} digits, got {len(n)}\n"


_OVER_LIMIT = "9" * (_MAX_DIGITS + 1)


@pytest.mark.parametrize("argv", [
    ["freq", "--base", "10", "--count", _OVER_LIMIT],
    ["simulate", "--dynamics", "linear", "--steps", "5", "--initial", _OVER_LIMIT],
    ["simulate", "--dynamics", "linear", "--steps", _OVER_LIMIT],
    ["residues", "--base", _OVER_LIMIT],
    ["classify", "--bases", f"3..5,{_OVER_LIMIT}"],
], ids=["count", "initial", "steps", "base", "bases"])
def test_integers_over_the_digits_limit_are_refused_before_reading_them(capsys, monkeypatch, argv):
    def guarded(text):
        assert len(text) <= _MAX_DIGITS, "read an integer over the digits limit"
        return parse_natural(text)

    monkeypatch.setattr("tridigits.cli.parse_natural", guarded)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert line.endswith(f"must have at most {_MAX_DIGITS} digits, got {_MAX_DIGITS + 1}")


def test_freq_counts_a_sample_at_the_digits_limit(capsys):
    count = "1" + "0" * (_MAX_DIGITS - 1)  # base 2: half of the sample ends in each digit
    code, out, err = run_cli(capsys, "freq", "--base", "2", "--count", count)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == f"count = {count}"
    assert [line.split()[:2] for line in lines[3:5]] == [["0", "5" + count[2:]], ["1", "5" + count[2:]]]


RESIDUES_BASE10_TABLE = """\
base = 10
period = 20
digit    exact  approx
    0      1/5  0.200000
    1      1/5  0.200000
    2      0/1  0.000000
    3     1/10  0.100000
    4      0/1  0.000000
    5      1/5  0.200000
    6      1/5  0.200000
    7      0/1  0.000000
    8     1/10  0.100000
    9      0/1  0.000000
reachable: {0,1,3,5,6,8}
missing: {2,4,7,9}
"""


def test_residues_table_golden(capsys):
    code, out, _ = run_cli(capsys, "residues", "--base", "10")
    assert code == 0
    assert out == RESIDUES_BASE10_TABLE


def test_readme_residues_example_matches_the_cli():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("$ tridigits residues --base 10\n", 1)[1].split("```", 1)[0]
    assert example == RESIDUES_BASE10_TABLE


def test_residues_json_schema(capsys):
    code, out, _ = run_cli(capsys, "residues", "--base", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == 10
    assert doc["period"] == 20
    assert doc["reachable"] == [0, 1, 3, 5, 6, 8]
    assert len(doc["frequencies"]) == 10
    by_digit = {entry["digit"]: entry for entry in doc["frequencies"]}
    assert by_digit[0]["exact"] == "1/5"
    assert by_digit[3]["exact"] == "1/10"
    assert by_digit[9]["exact"] == "0/1"
    assert by_digit[0]["approx"] == 0.2


def test_residues_rejects_base_one(capsys):
    code, _, err = run_cli(capsys, "residues", "--base", "1")
    assert code != 0
    assert "base" in err


def test_classify_table(capsys):
    code, out, _ = run_cli(capsys, "classify", "--bases", "3..10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].strip() == "base  gappy  missing"
    flags = {}
    for line in lines[1:]:
        parts = line.split()
        flags[int(parts[0])] = parts[1]
    assert {b for b, f in flags.items() if f == "yes"} == {3, 5, 6, 7, 9, 10}
    assert {b for b, f in flags.items() if f == "no"} == {4, 8}


def test_classify_json_and_sweep(capsys):
    code, out, _ = run_cli(capsys, "classify", "--bases", "2..64", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [entry["base"] for entry in doc] == list(range(2, 65))
    non_gappy = {entry["base"] for entry in doc if not entry["gappy"]}
    assert non_gappy == {2, 4, 8, 16, 32, 64}
    by_base = {entry["base"]: entry for entry in doc}
    assert by_base[10]["missing"] == [2, 4, 7, 9]
    assert by_base[16]["missing"] == []


def test_classify_list_syntax(capsys):
    code, out, _ = run_cli(capsys, "classify", "--bases", "16,4,8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [entry["base"] for entry in doc] == [4, 8, 16]
    assert all(not entry["gappy"] for entry in doc)


@pytest.mark.parametrize("bad", ["10..3", "x..y", "", "5..400", "1..4", "1_0", "+5", "\u0663..\u0665", "3 ..5"])
def test_classify_bad_ranges(capsys, bad):
    code, _, err = run_cli(capsys, "classify", "--bases", bad)
    assert code != 0
    assert err.startswith("error:")


PROVE_BASE3 = """\
base=3
S_{3k+0} == 0 (mod 3) [all k]
S_{3k+1} == 1 (mod 3) [all k]
S_{3k+2} == 0 (mod 3) [all k]
missing: {2}
"""


def test_prove_golden_base3(capsys):
    code, out, _ = run_cli(capsys, "prove", "--base", "3")
    assert code == 0
    assert out == PROVE_BASE3


def test_prove_base4_parity_lines(capsys):
    code, out, _ = run_cli(capsys, "prove", "--base", "4")
    assert code == 0
    assert "S_{4k+0} == 0 (mod 4) [k even]" in out
    assert "S_{4k+0} == 2 (mod 4) [k odd]" in out
    assert out.endswith("missing: {}\n")


def test_prove_base2_covers_both_digits(capsys):
    code, out, _ = run_cli(capsys, "prove", "--base", "2")
    assert code == 0
    assert "S_{2k+0}" in out
    assert "S_{2k+1}" in out


def test_prove_out_of_range(capsys):
    code, _, err = run_cli(capsys, "prove", "--base", "300")
    assert code != 0
    assert err.startswith("error:")


def test_freq_full_period_has_zero_deviation(capsys):
    code, out, _ = run_cli(capsys, "freq", "--base", "10", "--count", "20")
    assert code == 0
    assert "max deviation = 0.000000" in out


def test_freq_single_sample(capsys):
    code, out, _ = run_cli(capsys, "freq", "--base", "10", "--count", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_digit = {entry["digit"]: entry for entry in doc["digits"]}
    assert by_digit[1]["count"] == 1
    assert by_digit[1]["proportion"] == 1.0


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_freq_without_count_samples_the_default_size(capsys, fmt):
    default = run_cli(capsys, "freq", "--base", "10", "--format", fmt)
    assert default == run_cli(capsys, "freq", "--base", "10", "--count", "100000", "--format", fmt)
    assert default[0] == 0 and DEFAULT_SAMPLE_SIZE == 100_000
    assert ("count = 100000\n" if fmt == "table" else '"count": 100000,') in default[1]


def test_freq_zero_count_rejected(capsys):
    code, _, err = run_cli(capsys, "freq", "--base", "10", "--count", "0")
    assert code != 0
    assert err.startswith("error:")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_freq_counts_a_huge_sample_exactly(capsys, fmt):
    code, out, err = run_cli(capsys, "freq", "--base", "10", "--count", str(10**18), "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        counts = {entry["digit"]: entry["count"] for entry in json.loads(out)["digits"]}
    else:
        counts = {int(row.split()[0]): int(row.split()[1]) for row in out.splitlines()[3:13]}
    assert counts == {d: 2 * 10**17 if d in (0, 1, 5, 6) else 10**17 if d in (3, 8) else 0
                      for d in range(10)}


def _fraction_freq_rows(base, count):
    """freq's rows from Fraction arithmetic, the way they were first computed."""
    empirical = empirical_frequencies(base, count)
    rows = []
    for d, exact in residue_profile(base).frequency.items():
        proportion = Fraction(empirical.counts[d], count)
        rows.append({
            "digit": d, "count": empirical.counts[d], "proportion": float(proportion),
            "exact": f"{exact.numerator}/{exact.denominator}", "approx": float(exact),
            "deviation": float(abs(proportion - exact)),
        })
    return rows


@pytest.mark.parametrize("count", [1, 7, 999, DEFAULT_SAMPLE_SIZE, 10**30 + 7])
def test_freq_rows_equal_the_fraction_rows_in_every_base(capsys, count):
    for base in range(2, 257):
        rows = _fraction_freq_rows(base, count)
        argv = ["freq", "--base", str(base), "--count", str(count)]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["digits"] == rows
        assert doc["max_deviation"] == max(r["deviation"] for r in rows)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert [line.split() for line in lines[3:-1]] == [
            [str(r["digit"]), str(r["count"]), f"{r['proportion']:.6f}", r["exact"],
             f"{r['approx']:.6f}", f"{r['deviation']:.6f}"]
            for r in rows
        ]
        assert lines[-1] == f"max deviation = {doc['max_deviation']:.6f}"


def test_freq_rows_align_under_a_wide_count_column(capsys):
    code, out, _ = run_cli(capsys, "freq", "--base", "10", "--count", str(10**18))
    assert code == 0
    header, *rows = out.splitlines()[2:13]
    assert len(rows) == 10
    # Every column is right-aligned but the last: a value ends where its
    # title ends, and the last column starts where its title starts.
    columns = [m.span() for m in re.finditer(r"\S+", header)]
    for row in rows:
        spans = [m.span() for m in re.finditer(r"\S+", row)]
        assert [end for _, end in spans[:-1]] == [end for _, end in columns[:-1]]
        assert spans[-1][0] == columns[-1][0]


# Integer options follow parse_natural, the one decimal rule: no
# underscores, signs, spaces or non-ASCII digits.
@pytest.mark.parametrize("argv", [
    ["residues", "--base", "1_0"],
    ["freq", "--base", "10", "--count", "+5_0"],
    ["prove", "--base", "\u0663"],
    ["simulate", "--dynamics", "linear", "--steps", " 7"],
    ["simulate", "--dynamics", "linear", "--steps", "5", "--initial", "-1"],
    ["tri", "13", "--base", "1e1"],
])
def test_option_integers_are_plain_decimals(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert line.endswith(f"argument {argv[-2]}: not a non-negative decimal integer: {argv[-1]!r}")


def test_simulate_linear_table(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--dynamics", "linear", "--steps", "4")
    assert code == 0
    assert "totals = 1 3 6 10" in out


def test_simulate_constant_fit(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--dynamics", "constant:3", "--steps", "5")
    assert code == 0
    assert "totals = 3 6 9 12 15" in out
    assert "fit exponent = 1.000000" in out


def test_simulate_decline_table(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--dynamics", "decline:5,1", "--steps", "6")
    assert code == 0
    assert "dividing = 4 3 2 1 0 0" in out
    assert "totals = 4 7 9 10 10 10" in out


def test_simulate_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--dynamics", "linear", "--steps", "100",
        "--base", "10", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dynamics"] == "linear"
    assert doc["steps"] == 100
    assert doc["total"][:4] == ["1", "3", "6", "10"]
    assert len(doc["total"]) == 100
    assert "exponent" in doc["fit"]
    assert "residual" in doc["fit"]
    counts = {entry["digit"]: entry["count"] for entry in doc["histogram"]["counts"]}
    assert counts[2] == 0 and counts[4] == 0 and counts[7] == 0 and counts[9] == 0


def test_simulate_long_trace_summarized(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--dynamics", "linear", "--steps", "100")
    assert code == 0
    assert "totals = 1 3 6 10 15 ... 5050" in out
    assert "final total = 5050" in out


def test_simulate_initial_total(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--dynamics", "linear", "--steps", "4", "--initial", "5"
    )
    assert code == 0
    assert "totals = 6 8 11 15" in out


def test_simulate_malformed_dynamics(capsys):
    code, _, err = run_cli(capsys, "simulate", "--dynamics", "exp:3", "--steps", "5")
    assert code != 0
    assert "malformed dynamics spec" in err


def test_simulate_rejects_underscore_in_dynamics(capsys):
    code, out, err = run_cli(capsys, "simulate", "--dynamics", "constant:1_0", "--steps", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed dynamics spec") and err.count("\n") == 1


def test_simulate_rejects_base_before_simulating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("simulated before --base was checked")

    monkeypatch.setattr("tridigits.growth.simulate", refuse)
    code, out, err = run_cli(
        capsys, "simulate", "--dynamics", "linear", "--steps", "1000000", "--base", "300"
    )
    assert code == 2
    assert out == ""
    assert err == "error: base must be in [2, 256], got 300\n"


class _Simulated(Exception):
    pass


@pytest.mark.parametrize("steps", [_MAX_STEPS + 1, 10**18])
def test_simulate_refuses_steps_over_the_limit_before_simulating(capsys, monkeypatch, steps):
    def refuse(*args):
        raise AssertionError("simulated over the --steps limit")

    monkeypatch.setattr("tridigits.growth.simulate", refuse)
    for fmt in ("table", "json"):
        code, out, err = run_cli(
            capsys, "simulate", "--dynamics", "linear", "--steps", str(steps), "--format", fmt
        )
        assert (code, out) == (2, "")
        assert err == f"error: steps must be <= {_MAX_STEPS}, got {steps}\n"


def test_simulate_runs_at_the_steps_limit(monkeypatch):
    # stops at the call, so the limit is reached without building a trace that long
    horizons = []

    def record(dynamics, horizon, initial):
        horizons.append(horizon)
        raise _Simulated

    monkeypatch.setattr("tridigits.growth.simulate", record)
    with pytest.raises(_Simulated):
        main(["simulate", "--dynamics", "linear", "--steps", str(_MAX_STEPS), "--base", "10"])
    assert horizons == [_MAX_STEPS]


_WIDE = "1" + "0" * 20000  # 10**20000, 66 439 bits


@pytest.mark.parametrize(
    "argv",
    [
        ["--dynamics", "linear", "--initial", _WIDE],
        ["--dynamics", f"constant:{_WIDE}"],
        ["--dynamics", f"decline:{_WIDE},1"],
    ],
)
def test_simulate_refuses_wide_totals_before_simulating(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("simulated a trace over the size limit")

    monkeypatch.setattr("tridigits.growth.simulate", refuse)
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "simulate", *argv, "--steps", "5000", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            "error: trace too large: 5000 steps of 66439-bit totals; "
            f"steps * max(64, bits) must be <= {_MAX_STEPS * 64}\n"
        )


def test_simulate_runs_at_the_steps_limit_with_64_bit_totals(monkeypatch):
    horizons = []

    def record(dynamics, horizon, initial):
        horizons.append((horizon, initial))
        raise _Simulated

    monkeypatch.setattr("tridigits.growth.simulate", record)
    with pytest.raises(_Simulated):
        main(["simulate", "--dynamics", "linear", "--steps", str(_MAX_STEPS),
              "--initial", str(2**63 - 1)])
    assert horizons == [(_MAX_STEPS, 2**63 - 1)]


def test_simulate_flat_window_prints_a_zero_exponent(capsys):
    # decline:6984,10 stops dividing at t=698: the fit window [9631, 19263] is flat
    argv = ["simulate", "--dynamics", "decline:6984,10", "--steps", "19263", "--initial", "95"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "fit exponent = 0.000000\n" in out
    assert "fit residual = 0.000000\n" in out
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    fit = json.loads(out)["fit"]
    assert (fit["exponent"], fit["residual"], fit["window"]) == (0.0, 0.0, [9631, 19263])


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_simulate_prints_without_materialising_dividing(capsys, monkeypatch, fmt):
    argv = ["simulate", "--dynamics", "decline:90,2", "--steps", "60", "--base", "7", "--format", fmt]
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0

    def refuse(trace):
        raise AssertionError("the CLI built the whole dividing tuple")

    monkeypatch.setattr("tridigits.growth.GrowthTrace.dividing", property(refuse))
    assert run_cli(capsys, *argv) == expected


def whole_simulate_document(spec, steps, initial, base):
    """simulate --format json as one json.dumps of the whole document, totals as strings."""
    dynamics = parse_dynamics(spec)
    trace = simulate(dynamics, steps, initial)
    doc = {"dynamics": dynamics.describe(), "steps": steps, "initial": initial,
           "total": [str(v) for v in trace.total]}
    try:
        fit = fit_power_law(trace)
    except ValueError:
        doc["fit"] = None
    else:
        doc["fit"] = {"exponent": fit.exponent, "offset": fit.offset, "residual": fit.residual,
                      "window": list(fit.window)}
    if base is not None:
        counts = digit_histogram(trace, base).counts
        rows = [{"digit": d, "count": counts[d]} for d in range(base)]
        doc["histogram"] = {"base": base, "counts": rows}
    return json.dumps(doc, indent=2) + "\n"


# steps around the slice size, where the totals array is cut into parts
_SLICE_STEPS = [1, 2, 3, _SLICE - 1, _SLICE, _SLICE + 1, _SLICE + 2, 2 * _SLICE, 2 * _SLICE + 1]


@pytest.mark.parametrize(
    "spec, steps, initial, base",
    [
        (spec, steps, initial, base)
        for spec in ("linear", "constant:7", "decline:9000,1")
        for steps in _SLICE_STEPS
        for initial, base in ((0, None), (5, 10))
    ]
    + [
        ("decline:1,1", 5, 0, None),  # every total is 0: fit unavailable
        ("decline:1,1", 5, 0, 2),
        ("decline:1,1", 1, 0, None),  # one step: window too short
        ("decline:1,1", 3, 4, 256),
        ("constant:" + "9" * 500, 30, 10**60, 7),
    ],
)
def test_simulate_json_equals_one_dump_of_the_document(capsys, spec, steps, initial, base):
    argv = ["simulate", "--dynamics", spec, "--steps", str(steps), "--initial", str(initial)]
    argv += [] if base is None else ["--base", str(base)]
    assert run_cli(capsys, *argv, "--format", "json") == (
        0, whole_simulate_document(spec, steps, initial, base), ""
    )


def test_simulate_json_holds_about_its_output_in_memory():
    # the totals' text is written in slices: the JSON run may hold its
    # output (in the StringIO) but not a second copy of it or a list of
    # one string per total
    argv = ["simulate", "--dynamics", "linear", "--steps", "50000"]
    _run_quietly(argv)  # build the cached parser outside the measurement

    def peak(*extra):
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert main([*argv, *extra]) == 0
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return traced_peak, len(out.getvalue())

    table_peak, _ = peak()
    json_peak, size = peak("--format", "json")
    assert size > 800_000
    assert json_peak - table_peak < 2 * size


def test_simulate_fit_unavailable_is_not_an_error(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--dynamics", "decline:1,1", "--steps", "5")
    assert code == 0
    assert "fit = unavailable" in out
    code, out, _ = run_cli(
        capsys, "simulate", "--dynamics", "decline:1,1", "--steps", "5", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["fit"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["tri", "123", "--base", "7"],
        ["residues", "--base", "12"],
        ["residues", "--base", "12", "--format", "json"],
        ["classify", "--bases", "2..20"],
        ["prove", "--base", "6"],
        ["freq", "--base", "7", "--count", "500"],
        ["simulate", "--dynamics", "decline:9,2", "--steps", "30", "--base", "5"],
    ],
)
def test_identical_invocations_are_byte_identical(capsys, argv):
    code_a = main(list(argv))
    out_a = capsys.readouterr().out
    code_b = main(list(argv))
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize(
    "argv",
    [
        ["tri", "123", "--base", "1"],
        ["residues", "--base", "1", "--format", "json"],
        ["classify", "--bases", "10..3"],
        ["prove", "--base", "300"],
        ["freq", "--base", "10", "--count", "0"],
        ["simulate", "--dynamics", "linear:", "--steps", "5"],
        ["simulate", "--dynamics", "linear", "--steps", "5", "--base", "0", "--format", "json"],
    ],
)
def test_failed_command_leaves_stdout_empty(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def run_both_formats(capsys, *argv):
    _, table_out, _ = run_cli(capsys, *argv)
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    return table_out.splitlines(), json.loads(json_out)


def test_json_and_table_agree_on_content(capsys):
    table, doc = run_both_formats(capsys, "residues", "--base", "7")
    rows = [line.split() for line in table[3 : 3 + 7]]
    for entry, row in zip(doc["frequencies"], rows):
        assert entry["digit"] == int(row[0])
        assert entry["exact"] == row[1]

    table, doc = run_both_formats(capsys, "classify", "--bases", "2..12")
    rows = [line.split() for line in table[1:]]
    assert [
        (e["base"], "yes" if e["gappy"] else "no", "{" + ",".join(map(str, e["missing"])) + "}")
        for e in doc
    ] == [(int(r[0]), r[1], r[2]) for r in rows]
    assert len(doc) == 11 and doc[8]["missing"] == [2, 4, 7, 9]

    table, doc = run_both_formats(capsys, "freq", "--base", "7", "--count", "500")
    rows = [line.split() for line in table[3 : 3 + 7]]
    assert [(e["digit"], e["count"]) for e in doc["digits"]] == [(int(r[0]), int(r[1])) for r in rows]
    assert sum(e["count"] for e in doc["digits"]) == 500

    table, doc = run_both_formats(
        capsys, "simulate", "--dynamics", "decline:90,2", "--steps", "60", "--base", "7"
    )
    fields = dict(line.split(" = ", 1) for line in table if " = " in line)
    assert fields["dynamics"] == doc["dynamics"] == "decline:90,2"
    assert fields["final total"] == doc["total"][-1]
    assert fields["fit window"] == "[{}, {}]".format(*doc["fit"]["window"]) == "[30, 60]"
    assert fields["fit exponent"] == f"{doc['fit']['exponent']:.6f}"
    rows = [line.split() for line in table[table.index("digit  count") + 1 :]]
    counts = doc["histogram"]["counts"]
    assert [(e["digit"], e["count"]) for e in counts] == [(int(r[0]), int(r[1])) for r in rows]
    assert len(counts) == 7 and sum(e["count"] for e in counts) == 60


def test_missing_subcommand_fails(capsys):
    code = main([])
    capsys.readouterr()
    assert code != 0


# One parser serves every main call of the process, so no parse may leave
# state behind that changes the next one: help, version and errors included.
@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--version"],
        [],
        ["bogus"],
        ["residues"],
        ["residues", "--base", "x"],
        ["residues", "--base", "10"],
    ],
)
def test_repeated_main_calls_share_one_parser(capsys, argv):
    first = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv) == first


def test_main_looks_up_handlers_at_call_time(capsys, monkeypatch):
    # the parser is built and cached before the handler is rebound, as
    # happens when a tracer wraps every cmd_* by name after import
    assert run_cli(capsys, "residues", "--base", "10")[1] == RESIDUES_BASE10_TABLE
    monkeypatch.setattr("tridigits.cli.cmd_residues", lambda args: ([f"patched {args.base}"], None))
    assert run_cli(capsys, "residues", "--base", "10") == (0, "patched 10\n", "")


# Numeric values are bounded and free text has no digits, so no draw can
# start unbounded work.
_NUMBER = st.integers(min_value=-5, max_value=2000).map(str)
_BASE = st.integers(min_value=-5, max_value=300).map(str)
_TEXT = st.text(alphabet="abz-_.,: ", max_size=6)
_BASES = st.lists(
    st.one_of(_BASE, st.tuples(_BASE, _BASE).map("..".join)), min_size=1, max_size=3
).map(",".join)
_DYNAMICS = st.one_of(
    st.just("linear"),
    _NUMBER.map("constant:{}".format),
    st.tuples(_NUMBER, _NUMBER).map("decline:{0[0]},{0[1]}".format),
)
_OPTIONS = {
    "tri": {"--base": _BASE},
    "residues": {"--base": _BASE, "--format": st.sampled_from(["table", "json", "xml"])},
    "classify": {"--bases": _BASES, "--format": st.sampled_from(["table", "json"])},
    "prove": {"--base": _BASE},
    "freq": {"--base": _BASE, "--count": _NUMBER, "--format": st.sampled_from(["table", "json"])},
    "simulate": {"--dynamics": _DYNAMICS, "--steps": _NUMBER, "--base": _BASE,
                 "--initial": _NUMBER, "--format": st.sampled_from(["table", "json"])},
}
_REQUIRED = {"--base", "--bases", "--dynamics", "--steps"}


@st.composite
def _argv(draw):
    # one value in ten is free text; the options in _REQUIRED are mostly given
    def value(values):
        return draw(_TEXT if draw(st.integers(0, 9)) == 9 else values)

    command = draw(st.sampled_from([*_OPTIONS, "bogus"]))
    argv = [command] + ([value(_NUMBER)] if command == "tri" else [])
    for option, values in _OPTIONS.get(command, {}).items():
        if draw(st.integers(0, 9)) < (9 if option in _REQUIRED else 5):
            argv += [option, value(values)]
    return argv


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_fuzzed_argv_exits_cleanly_and_repeats(argv):
    code, out, err = _run_quietly(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    assert _run_quietly(argv) == (code, out, err)


# The package's own source tree, whatever the parent process's path.
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "tridigits", "residues", "--base", "10"],
        capture_output=True,
        text=True,
        check=False,
        env=SRC_ENV,
    )
    assert result.returncode == 0
    assert result.stdout == RESIDUES_BASE10_TABLE
    assert result.stderr == ""


# Buffered stdout, as in a plain shell: output shorter than the buffer is
# written only when it is flushed.
BUFFERED_ENV = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}


def test_closed_stdout_exits_quietly():
    # the JSON document is far larger than a pipe buffer, so the write
    # is still blocked when the reader goes away after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "tridigits", "simulate", "--dynamics", "linear",
         "--steps", "200000", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=BUFFERED_ENV,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["residues", "--base", "10"],
    ["tri", "13", "--base", "3"],
    ["prove", "--base", "30"],
    ["classify", "--bases", "2..40"],
])
def test_short_output_into_a_closed_pipe_exits_quietly(argv):
    # the output fits in stdout's buffer, so nothing is written before
    # main flushes; the reader is gone before the child starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "tridigits", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, env=BUFFERED_ENV, check=False, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")
