import dataclasses

import pytest

from tridigits import (
    PARITY_ANY,
    PARITY_EVEN,
    PARITY_ODD,
    CongruenceCase,
    ProofTranscript,
    enumerate_cases,
    render_transcript,
    residue_profile,
    tri_mod,
    verify_case,
)


def test_base3_cases_complete():
    t = enumerate_cases(3)
    assert t.cases == (
        CongruenceCase(3, 0, PARITY_ANY, 0),
        CongruenceCase(3, 1, PARITY_ANY, 1),
        CongruenceCase(3, 2, PARITY_ANY, 0),
    )
    assert t.derived_missing == (2,)
    assert t.derived_reachable == frozenset({0, 1})


def test_base4_parity_splits():
    t = enumerate_cases(4)
    by_key = {(c.input_digit, c.k_parity): c.output_digit for c in t.cases}
    assert by_key[(0, PARITY_EVEN)] == 0
    assert by_key[(0, PARITY_ODD)] == 2
    assert by_key[(1, PARITY_EVEN)] == 1
    assert by_key[(1, PARITY_ODD)] == 3
    assert t.derived_missing == ()
    assert t.derived_reachable == frozenset({0, 1, 2, 3})


def test_base2_splits_by_parity():
    # the k = 0 and k = 1 representatives disagree for both index digits,
    # so base 2 has no all-k case at all
    assert tri_mod(1, 2) == 1
    assert tri_mod(3, 2) == 0
    t = enumerate_cases(2)
    assert len(t.cases) == 4
    assert {c.input_digit for c in t.cases} == {0, 1}
    assert all(c.k_parity in (PARITY_EVEN, PARITY_ODD) for c in t.cases)
    assert t.derived_missing == ()


@pytest.mark.parametrize("base", [2, 3, 4, 5, 10, 17, 64])
def test_every_index_digit_covered(base):
    per_digit: dict[int, list[str]] = {}
    for c in enumerate_cases(base).cases:
        per_digit.setdefault(c.input_digit, []).append(c.k_parity)
    assert set(per_digit) == set(range(base))
    for parities in per_digit.values():
        assert parities == [PARITY_ANY] or parities == [PARITY_EVEN, PARITY_ODD]


def test_verify_case_examples():
    assert verify_case(CongruenceCase(3, 2, PARITY_ANY, 0), 100)
    assert verify_case(CongruenceCase(3, 1, PARITY_ANY, 1), 100)
    # the claim "ends with 2" fails immediately
    assert not verify_case(CongruenceCase(3, 0, PARITY_ANY, 2), 100)


def test_verify_case_rejects_bad_limit():
    with pytest.raises(ValueError):
        verify_case(CongruenceCase(3, 0, PARITY_ANY, 0), 0)


def test_verify_case_checks_only_its_parity():
    # T(4k) mod 4 is 0 for even k and 2 for odd k
    assert verify_case(CongruenceCase(4, 0, PARITY_EVEN, 0), 10)
    assert verify_case(CongruenceCase(4, 0, PARITY_ODD, 2), 10)
    assert not verify_case(CongruenceCase(4, 0, PARITY_ANY, 0), 10)
    assert not verify_case(CongruenceCase(4, 0, PARITY_ODD, 0), 10)
    with pytest.raises(ValueError, match="unknown parity"):
        verify_case(CongruenceCase(4, 0, "sometimes", 0), 10)


def test_all_emitted_cases_sound():
    for base in range(2, 65):
        for case in enumerate_cases(base).cases:
            assert verify_case(case, 1000)


def test_reachable_agrees_with_residue_profile():
    for base in range(2, 65):
        assert enumerate_cases(base).derived_reachable == residue_profile(base).reachable


def test_missing_is_the_complement_of_the_reachable_digits():
    for base in range(2, 257):
        t = enumerate_cases(base)
        oracle = tuple(sorted(set(range(base)) - t.derived_reachable))
        assert t.derived_missing == oracle == residue_profile(base).missing_digits


def test_transcript_stores_only_its_base_and_cases():
    assert [f.name for f in dataclasses.fields(ProofTranscript)] == ["base", "cases"]


def test_transcript_with_no_cases_misses_every_digit():
    t = ProofTranscript(10, ())
    assert (t.derived_reachable, t.derived_missing) == (frozenset(), tuple(range(10)))
    assert render_transcript(t).endswith("missing: {0,1,2,3,4,5,6,7,8,9}\n")


@pytest.mark.parametrize(
    "base, error",
    [(300, ValueError), (1, ValueError), (10**12, ValueError), (True, TypeError), (10.0, TypeError)],
)
def test_transcript_rejects_a_bad_base(base, error):
    with pytest.raises(error):
        ProofTranscript(base, ())


GOLDEN_BASE3 = """\
base=3
S_{3k+0} == 0 (mod 3) [all k]
S_{3k+1} == 1 (mod 3) [all k]
S_{3k+2} == 0 (mod 3) [all k]
missing: {2}
"""


def test_render_golden_base3():
    assert render_transcript(enumerate_cases(3)) == GOLDEN_BASE3


def test_render_base4_lines():
    text = render_transcript(enumerate_cases(4))
    assert text.startswith("base=4\n")
    assert "S_{4k+0} == 2 (mod 4) [k odd]" in text
    assert "S_{4k+1} == 3 (mod 4) [k odd]" in text
    assert text.endswith("missing: {}\n")


def test_render_deterministic():
    assert render_transcript(enumerate_cases(37)) == render_transcript(enumerate_cases(37))
