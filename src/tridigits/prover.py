"""Case-by-case congruence facts for units digits of triangular numbers.

Write an index as n = L*k + i. Because tri_mod has period dividing 2L,
the residue of the triangular number mod L is decided entirely by i and
the parity of k. Evaluating the k = 0 and k = 1 representatives for each
i therefore settles every case, and any emitted fact can be re-checked
directly against as many k as desired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import tri_mod, validate_base, validate_natural
from .residues import _digit_set, _missing, fundamental_window

__all__ = [
    "CongruenceCase", "ProofTranscript", "enumerate_cases", "verify_case", "render_transcript",
    "PARITY_ANY", "PARITY_EVEN", "PARITY_ODD",
]

PARITY_ANY = "any"
PARITY_EVEN = "even"
PARITY_ODD = "odd"

# Per parity: its transcript tag, and the k it covers as range(first, ..., step).
_PARITY = {PARITY_ANY: ("all k", 0, 1), PARITY_EVEN: ("k even", 0, 2), PARITY_ODD: ("k odd", 1, 2)}


@dataclass(frozen=True)
class CongruenceCase:
    """One verified fact: T(L*k + input_digit) == output_digit (mod L),
    for every k of the stated parity."""

    base: int
    input_digit: int
    k_parity: str  # "any" | "even" | "odd"
    output_digit: int


@dataclass(frozen=True)
class ProofTranscript:
    """The cases of one base; the reachable and missing digits are read from them."""

    base: int
    cases: tuple[CongruenceCase, ...]

    def __post_init__(self) -> None:
        validate_base(self.base)  # bounds the range derived_missing walks

    @property
    def derived_reachable(self) -> frozenset[int]:
        return frozenset(c.output_digit for c in self.cases)

    @property
    def derived_missing(self) -> tuple[int, ...]:
        return _missing(self.base, self.derived_reachable)


def enumerate_cases(base: int) -> ProofTranscript:
    """Complete case enumeration for one base.

    For each units digit i of the index, the k = 0 and k = 1
    representatives, read from the fundamental window, give the even-k
    and odd-k residues. When they coincide the case holds for all k;
    otherwise it splits into an even/odd pair. 2L-periodicity
    guarantees no finer split exists.
    """
    window = fundamental_window(base)
    cases: list[CongruenceCase] = []
    for i in range(base):
        j_even, j_odd = window[i], window[base + i]
        if j_even == j_odd:
            cases.append(CongruenceCase(base, i, PARITY_ANY, j_even))
        else:
            cases.append(CongruenceCase(base, i, PARITY_EVEN, j_even))
            cases.append(CongruenceCase(base, i, PARITY_ODD, j_odd))
    return ProofTranscript(base=base, cases=tuple(cases))


def _parity(case: CongruenceCase) -> tuple[str, int, int]:
    """The case's row of _PARITY; ValueError for an unknown parity."""
    if case.k_parity not in _PARITY:
        raise ValueError(f"unknown parity {case.k_parity!r}")
    return _PARITY[case.k_parity]


def verify_case(case: CongruenceCase, k_limit: int) -> bool:
    """Check the fact against every admissible k with 0 <= k <= k_limit."""
    validate_natural(k_limit, "k_limit", 1)
    _, first, step = _parity(case)
    base, i, j = validate_base(case.base), case.input_digit, case.output_digit
    if validate_natural(i, "input_digit") >= base or validate_natural(j, "output_digit") >= base:
        raise ValueError(f"digits {i} and {j} must be below the base {base}")
    return all(tri_mod(base * k + i, base) == j for k in range(first, k_limit + 1, step))


def render_transcript(transcript: ProofTranscript) -> str:
    """Fixed ASCII rendering, one case per line, stable across runs.

    Format: header ``base=L``, lines ``S_{Lk+i} == j (mod L) [tag]``
    with tag one of ``k even | k odd | all k``, footer ``missing: {...}``.
    """
    base = transcript.base
    lines = [f"base={base}"]
    for c in transcript.cases:
        tag = _parity(c)[0]
        lines.append(f"S_{{{base}k+{c.input_digit}}} == {c.output_digit} (mod {base}) [{tag}]")
    lines.append(f"missing: {_digit_set(transcript.derived_missing)}")
    return "\n".join(lines) + "\n"
