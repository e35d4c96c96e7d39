"""The package re-exports exactly its layers' public names, each once."""

import importlib

import tridigits

LAYERS = ("core", "residues", "prover", "pascal", "growth")

PUBLIC_NAMES = [
    "MIN_BASE", "MAX_BASE", "DigitString", "tri_exact", "tri_mod", "to_digits", "from_digits",
    "parse_natural", "validate_base", "validate_natural",
    "ResidueProfile", "EmpiricalFrequencies", "residue_profile", "classify_base",
    "empirical_frequencies", "power_of_two_sweep", "fundamental_window", "DEFAULT_SAMPLE_SIZE",
    "CongruenceCase", "ProofTranscript", "enumerate_cases", "verify_case", "render_transcript",
    "PARITY_ANY", "PARITY_EVEN", "PARITY_ODD",
    "PascalRow", "pascal_row", "iter_rows", "quadratic_diagonal",
    "DividingDynamics", "GrowthTrace", "PowerLawFit", "simulate", "fit_power_law",
    "digit_histogram", "default_window", "parse_dynamics",
]


def test_each_public_name_is_listed_once_by_its_layer():
    assert tridigits.__all__ == PUBLIC_NAMES
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES) == 38
    layers = [importlib.import_module(f"tridigits.{layer}") for layer in LAYERS]
    # Disjoint layer lists that, in layer order, make up the package's list.
    assert [name for layer in layers for name in layer.__all__] == PUBLIC_NAMES
    for layer in layers:
        for name in layer.__all__:
            assert getattr(tridigits, name) is getattr(layer, name), f"{layer.__name__}.{name}"
