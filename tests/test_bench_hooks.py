"""The names the benchmark's tracer wraps still exist where it looks for them.

``perfbench/spans.py`` wraps each public function in ``FUNCTIONS`` by name.
Renaming or deleting one would break the benchmark, not the package, so
tier-1 reads the table (without importing perfbench) and resolves it.
"""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def wrapped_functions() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS table in {SPANS}")


def test_every_wrapped_name_resolves():
    missing = []
    for layer, names in wrapped_functions().items():
        module = importlib.import_module(f"tridigits.{layer}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            # A method is wrapped in its class's own namespace, as the tracer does.
            owner = vars(getattr(module, owner_name)) if owner_name else vars(module)
            if not callable(owner.get(attr)):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_iter_rows_is_still_a_generator():
    # The tracer counts Pascal entries as a generator yields its rows.
    assert inspect.isgeneratorfunction(importlib.import_module("tridigits.pascal").iter_rows)
