"""The package has no runtime dependencies: its modules import the stdlib only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tridigits


def test_imports_only_the_standard_library():
    sources = sorted(Path(tridigits.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def run_fresh(code: str) -> str:
    """What ``code`` prints in a new interpreter; -S: no site hooks, which import modules themselves."""
    env = {**os.environ, "PYTHONPATH": str(Path(tridigits.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=False, env=env, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_the_cli_does_not_import_typing():
    assert run_fresh("import sys, tridigits.cli; print('typing' in sys.modules)") == "False\n"


# One argv per subcommand, and the layers besides core that it needs.
SUBCOMMANDS = {
    "tri": (["tri", "12345", "--base", "7"], []),
    "residues": (["residues", "--base", "10", "--format", "json"], ["residues"]),
    "classify": (["classify", "--bases", "2..16", "--format", "json"], ["residues"]),
    "freq": (["freq", "--base", "10", "--format", "json"], ["residues"]),
    "prove": (["prove", "--base", "10"], ["prover", "residues"]),
    "simulate": (["simulate", "--dynamics", "linear", "--steps", "50", "--base", "10"],
                 ["growth", "residues"]),
}
ARGVS = [argv for argv, _ in SUBCOMMANDS.values()]
LAYERS = ("core", "residues", "prover", "pascal", "growth")
LAZY = [f"tridigits.{layer}" for layer in LAYERS[1:]] + ["json", "decimal", "fractions", "statistics"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_loads_only_its_own_layers(command):
    argv, layers = SUBCOMMANDS[command]
    code = f"""
import contextlib, io, sys
import tridigits.cli
print(sorted(set({LAZY!r}) & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()):
    assert tridigits.cli.main({argv!r}) == 0
print(sorted(name for name in {LAYERS!r} if "tridigits." + name in sys.modules))
"""
    assert run_fresh(code).splitlines() == ["[]", repr(sorted(["core", *layers]))]


def test_public_names_are_read_through_and_never_bound():
    # Neither namespace may keep a public function once it is read, or a tracer's wrapper
    # bound there would outlive the tracer.
    code = f"""
import contextlib, io
import tridigits, tridigits.cli
cli_keys = set(vars(tridigits.cli))
exec("from tridigits import *", {{}})
listed = set(dir(tridigits))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {ARGVS!r}:
        assert tridigits.cli.main(argv) == 0
layers = [getattr(tridigits, name) for name in {LAYERS!r}]
names = [name for layer in layers for name in layer.__all__]
print(len(names), names == tridigits.__all__, set(names) <= listed)
print(all(getattr(tridigits, name) is getattr(layer, name) for layer in layers for name in layer.__all__))
print(sorted(set(names) & set(vars(tridigits))), sorted(set(vars(tridigits.cli)) ^ cli_keys))
"""
    assert run_fresh(code).splitlines() == ["38 True True", "True", "[] []"]
