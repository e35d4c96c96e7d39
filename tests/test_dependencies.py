"""The package has no runtime dependencies: its modules import the stdlib only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_the_cli_does_not_import_typing():
    # -S: no site hooks, which may import typing themselves
    code = "import sys, tridigits.cli; print('typing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(tridigits.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=False, env=env, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")
