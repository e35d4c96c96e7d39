"""The package has no runtime dependencies: its modules import the stdlib only."""

import ast
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
