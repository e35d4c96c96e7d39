import os
import subprocess
import sys
from pathlib import Path

import pytest

import tridigits

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(tridigits.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, check=False,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
