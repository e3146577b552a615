import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # each demo in a fresh interpreter, so a public name or option it still
    # uses cannot be removed without this test noticing
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
