"""Each walk-through in demos/ runs to the end against the package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holdemlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # In a fresh interpreter, in an empty directory: a demo may write
    # files (03 writes its final grid) where it runs.
    src = str(Path(holdemlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
