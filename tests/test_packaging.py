"""Every data file the program reads is shipped in the package."""
import subprocess
import sys
from pathlib import Path

import pytest

import holdemlab

ROOT = Path(__file__).resolve().parents[1]


def test_every_data_file_matches_a_package_data_glob():
    """Every data file is shipped, and every glob ships a file."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["holdemlab"]
    package = Path(holdemlab.__file__).parent
    shipped = {glob: {path for path in package.glob(glob) if path.is_file()} for glob in globs}
    files = {path for path in (package / "data").rglob("*") if path.is_file()}
    every = set().union(*shipped.values())
    assert files and files <= every, sorted(str(p.relative_to(package)) for p in files - every)
    assert [glob for glob, paths in shipped.items() if not paths] == []


def test_rank_table_generator_rebuilds_the_shipped_table(tmp_path):
    """scripts/make_rank_table.py --check, in a fresh interpreter, rebuilds
    every row with the reference builder and finds the shipped table equal;
    it reads the table and leaves it as it was."""
    table = ROOT / "src" / "holdemlab" / "data" / "rank_table.npy"
    before = table.read_bytes()
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_rank_table.py"), "--check"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "all 8463 rows match" in run.stdout
    assert table.read_bytes() == before and not list(tmp_path.iterdir())
