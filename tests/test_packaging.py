"""Every data file the program reads is shipped in the package."""
from pathlib import Path

import pytest

import holdemlab

ROOT = Path(__file__).resolve().parents[1]


def test_every_data_file_matches_a_package_data_glob():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["holdemlab"]
    package = Path(holdemlab.__file__).parent
    shipped = {path for glob in globs for path in package.glob(glob)}
    files = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert files and files <= shipped, sorted(str(p.relative_to(package)) for p in files - shipped)
