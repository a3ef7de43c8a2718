"""The installed package carries every file under ``splitgame/resources``."""
from pathlib import Path

import pytest

import splitgame

PACKAGE_DIR = Path(splitgame.__file__).parent
PYPROJECT = PACKAGE_DIR.parent.parent / "pyproject.toml"


def test_package_data_globs_cover_every_resource():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["splitgame"]
    shipped = {path for pattern in globs for path in PACKAGE_DIR.glob(pattern)}
    resources = {
        path for path in (PACKAGE_DIR / "resources").rglob("*") if path.is_file()
    }
    assert "ipd.json" in {path.name for path in resources}
    assert resources <= shipped
