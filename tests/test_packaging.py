"""The installed package carries every file under ``splitgame/resources``,
and finds them when it is imported from a zip archive."""
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import splitgame

PACKAGE_DIR = Path(splitgame.__file__).parent
REPO_ROOT = PACKAGE_DIR.parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"


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


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert splitgame.__version__ == config["project"]["version"]


# check -> the interpreter's arguments, run from the repository root
_ZIPPED_RUNS = {
    "solve": ["-m", "splitgame", "solve", "--scenario", "scenarios/ipd.json"],
    "score": ["-m", "splitgame", "score", "tests/golden/cohort.csv"],
    "ipd_scenario": [
        "-c",
        "import json, sys, splitgame\n"
        "print(splitgame.__file__, file=sys.stderr)\n"
        "json.dump(splitgame.ipd_scenario().to_dict(), sys.stdout)",
    ],
}


@pytest.fixture(scope="module")
def zipped_package(tmp_path_factory):
    """The package source, resources included, as a zip archive."""
    archive = tmp_path_factory.mktemp("zipped") / "splitgame.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in sorted(PACKAGE_DIR.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                bundle.write(path, path.relative_to(PACKAGE_DIR.parent).as_posix())
    return archive


def _run_from(location, argv):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(location)},
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("run", sorted(_ZIPPED_RUNS))
def test_a_zipped_package_reads_its_resources(zipped_package, run):
    # the package data is read through the import loader, so a package
    # imported from a zip archive finds it there
    zipped = _run_from(zipped_package, _ZIPPED_RUNS[run])
    unzipped = _run_from(PACKAGE_DIR.parent, _ZIPPED_RUNS[run])
    assert zipped.returncode == unzipped.returncode == 0, zipped.stderr
    assert zipped.stdout and zipped.stdout == unzipped.stdout
    if run == "ipd_scenario":
        assert zipped.stderr.decode().startswith(str(zipped_package))
