"""The installed package carries every file under ``splitgame/resources``,
and finds them when it is imported from a zip archive."""
import ast
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import jsonschema
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


def test_shipped_schemas_are_valid_draft_2020_12():
    paths = sorted((PACKAGE_DIR / "resources").glob("*.schema.json"))
    assert len(paths) == 3
    for path in paths:
        schema = json.loads(path.read_text(encoding="utf-8"))
        assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
        jsonschema.Draft202012Validator.check_schema(schema)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert splitgame.__version__ == config["project"]["version"]


# the oldest Python that pyproject.toml's requires-python admits
OLDEST_PYTHON = (3, 10)


@pytest.mark.parametrize(
    "path",
    sorted([*PACKAGE_DIR.glob("*.py"), *(REPO_ROOT / "tests").glob("*.py"),
            *(REPO_ROOT / "tools").glob("*.py")]),
    ids=lambda path: path.relative_to(REPO_ROOT).as_posix(),
)
def test_sources_parse_as_the_oldest_python(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=OLDEST_PYTHON)


def test_oldest_python_is_the_one_pyproject_requires():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert config["project"]["requires-python"] == ">=%d.%d" % OLDEST_PYTHON


def test_ci_runs_the_numpy_floor_on_the_oldest_python():
    # the one job that runs tier-1, the seeding by 32-bit words included,
    # on the oldest numpy pyproject.toml admits: "numpy>=1.24" pins
    # "numpy==1.24.*", on the oldest Python it admits
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    floors = [dep for dep in config["project"]["dependencies"]
              if dep.startswith("numpy>=")]
    assert len(floors) == 1
    floor = floors[0].removeprefix("numpy>=")
    workflow = (REPO_ROOT / ".github/workflows/tier1.yml").read_text(encoding="utf-8")
    jobs = re.findall(
        r'^ *- python: "([\d.]+)"\n *numpy: "numpy==([\d.]+)"$', workflow, re.M
    )
    oldest = "%d.%d" % OLDEST_PYTHON
    assert [
        python for python, pin in jobs if pin.startswith(floor + ".")
    ] == [oldest], jobs
    # the pin reaches the install, and every job runs the tier-1 command
    assert 'pip install -e ".[test]" ${{ matrix.numpy }}' in workflow
    assert "python -m pytest -q --continue-on-collection-errors" in workflow


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
