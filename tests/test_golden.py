"""Saved-output diff: CLI machine output must stay byte-identical.

Each case runs ``cli.main`` with ``--out`` and compares the written bytes
with a file under ``tests/golden/``; the ``--help`` text of the program and
of each command is compared too, at an 80-column terminal because argparse
wraps to the terminal width. A change that is meant to alter an output
regenerates the files with ``python tests/test_golden.py`` and says why in
its change notes.

``corpus.json`` pins what the program says: for each command line in
``CORPUS``, run from the repo root with repo-relative paths, its exit code
and its stdout and stderr, as text when short and as a sha256 otherwise.
Every case runs in process; one case per exit code, and every case whose
stderr carries a ``warning:`` line, also runs as a fresh ``python -m
splitgame`` process.
"""
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from splitgame.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden"
IPD = str(REPO_ROOT / "scenarios" / "ipd.json")

CASES = {
    "solve_published.json": ["solve", "--scenario", IPD],
    "solve_computed.json": ["solve", "--scenario", IPD, "--mode", "computed"],
    "sweep_rs_computed.csv": [
        "sweep", "--scenario", IPD, "--mode", "computed",
        "--grid", "r=0.1:0.9:0.1", "--grid", "s=0.1:0.9:0.1",
    ],
    "sweep_rs_published.csv": [
        "sweep", "--scenario", IPD,
        "--grid", "r=0.1:0.9:0.1", "--grid", "s=0.1:0.9:0.1",
    ],
    "sweep_cq_computed.csv": [
        "sweep", "--scenario", IPD, "--mode", "computed",
        "--grid", "C=1.5:5.5:1", "--grid", "Q=2.5:6.5:1",
    ],
    "simulate.json": ["simulate", "--scenario", IPD, "--trials", "1000"],
    "score.csv": ["score", str(GOLDEN / "cohort.csv")],
}

HELP_CASES = {
    "help_main.txt": [],
    "help_solve.txt": ["solve"],
    "help_sweep.txt": ["sweep"],
    "help_score.txt": ["score"],
    "help_simulate.txt": ["simulate"],
}
HELP_COLUMNS = "80"

SCENARIO = ["--scenario", "scenarios/ipd.json"]
INPUTS = "tests/golden/inputs/"
CORPUS = {
    "solve_published": ["solve", *SCENARIO],
    "solve_paper": ["solve", *SCENARIO, "--mode", "paper"],
    "solve_computed": ["solve", *SCENARIO, "--mode", "computed"],
    "solve_strong_computed": [
        "solve", "--scenario", INPUTS + "strong.json", "--mode", "computed",
    ],
    "solve_bom": ["solve", "--scenario", INPUTS + "bom.json"],
    "solve_cyclic": ["solve", "--scenario", INPUTS + "cyclic.json"],
    "solve_weight_out_of_range": ["solve", "--scenario", INPUTS + "weight.json"],
    "solve_unknown_field": ["solve", "--scenario", INPUTS + "unknown_field.json"],
    "solve_missing_file": ["solve", "--scenario", INPUTS + "missing.json"],
    "sweep_paper": ["sweep", *SCENARIO, "--mode", "paper", "--grid", "r=0.1:0.9:0.2"],
    "sweep_computed": [
        "sweep", *SCENARIO, "--mode", "computed",
        "--grid", "r=0.1:0.9:0.2", "--grid", "s=0.2:0.8:0.3",
    ],
    "sweep_cq_computed": [
        "sweep", *SCENARIO, "--mode", "computed",
        "--grid", "C=1.5:5.5:2", "--grid", "Q=2.5:6.5:2",
    ],
    "sweep_warns": ["sweep", *SCENARIO, "--mode", "computed", "--grid", "C=0.5:1.5:0.5"],
    "sweep_warns_then_gated": ["sweep", *SCENARIO, "--grid", "C=0.5:1.5:0.5"],
    "sweep_bad_grid": ["sweep", *SCENARIO, "--grid", "r=0.1:0.9"],
    "sweep_uneven_span": ["sweep", *SCENARIO, "--grid", "r=0.1:0.95:0.1"],
    "sweep_too_many_steps": ["sweep", *SCENARIO, "--grid", "r=0:1:0.000001"],
    "simulate_paper": ["simulate", *SCENARIO, "--mode", "paper", "--trials", "1000"],
    "simulate_computed": [
        "simulate", *SCENARIO, "--mode", "computed", "--trials", "2000", "--seed", "7",
    ],
    "simulate_over_the_cap": ["simulate", *SCENARIO, "--trials", "100000001"],
    "score_strict": ["score", "tests/golden/cohort.csv"],
    "score_lenient": ["score", INPUTS + "bad_rows.csv", "--lenient"],
    "score_bad_row_strict": ["score", INPUTS + "bad_rows.csv"],
    "score_bom": ["score", INPUTS + "bom.csv"],
    "score_empty_file": ["score", INPUTS + "empty.csv"],
    "score_unreadable_header": ["score", INPUTS + "wide_header.csv"],
    "score_not_utf8": ["score", INPUTS + "latin1.csv", "--lenient"],
    "score_missing_file": ["score", INPUTS + "missing.csv"],
    "usage_no_command": [],
    "usage_bad_mode": ["solve", *SCENARIO, "--mode", "fast"],
}
# longer streams are pinned by their sha256
SHORT_STREAM = 256
PYTHON_WARNING = re.compile(r"^warning: ", re.MULTILINE)


def _help_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        main(argv + ["--help"])
    return out.getvalue().encode("utf-8")


def _stream(data: bytes) -> dict:
    if len(data) <= SHORT_STREAM:
        return {"text": data.decode("utf-8")}
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def _outcome(code, out: bytes, err: bytes) -> dict:
    return {"exit": code, "stdout": _stream(out), "stderr": _stream(err)}


def _in_process(argv):
    """``argv`` through ``cli.main``: exit code, stdout and stderr, under
    the warning filter a fresh interpreter starts with (each warning once
    per location)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def _in_subprocess(argv):
    env = dict(os.environ, COLUMNS=HELP_COLUMNS)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "splitgame", *argv],
        cwd=REPO_ROOT, env=env, capture_output=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def _corpus() -> dict:
    return json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))


def _expected(entry) -> dict:
    return {key: entry[key] for key in ("exit", "stdout", "stderr")}


def test_corpus_lists_every_case():
    assert {name: entry["argv"] for name, entry in _corpus().items()} == CORPUS


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_in_process(name, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    expected = _expected(_corpus()[name])
    assert _outcome(*_in_process(CORPUS[name])) == expected


def test_corpus_in_subprocess():
    """The first case per exit code, and every case that shows a warning,
    as a fresh process."""
    corpus = _corpus()
    first = {}
    for name, entry in corpus.items():
        first.setdefault(entry["exit"], name)
    warns = {name for name, entry in corpus.items() if entry["warns"]}
    for name in sorted(warns | set(first.values())):
        expected = _expected(corpus[name])
        assert _outcome(*_in_subprocess(CORPUS[name])) == expected, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    assert _help_text(HELP_CASES[name]) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code = main(argv + ["--out", str(GOLDEN / name)])
        if code:
            sys.exit(code)
    os.environ["COLUMNS"] = HELP_COLUMNS
    for name, argv in HELP_CASES.items():
        (GOLDEN / name).write_bytes(_help_text(argv))
    corpus = {}
    for name, argv in CORPUS.items():
        code, out, err = _in_subprocess(argv)
        warns = bool(PYTHON_WARNING.search(err.decode("utf-8")))
        corpus[name] = {"argv": argv, **_outcome(code, out, err), "warns": warns}
    (GOLDEN / "corpus.json").write_text(
        json.dumps(corpus, indent=1) + "\n", encoding="utf-8"
    )
