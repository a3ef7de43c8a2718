"""Saved-output diff: CLI machine output must stay byte-identical.

Each case runs ``cli.main`` with ``--out`` and compares the written bytes
with a file under ``tests/golden/``; the ``--help`` text of the program and
of each command is compared too, at an 80-column terminal because argparse
wraps to the terminal width. A change that is meant to alter an output
regenerates the files with ``python tests/test_golden.py`` and says why in
its change notes.
"""
import contextlib
import io
import os
import sys
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


def _help_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        main(argv + ["--help"])
    return out.getvalue().encode("utf-8")


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
