"""Saved-output diff: CLI machine output must stay byte-identical.

Each case runs ``cli.main`` with ``--out`` and compares the written bytes
with a file under ``tests/golden/``. A change that is meant to alter an
output regenerates the files with ``python tests/test_golden.py`` and says
why in its change notes.
"""
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code = main(argv + ["--out", str(GOLDEN / name)])
        if code:
            sys.exit(code)
