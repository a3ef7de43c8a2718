"""``tools/ab.py`` run as a script: the shape of its table, never a timing."""
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _has_history():
    return shutil.which("git") is not None and subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", "HEAD"],
        cwd=REPO_ROOT, capture_output=True,
    ).returncode == 0


@pytest.mark.skipif(not _has_history(), reason="needs the repository's git history")
def test_an_aa_run_prints_a_row_for_its_case():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "ab.py"),
         "--base", "HEAD", "--rounds", "3", "--case", "verify_tight"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    title, versions, header, *rows = proc.stdout.splitlines()
    assert re.fullmatch(
        r"base \w+, head working tree; 5 repeats of 3 rounds, blocks of 20 ops", title
    )
    assert re.fullmatch(r"cpus \d+, python \S+, numpy \S+", versions)
    assert header.split() == [
        "case", "A/A", "A/B", "verdict",
        "base", "us/op", "head", "us/op", "base", "KB/op", "head", "KB/op",
    ]
    (row,) = rows
    ratio = r"\d+\.\d{3}-\d+\.\d{3}"
    number = r"\d+\.\d"
    assert re.fullmatch(
        rf"verify_tight +{ratio} +{ratio} +(faster|slower|unresolved)"
        rf"( +{number}){{4}}",
        row,
    ), row
