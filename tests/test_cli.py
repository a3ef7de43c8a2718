import codecs
import copy
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from splitgame import (
    DomainError,
    InconsistentOrderError,
    ValidationError,
    ipd_scenario,
    solve,
)
from splitgame import cli
from splitgame.cli import (
    _EXIT_CODE_DOC,
    _LINE_MAX,
    GRID_MAX_ROWS,
    GRID_MAX_STEPS,
    _show_warning,
    main,
)
from splitgame.montecarlo import MAX_TRIALS

SURVEY_HEADER = "respondent_id,item1,item2,item3,item4,item5,item6,item7"
GOLDEN = REPO_ROOT / "tests" / "golden"


def _warning_line(score):
    """The stderr line the CLI prints for a score outside the scale
    interior."""
    return f"warning: score {score!r} is outside the scale interior (1, 10)"


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def ipd_dict(ipd):
    return ipd.to_dict()


def test_each_bucket_exit_code_is_documented():
    buckets = {
        cls.exit_code
        for cls in (ValidationError, InconsistentOrderError, DomainError)
    }
    assert buckets == {4, 5, 6}
    epilog = {int(line.split()[0]) for line in _EXIT_CODE_DOC.splitlines()[1:]}
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Exit codes\n", 1)[1].split("\n#", 1)[0]
    listed = {int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)}
    for codes in (epilog, listed):
        # every bucket's code is listed, and every listed 4-6 is a bucket's
        assert {code for code in codes if 4 <= code <= 6} == buckets


class TestSolveCommand:
    def test_report_on_stdout(self, ipd_path, capsys):
        assert main(["solve", "--scenario", ipd_path]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["results"]["p_em12"] == pytest.approx(0.1545, abs=1e-12)
        assert report["results"]["nash_cells"] == [[0, 0], [1, 1]]
        assert report["scenario"]["name"] == "ipd"
        assert "p_em12=0.1545" in err

    def test_mode_override_alias(self, ipd_path, capsys):
        assert main(["solve", "--scenario", ipd_path, "--mode", "paper"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "published"

    def test_mode_override_computed(self, ipd_path, capsys):
        assert main(["solve", "--scenario", ipd_path, "--mode", "computed"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["p_em12"] == pytest.approx(
            0.12001423150691026, abs=1e-9
        )

    def test_out_file(self, ipd_path, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["solve", "--scenario", ipd_path, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert report["case"] == "weak_evidence"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["solve", "--scenario", str(tmp_path / "nope.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["solve", "--scenario", str(path)]) == 4

    def test_schema_violation_names_field(self, tmp_path, ipd_dict, capsys):
        ipd_dict["extra_knob"] = True
        path = write_scenario(tmp_path, ipd_dict)
        assert main(["solve", "--scenario", path]) == 4
        assert "extra_knob" in capsys.readouterr().err

    def test_cycle_is_inconsistency_error(self, tmp_path, ipd_dict, capsys):
        ipd_dict["constraints"].append(
            {"left": "EM21", "right": "EM11", "probability": 1.0}
        )
        path = write_scenario(tmp_path, ipd_dict)
        assert main(["solve", "--scenario", path]) == 5
        err = capsys.readouterr().err
        assert "cycle" in err and "EM21" in err

    def test_weight_domain_error(self, tmp_path, ipd_dict, capsys):
        ipd_dict["parameters"]["r"] = 1.0
        path = write_scenario(tmp_path, ipd_dict)
        assert main(["solve", "--scenario", path]) == 6

    def test_nan_variance_fails_cleanly(self, tmp_path, ipd_dict, capsys):
        ipd_dict["parameters"]["variance"] = float("nan")
        path = write_scenario(tmp_path, ipd_dict)
        code = main(["solve", "--scenario", path, "--mode", "computed"])
        out, err = capsys.readouterr()
        assert code in (4, 6)
        assert out == ""
        assert "error:" in err

    def test_nan_prior_fails_cleanly(self, tmp_path, ipd_dict, capsys):
        ipd_dict["events"]["prior"] = [float("nan"), 0.5, 0.5]
        path = write_scenario(tmp_path, ipd_dict)
        code = main(["solve", "--scenario", path])
        out, err = capsys.readouterr()
        assert code in (4, 6)
        assert out == ""
        assert "error:" in err

    def test_byte_order_mark_solves_like_the_plain_file(self, ipd_path, tmp_path):
        # RFC 8259 lets a parser ignore a leading byte order mark
        path = tmp_path / "bom.json"
        path.write_bytes(codecs.BOM_UTF8 + Path(ipd_path).read_bytes())
        out = tmp_path / "report.json"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "solve_published.json").read_bytes()

    def test_usage_error_without_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_weight_grid_csv(self, ipd_path, capsys):
        code = main(
            ["sweep", "--scenario", ipd_path, "--grid", "r=0.1:0.9:0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "r", "p_em12", "p_pf21", "p_cell_11", "p_cell_22", "indeterminate",
        ]
        assert len(rows) == 10  # header + 9 grid points
        cell22 = [float(row[4]) for row in rows[1:]]
        assert all(b < a for a, b in zip(cell22, cell22[1:]))

    def test_step_that_overshoots_the_stop_ends_below_it(self, ipd_path, capsys):
        # 0.1:0.95 is 8.5 steps of 0.1; the grid stops at the last whole step
        code = main(["sweep", "--scenario", ipd_path, "--grid", "r=0.1:0.95:0.1"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        r = [float(row[0]) for row in rows[1:]]
        assert len(r) == 9
        assert r[0] == 0.1 and r[-1] == pytest.approx(0.9, abs=1e-12)

    def test_values_full_precision(self, ipd_path, capsys):
        main(["sweep", "--scenario", ipd_path, "--grid", "r=0.5:0.5:0.1"])
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        report = solve(ipd_scenario())
        assert float(rows[1][1]) == report.p_em12
        assert float(rows[1][4]) == report.p_cell_22

    @pytest.mark.parametrize(
        "spec, summary",
        [("r=0.5:0.5:0.1", "sweep: 1 row over r"),
         ("r=0.5:0.6:0.1", "sweep: 2 rows over r")],
        ids=["one_row", "two_rows"],
    )
    def test_summary_counts_rows(self, ipd_path, spec, summary, capsys):
        assert main(["sweep", "--scenario", ipd_path, "--grid", spec]) == 0
        assert capsys.readouterr().err == summary + "\n"

    def test_two_parameter_grid(self, ipd_path, capsys):
        code = main(
            [
                "sweep",
                "--scenario", ipd_path,
                "--grid", "s=0.2:0.8:0.3",
                "--grid", "r=0.1:0.7:0.3",
            ]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:2] == ["r", "s"]
        assert len(rows) == 10
        combos = [(float(r[0]), float(r[1])) for r in rows[1:]]
        assert combos == sorted(combos)

    @pytest.mark.parametrize(
        "spec",
        [
            "r=0.1:0.9", "r=a:b:c", "r0.1:0.9:0.1", "r=0.9:0.1:0.1",
            "r=0.1:0.9:0", "r=0:1:nan", "r=nan:1:0.1", "r=0:inf:1",
            "r=-1e308:1e308:1e300", "r=0:1:5e-6",
        ],
    )
    def test_malformed_grid_spec(self, ipd_path, spec, capsys):
        assert main(["sweep", "--scenario", ipd_path, "--grid", spec]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: grid spec {spec!r}")

    def test_duplicate_parameter_rejected(self, ipd_path):
        code = main(
            [
                "sweep",
                "--scenario", ipd_path,
                "--grid", "r=0.1:0.5:0.1",
                "--grid", "r=0.6:0.9:0.1",
            ]
        )
        assert code == 4

    def test_grid_rows_capped(self, ipd_path, capsys):
        # each axis holds 9801 points, well under the per-axis cap, but
        # their product is about 9.6e7 rows
        code = main(
            [
                "sweep",
                "--scenario", ipd_path,
                "--grid", "r=0.01:0.99:1e-4",
                "--grid", "s=0.01:0.99:1e-4",
            ]
        )
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: grid spec 's=0.01:0.99:1e-4': grid exceeds 1000000 rows\n"
        )

    def test_grid_flag_required(self, ipd_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", ipd_path])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "grids, code, lines",
        [
            # warned in the order the points first meet the scores
            (
                ["C=0.5:1.0:0.5", "Q=10:10:1", "r=0.25:0.75:0.25"],
                0,
                [_warning_line(0.5), _warning_line(10.0), _warning_line(1.0),
                 "sweep: 6 rows over C, Q, r"],
            ),
            (
                ["C=0.5:11:0.5"],
                6,
                [_warning_line(0.5), _warning_line(1.0), _warning_line(10.0),
                 "error: score 10.5 exceeds the 10-point scale"],
            ),
            # the second point fails on s = 1.0 before C = 1.0 is reached
            (
                ["C=0.5:1.0:0.5", "s=0.5:1.5:0.5"],
                6,
                [_warning_line(0.5),
                 "error: weight must lie strictly inside (0, 1), got 1.0; "
                 "boundary values appear only in reported bounds"],
            ),
            # about 860k points, failing at the last C; checked axis by axis
            (
                ["C=0.5:11:0.5", "r=0.001:0.999:0.001", "s=0.1:0.9:0.02"],
                6,
                [_warning_line(0.5), _warning_line(1.0), _warning_line(10.0),
                 "error: score 10.5 exceeds the 10-point scale"],
            ),
        ],
        ids=["warned", "error_after_warnings", "error_on_other_axis",
             "error_on_a_large_grid"],
    )
    def test_stderr_under_default_warning_filter(
        self, ipd_path, grids, code, lines
    ):
        # a fresh interpreter with no -W option or PYTHONWARNINGS shows each
        # distinct warning once; these bytes are a point-by-point sweep's
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        argv = [sys.executable, "-m", "splitgame", "sweep", "--scenario",
                ipd_path, "--mode", "computed"]
        for grid in grids:
            argv += ["--grid", grid]
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert result.returncode == code
        assert result.stderr == "".join(line + "\n" for line in lines)


class TestScoreCommand:
    def test_single_max_respondent(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(f"{SURVEY_HEADER}\nr1,f,a,f,a,a,a,f\n")
        assert main(["score", str(path)]) == 0
        out, err = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["respondent_id", "raw_sum", "p_index"]
        assert rows[1] == ["r1", "42", "10.0"]
        assert "aggregate p-index over 1 respondents: 10" in err

    def test_three_respondent_cohort(self, tmp_path, capsys):
        path = tmp_path / "cohort.csv"
        path.write_text(
            f"{SURVEY_HEADER}\n"
            "r1,f,a,f,a,a,a,f\n"
            "r2,e,b,d,c,a,f,f\n"
            "r3,a,f,a,f,f,f,a\n"
        )
        assert main(["score", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "5.61905" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["r1", "r2", "r3"]
        assert float(rows[2][2]) == pytest.approx(6.857, abs=1e-3)

    def test_bad_cell_fatal_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"{SURVEY_HEADER}\nr1,a,a,a,a,a,a,a\nr2,g,a,a,a,a,a,a\n")
        assert main(["score", str(path)]) == 4
        assert "line 3" in capsys.readouterr().err

    def test_lenient_skips_bad_rows(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"{SURVEY_HEADER}\nr1,g,a,a,a,a,a,a\nr2,f,a,f,a,a,a,f\n")
        assert main(["score", str(path), "--lenient"]) == 0
        out, err = capsys.readouterr()
        assert "warning: line 2" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["r2"]

    def test_lenient_with_no_valid_rows_fails(self, tmp_path, capsys):
        path = tmp_path / "allbad.csv"
        path.write_text(f"{SURVEY_HEADER}\nr1,g,a,a,a,a,a,a\n")
        assert main(["score", str(path), "--lenient"]) == 4

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert main(["score", str(path)]) == 4
        assert capsys.readouterr().err == f"error: {path}: empty file\n"

    def test_header_field_over_the_csv_limit(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("respondent_id," + "x" * 131073 + "\n")
        assert main(["score", str(path)]) == 4
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: field larger than field limit (131072)\n"
        )

    def test_out_file(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text(f"{SURVEY_HEADER}\nr1,a,f,a,f,f,f,a\n")
        out_path = tmp_path / "scores.csv"
        assert main(["score", str(data), "--out", str(out_path)]) == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[1] == ["r1", "7", "0.0"]


    def test_byte_order_mark_scores_like_the_plain_file(self, tmp_path):
        # spreadsheet exports start the file with one
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + (GOLDEN / "cohort.csv").read_bytes())
        out = tmp_path / "scores.csv"
        assert main(["score", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "score.csv").read_bytes()


class TestSimulateCommand:
    def test_side_by_side_payload(self, tmp_path, ipd_dict, capsys):
        ipd_dict["mc"] = {"trials": 20_000, "seed": 7}
        path = write_scenario(tmp_path, ipd_dict)
        assert main(["simulate", "--scenario", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = solve(ipd_scenario())
        assert payload["closed_form"]["p_cell_11"] == report.p_cell_11
        empirical = payload["empirical"]
        assert empirical["trials"] == 20_000
        assert empirical["seed"] == 7
        assert empirical["algorithm"] == "pcg64"
        diff = payload["difference"]["p_cell_11"]
        assert diff == pytest.approx(
            empirical["freq_cell_11"] - report.p_cell_11, abs=1e-15
        )
        assert abs(diff) < 0.02

    def test_flags_override_mc_block(self, ipd_path, capsys):
        code = main(
            ["simulate", "--scenario", ipd_path, "--trials", "1", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        freqs = [
            payload["empirical"]["freq_cell_11"],
            payload["empirical"]["freq_cell_22"],
            payload["empirical"]["freq_indeterminate"],
        ]
        assert all(f in (0.0, 1.0) for f in freqs)
        assert sum(freqs) == 1.0

    def test_deterministic_output(self, ipd_path, capsys):
        args = [
            "simulate", "--scenario", ipd_path,
            "--trials", "5000", "--seed", "99",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_invalid_trials(self, ipd_path, capsys):
        assert main(["simulate", "--scenario", ipd_path, "--trials", "0"]) == 4

    def test_trials_above_the_cap(self, ipd_path, capsys):
        argv = ["simulate", "--scenario", ipd_path, "--trials", str(10**23)]
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: trials must be <= 100000000\n"

    def test_negative_seed(self, ipd_path, capsys):
        assert main(["simulate", "--scenario", ipd_path, "--seed", "-1"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"


# runs cli.main in a fresh interpreter, since this test process has numpy
# loaded already (conftest imports it), and prints the exit code and
# whether numpy and the sampler were imported
_NUMPY_PROBE = """\
import contextlib, io, sys
from splitgame.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, "numpy" in sys.modules, "splitgame.sampling" in sys.modules)
"""


IPD_SCENARIO = str(REPO_ROOT / "scenarios" / "ipd.json")

# command -> its argv without --out
_OUT_COMMANDS = {
    "solve": ["solve", "--scenario", IPD_SCENARIO],
    "sweep": ["sweep", "--scenario", IPD_SCENARIO, "--grid", "r=0.1:0.3:0.1"],
    "score": ["score", str(GOLDEN / "cohort.csv")],
    "simulate": ["simulate", "--scenario", IPD_SCENARIO, "--trials", "100"],
}


class _FailingMidway:
    """A file that writes half of what it is given, then fails as a full
    disk does."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutWrittenWholeOrNotAtAll:
    @pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
    def test_a_failed_write_leaves_the_earlier_file(
        self, command, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out.txt"
        out.write_bytes(b"an earlier run's output\n")
        monkeypatch.setattr(
            cli, "open", lambda *a, **k: _FailingMidway(open(*a, **k)), raising=False
        )
        assert main(_OUT_COMMANDS[command] + ["--out", str(out)]) == 3
        assert out.read_bytes() == b"an earlier run's output\n"
        assert os.listdir(tmp_path) == ["out.txt"]  # no temporary file left
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: [Errno 28] No space left on device" in captured.err

    @pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
    def test_a_write_replaces_the_file_and_keeps_its_mode(
        self, command, tmp_path, capsys
    ):
        assert main(_OUT_COMMANDS[command]) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "out.txt"
        out.write_text("an earlier run's output\n")
        out.chmod(0o640)
        assert main(_OUT_COMMANDS[command] + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected
        assert out.stat().st_mode & 0o777 == 0o640
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_a_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(_OUT_COMMANDS["solve"] + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["case"] == "weak_evidence"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_device_exits_3(self, capsys):
        assert main(_OUT_COMMANDS["solve"] + ["--out", "/dev/full"]) == 3
        assert "No space left on device" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_is_written_in_place(self, capsys):
        assert main(_OUT_COMMANDS["solve"]) == 0
        expected = capsys.readouterr().out
        result = subprocess.run(
            [sys.executable, "-m", "splitgame", *_OUT_COMMANDS["solve"],
             "--out", "/dev/stdout"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected


def _python(code, *argv):
    """stdout of ``python -c code argv...`` run on the source tree."""
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _probe(argv):
    code, numpy, sampling = _python(_NUMPY_PROBE, *argv).split()
    return int(code), numpy == "True", sampling == "True"


class TestNumpyOnlyWhereSampling:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "--scenario", "scenarios/ipd.json"], 0),
            (["sweep", "--scenario", "scenarios/ipd.json", "--mode",
              "computed", "--grid", "r=0.1:0.9:0.1", "--grid", "C=2:8:2"], 0),
            (["score", "tests/golden/cohort.csv", "--lenient"], 0),
            (["--help"], 0),
            (["sweep", "--scenario", "scenarios/ipd.json", "--grid",
              "r=0:1:nan"], 4),
        ],
        ids=["solve", "sweep", "score", "help", "validation_error"],
    )
    def test_command_does_not_load_numpy(self, argv, code):
        assert _probe(argv) == (code, False, False)

    def test_simulate_loads_numpy(self):
        # the probe can see numpy when a command does draw; simulate draws
        # the selection model, not an order, so it needs no sampler
        argv = ["simulate", "--scenario", "scenarios/ipd.json",
                "--trials", "100", "--seed", "1"]
        assert _probe(argv) == (0, True, False)

    def test_cli_import_loads_montecarlo(self):
        # perfbench/spans.py installs its traced wrappers by importing
        # splitgame.cli and then reading sys.modules["splitgame.montecarlo"];
        # a montecarlo loaded only on first use would make every traced
        # benchmark run fail with a KeyError
        _python("import splitgame.cli, sys; "
                "assert 'splitgame.montecarlo' in sys.modules")


# runs cli.main as _NUMPY_PROBE does and prints the exit code and the
# package modules that ran; a deferred module not used yet is in
# sys.modules as a LazyLoader stand-in, whose type is not ModuleType
_RAN_PROBE = _NUMPY_PROBE.rpartition("print(")[0] + """\
import types
print(code, *sorted(name for name, module in sys.modules.items()
                    if name.startswith("splitgame.")
                    and type(module) is types.ModuleType))
"""

# what every command runs: the parser and the exit-code mapping
_CLI_MODULES = {"cli", "_record", "errors", "index_model"}
_SCENARIO_MODULES = _CLI_MODULES | {"bayes", "constraints", "game", "scenario"}


class TestModulesEachCommandRuns:
    @pytest.mark.parametrize(
        "argv, code, modules",
        [
            (["solve", "--scenario", "scenarios/ipd.json"], 0,
             _SCENARIO_MODULES | {"solver"}),
            (["sweep", "--scenario", "scenarios/ipd.json",
              "--grid", "r=0.1:0.9:0.1"], 0, _SCENARIO_MODULES | {"solver"}),
            (["simulate", "--scenario", "scenarios/ipd.json",
              "--trials", "100"], 0, _SCENARIO_MODULES | {"solver", "montecarlo"}),
            (["score", "tests/golden/cohort.csv", "--lenient"], 0,
             _CLI_MODULES | {"survey"}),
            (["--help"], 0, _CLI_MODULES),
            (["solve", "--scenario", "tests/golden/inputs/unknown_field.json"],
             4, _SCENARIO_MODULES),
            (["sweep", "--scenario", "scenarios/ipd.json", "--grid",
              "r=0:1:nan"], 4, _SCENARIO_MODULES),
        ],
        ids=["solve", "sweep", "simulate", "score", "help", "schema_error",
             "grid_error"],
    )
    def test_command_runs_only_its_modules(self, argv, code, modules):
        ran_code, *ran = _python(_RAN_PROBE, *argv).split()
        assert int(ran_code) == code
        assert set(ran) == {f"splitgame.{name}" for name in modules}

    def test_an_imported_module_is_kept(self):
        # a second module object would give a second Disagreement class,
        # which no isinstance check on the first would accept
        _python(
            "import sys, splitgame.montecarlo as first, splitgame.cli, splitgame\n"
            "assert sys.modules['splitgame.montecarlo'] is first\n"
            "assert splitgame.cli.montecarlo is first\n"
            "assert splitgame.Disagreement is first.Disagreement"
        )

    def test_a_deferred_module_imports_by_name(self):
        _python(
            "import splitgame.cli, splitgame.solver\n"
            "assert splitgame.solver.solve is splitgame.cli.solver.solve"
        )


# installs perfbench's span wrappers the way a traced benchmark run does,
# after ``import splitgame.cli``, without writing bytecode under perfbench/
_SPANS_INSTALLED = """\
import contextlib, io, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
import splitgame.cli
import spans
recorder = spans.Recorder()
spans.install(recorder)
"""
# runs cli.main and prints the exit code and the span count of each name
# given after "--"
_SPAN_PROBE = _SPANS_INSTALLED + """\
split = sys.argv.index("--")
with contextlib.redirect_stderr(io.StringIO()):
    code = splitgame.cli.main(sys.argv[1:split])
names = [row[0] for row in recorder.rows()]
print(code, *(names.count(name) for name in sys.argv[split + 1:]))
"""


def test_traced_score_records_both_survey_spans(tmp_path):
    """A traced ``cli_cold`` run fails when ``score`` records no span for
    either survey layer, so ``cmd_score`` must call ``read_responses_csv``
    and then ``score_response`` through the names ``perfbench/spans.py``
    wraps. This test goes with ``spans.py``, once the benchmark reads the
    package's own stage timer instead."""
    out = tmp_path / "scored.csv"
    argv = ["score", "tests/golden/cohort.csv", "--lenient", "--out", str(out)]
    names = ["survey.read_responses_csv", "survey.score_response"]
    code, *counts = _python(_SPAN_PROBE, *argv, "--", *names).split()
    assert code == "0"
    assert all(int(count) >= 1 for count in counts), dict(zip(names, counts))


# verifies the shipped game over two blocks and prints the span count of
# each name given
_VERIFY_SPAN_PROBE = _SPANS_INSTALLED + """\
from splitgame import ipd_scenario, montecarlo
ipd = ipd_scenario()
trials = montecarlo.VERIFY_BLOCK + 10
montecarlo.verify_nash_numeric(ipd.game, ipd.constraints, trials, 0)
names = [row[0] for row in recorder.rows()]
print(*(names.count(name) for name in sys.argv[1:]))
"""


def test_traced_verify_records_each_block_span():
    """A traced ``verify_*`` run fails when the sampler, the numeric scan
    or the symbolic solver records no span, so ``verify_nash_numeric``
    must call ``sample_realization`` and the module-level
    ``numeric_pure_nash`` once per block, and ``pure_nash`` at least once,
    through the names ``perfbench/spans.py`` wraps. This test goes with
    ``spans.py``, once the benchmark reads the package's own stage timer
    instead."""
    names = [
        "constraints.sample_realization",
        "montecarlo.numeric_pure_nash",
        "game.pure_nash",
    ]
    counts = dict(zip(names, map(int, _python(_VERIFY_SPAN_PROBE, *names).split())))
    assert counts["constraints.sample_realization"] == 2, counts
    assert counts["montecarlo.numeric_pure_nash"] == 2, counts
    assert counts["game.pure_nash"] >= 1, counts


# ---------------------------------------------------------------------------
# robustness: random but bounded command lines through cli.main
# ---------------------------------------------------------------------------

# most trials any run of the property draws
PROPERTY_TRIALS = 10_000


def _property_documents():
    """Scenario documents the property runs on, by name. Every valid one
    carries an mc block of at most PROPERTY_TRIALS trials, so simulate
    without --trials stays small."""
    base = ipd_scenario().to_dict()
    base["mc"] = {"trials": 2000, "seed": 5}
    constraints = base["constraints"]

    def variant(parameters=(), **fields):
        doc = copy.deepcopy({**base, **fields})
        doc["parameters"].update(parameters)
        return doc

    return {
        "published_weak": base,
        "published_strong": variant(case="strong_evidence"),
        "computed_strong": variant(mode="computed", case="strong_evidence"),
        "computed_edges": variant(mode="computed", parameters={
            "C": 1.0, "Q": 10.0, "r": 1e-300, "s": 0.9999999999999999,
            "variance": 1e300,
        }),
        "score_off_scale": variant(mode="computed", parameters={"C": 10.5}),
        "prior_off_one": variant(
            events={**base["events"], "prior": [0.5, 0.5, 0.5]}
        ),
        "huge_mc_seed": variant(mc={"trials": 2000, "seed": 2**100}),
        "cycle": variant(constraints=constraints + [
            {"left": "EM21", "right": "EM11", "probability": 1.0}
        ]),
        # the strong case's certainty chain has no probability for PF22 > PF12
        "missing_chain_probability": variant(
            case="strong_evidence",
            constraints=[
                c for c in constraints
                if (c["left"], c["right"]) != ("PF22", "PF12")
            ],
        ),
    }


@pytest.fixture(scope="module")
def property_scenarios(tmp_path_factory):
    """name -> scenario path, including files that cannot be read."""
    root = tmp_path_factory.mktemp("robustness")
    paths = {}
    for name, doc in _property_documents().items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(doc))
    (root / "broken.json").write_text("{oops")
    paths["broken"] = str(root / "broken.json")
    (root / "nan.json").write_text(
        json.dumps(ipd_scenario().to_dict()).replace('"r": 0.5', '"r": NaN')
    )
    paths["nan_literal"] = str(root / "nan.json")
    paths["missing"] = str(root / "missing.json")
    paths["out"] = str(root / "out.txt")
    paths["out_in_missing_dir"] = str(root / "nowhere" / "out.txt")
    return paths


_SCENARIO_NAMES = sorted(_property_documents()) + [
    "broken", "nan_literal", "missing",
]

# mostly inside the weight domain (0, 1), sometimes off every domain
_SMALL = st.one_of(st.floats(0.01, 0.5), st.floats(-1.0, 12.0))
_GRID_KINDS = st.one_of(st.just("small"), st.just("small"), st.sampled_from([
    "small", "reversed", "non_finite", "bad_step", "long_axis",
    "too_many_rows", "malformed",
]))
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "NaN"])


@st.composite
def grid_spec_lists(draw):
    """--grid values. A list whose specs all parse holds at most three axes
    of at most seven points; every other kind fails while the specs are
    parsed, before sweep starts."""
    specs = []
    axes = draw(st.permutations(["r", "s", "C", "Q"]))
    # no spec at all is a usage error, so it is drawn least often
    for axis in axes[:draw(st.sampled_from([1, 2, 3, 1, 2, 3, 0]))]:
        kind = draw(_GRID_KINDS)
        name = draw(st.sampled_from([axis, axis, axis, "x", " r", "r"]))
        start = draw(_SMALL)
        if kind == "small":
            step = draw(st.floats(1e-3, 0.1))
            stop = start + draw(st.integers(0, 5)) * step
            specs.append(f"{name}={start!r}:{stop!r}:{step!r}")
        elif kind == "reversed":
            stop = start - draw(st.floats(1e-9, 10.0))
            step = draw(st.floats(1e-3, 4.0))
            specs.append(f"{name}={start!r}:{stop!r}:{step!r}")
        elif kind == "non_finite":
            parts = [repr(start), repr(start + 1.0), "0.5"]
            parts[draw(st.integers(0, 2))] = draw(_NON_FINITE)
            specs.append(f"{name}={':'.join(parts)}")
        elif kind == "bad_step":
            # 5e-324 is positive, but the span it gives overflows
            step = draw(
                st.sampled_from(["0", "-0.0", "-0.1", "-1e308", "5e-324"])
            )
            specs.append(f"{name}={start!r}:{start + 1.0!r}:{step}")
        elif kind == "long_axis":
            length = draw(st.floats(1e-3, 1e300))
            step = length / (GRID_MAX_STEPS * draw(st.floats(1.01, 1e6)))
            specs.append(f"{name}={start!r}:{start + length!r}:{step!r}")
        elif kind == "too_many_rows":
            # two axes within the step cap whose product exceeds the row cap
            for other in (name, draw(st.sampled_from(["r", "s", "C", "Q"]))):
                steps = draw(
                    st.integers(math.isqrt(GRID_MAX_ROWS) + 1, GRID_MAX_STEPS)
                )
                step = draw(st.floats(1e-6, 1.0))
                stop = start + steps * step
                specs.append(f"{other}={start!r}:{stop!r}:{step!r}")
        else:
            specs.append(draw(st.one_of(
                st.sampled_from(
                    ["r=0.1:0.9", "r=a:b:c", "=0:1:1", "r=0:1:1:1"]
                ),
                st.text(alphabet="rsCQx=.e-+0123456789 ", max_size=12),
            )))
    return specs


def _as_int(text):
    """What argparse's int type makes of ``text``, or None if it fails."""
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


_INT_TEXT = st.one_of(
    st.none(),
    st.integers(-3, PROPERTY_TRIALS).map(str),
    st.integers(PROPERTY_TRIALS + 1, 10**30).map(str),
    st.integers(2**64, 2**300).map(str),
    st.sampled_from([MAX_TRIALS, MAX_TRIALS + 1]).map(str),
    st.sampled_from(["2.5", "1e3", "abc", "", "-0", "0x10", "1_000", " 7"]),
)


@st.composite
def cli_invocations(draw):
    """(scenario name, out target, argv without --scenario and --out)."""
    command = draw(st.sampled_from(["solve", "sweep", "simulate"]))
    argv = [command]
    mode = draw(st.sampled_from(
        [None, None, "computed", "published", "paper", "bogus"]
    ))
    if mode is not None:
        argv += ["--mode", mode]
    if command == "sweep":
        for spec in draw(grid_spec_lists()):
            argv += ["--grid", spec]
    if command == "simulate":
        trials, seed = draw(_INT_TEXT), draw(_INT_TEXT)
        count = _as_int(trials)
        if count is not None and PROPERTY_TRIALS < count <= MAX_TRIALS:
            # a valid seed would start the run; a negative one stops it. A
            # count above the cap keeps its seed, since the cap must stop it
            seed = "-1"
        if trials is not None:
            argv += ["--trials", trials]
        if seed is not None:
            argv += ["--seed", seed]
    scenario = draw(st.sampled_from(_SCENARIO_NAMES))
    out = draw(st.sampled_from([None, None, None, "out", "out_in_missing_dir"]))
    return scenario, out, argv


def _run_main(argv):
    """cli.main in process: (exit code, stdout, stderr). An exception other
    than SystemExit propagates, so a traceback fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(literal):
    raise AssertionError(f"non-finite {literal} in machine output")


class TestRobustness:
    @settings(max_examples=300, deadline=None)
    @given(cli_invocations())
    def test_every_input_ends_in_a_documented_way(
        self, property_scenarios, invocation
    ):
        scenario, out_target, argv = invocation
        argv = argv + ["--scenario", property_scenarios[scenario]]
        # the same command with one trial and no --out
        one_trial = list(argv)
        if out_target is not None:
            argv += ["--out", property_scenarios[out_target]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = _run_main(argv)
            over_cap = "--trials" in argv and (
                _as_int(argv[argv.index("--trials") + 1]) or 0
            ) > MAX_TRIALS
            if over_cap:
                one_trial[one_trial.index("--trials") + 1] = "1"
                first_code = _run_main(one_trial)[0]
        assert code in (0, 2, 3, 4, 5, 6), (code, err)
        if over_cap:
            # what fails before the trial check fails as on one trial; past
            # it, the cap ends the run with exit 4
            assert code == (4 if first_code == 0 else first_code), err
        assert "Traceback" not in err
        if code != 0:
            assert out == ""
        elif argv[0] == "sweep" and out:
            for row in out.splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in row.split(","))
        elif out:
            json.loads(out, parse_constant=_reject_constant)

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["sweep", "--grid", "r=0.1:0.9:0.1"], ["simulate"]],
        ids=["solve", "sweep", "simulate"],
    )
    def test_a_deeply_nested_file_is_a_validation_error(self, tmp_path, argv):
        # 2 KB nested deeper than json.load can recurse
        path = tmp_path / "deep.json"
        path.write_text('{"name": ' + "[" * 1000 + "]" * 1000 + "}")
        code, out, err = _run_main(argv + ["--scenario", str(path)])
        assert (code, out) == (4, "")
        assert err == f"error: {path}: not valid JSON: nested too deeply\n"


# survey cells of every kind: valid choices, near misses, text, NUL, stray
# quotes, bytes that are not UTF-8, and fields past the csv field limit
_SURVEY_CELLS = st.one_of(
    st.sampled_from([b"a", b"F", b" c ", b"1", b"6", b"06", b"0", b"7", b""]),
    st.text(max_size=6).map(str.encode),
    st.sampled_from([b"\x00", b"a\x00", b'"', b'"a', b'a"b', b'""', b'"\n']),
    st.sampled_from([b"\xff", b"\xc3", b"\x80a", b"a\xfe"]),
    st.tuples(
        st.sampled_from([b"a", b"1", b'"', b"\x00"]),
        st.integers(131_000, 140_000),
    ).map(lambda repeat: repeat[0] * repeat[1]),
)


@st.composite
def survey_files(draw):
    """The bytes of a survey CSV: the valid header, then random rows."""
    lines = [SURVEY_HEADER.encode()]
    for _ in range(draw(st.integers(0, 4))):
        cells = draw(st.lists(_SURVEY_CELLS, min_size=0, max_size=9))
        lines.append(b",".join([draw(st.sampled_from([b"r1", b""]))] + cells))
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return newline.join(lines) + draw(st.sampled_from([b"", newline]))


@pytest.fixture(scope="module")
def survey_path(tmp_path_factory):
    return tmp_path_factory.mktemp("survey_robustness") / "survey.csv"


class TestScoreRobustness:
    @settings(max_examples=150, deadline=None)
    @given(survey_files(), st.booleans())
    def test_every_survey_ends_in_a_documented_way(
        self, survey_path, data, lenient
    ):
        survey_path.write_bytes(data)
        argv = ["score", str(survey_path)] + (["--lenient"] if lenient else [])
        code, out, err = _run_main(argv)
        assert code in (0, 4), (code, err[:300])
        assert "Traceback" not in err
        if code != 0:
            # the error names the file, after any skipped-row warnings
            last = err.splitlines()[-1]
            assert out == "" and last.startswith(f"error: {survey_path}: ")
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["respondent_id", "raw_sum", "p_index"]
            assert len(rows) > 1


class TestLongMessages:
    """A message that quotes a huge input value prints as one error: or
    warning: line of at most _LINE_MAX characters that keeps its end, which
    says what was expected."""

    @staticmethod
    def only_line(err, prefix):
        lines = [line for line in err.splitlines() if line.startswith(prefix)]
        assert len(lines) == 1
        assert len(lines[0]) <= _LINE_MAX
        return lines[0]

    @pytest.fixture
    def long_cell_survey(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text(
            f"{SURVEY_HEADER}\nr1,{'x' * 10**5},a,a,a,a,a,a\nr2,a,a,a,a,a,a,a\n"
        )
        return str(path)

    def test_scenario_value(self, tmp_path, ipd_dict):
        path = write_scenario(tmp_path, {**ipd_dict, "name": list(range(10**5))})
        code, out, err = _run_main(["solve", "--scenario", path])
        assert (code, out) == (4, "")
        line = self.only_line(err, "error: ")
        assert err == line + "\n"
        assert line.startswith(f"error: {path}: name: [0, 1, 2, ")
        assert line.endswith(", 99999] is not of type 'string'")

    def test_survey_cell_strict(self, long_cell_survey):
        code, out, err = _run_main(["score", long_cell_survey])
        assert (code, out) == (4, "")
        line = self.only_line(err, "error: ")
        assert err == line + "\n"
        assert line.startswith(f"error: {long_cell_survey}: line 2: invalid choice 'xxx")
        assert line.endswith("xxx'; expected a-f or 1-6")

    def test_survey_cell_lenient(self, long_cell_survey):
        code, out, err = _run_main(["score", long_cell_survey, "--lenient"])
        assert code == 0
        # the other row is scored
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["r2"]
        line = self.only_line(err, "warning: ")
        assert line.startswith("warning: line 2: skipped (invalid choice 'xxx")
        assert line.endswith("xxx'; expected a-f or 1-6)")

    def test_only_a_line_over_the_cap_is_cut(self, capsys):
        for size in (_LINE_MAX, _LINE_MAX + 1):
            message = "w" * (size - len("warning: ") - 3) + "end"
            _show_warning(message, UserWarning, "library.py", 1)
            line = self.only_line(capsys.readouterr().err, "warning: ")
            assert len(line) == _LINE_MAX and line.endswith("end")
            assert (line == f"warning: {message}") == (size == _LINE_MAX)
