import copy
import csv
import io
import json
import os
import subprocess
import sys
import warnings

import pytest

from conftest import REPO_ROOT
from splitgame import IndexParameters, ipd_scenario, solve
from splitgame.cli import main

SURVEY_HEADER = "respondent_id,item1,item2,item3,item4,item5,item6,item7"


def _warning_line(score):
    """The stderr line a score outside the scale interior prints; the
    location is wherever IndexParameters issues the warning from."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        IndexParameters(score=score, weight=0.5)
    (warning,) = caught
    return (
        f"{warning.filename}:{warning.lineno}: UserWarning: "
        f"score {score!r} is outside the scale interior (1, 10)"
    )


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def ipd_dict(ipd):
    return ipd.to_dict()


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

    def test_values_full_precision(self, ipd_path, capsys):
        main(["sweep", "--scenario", ipd_path, "--grid", "r=0.5:0.5:0.1"])
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        report = solve(ipd_scenario())
        assert float(rows[1][1]) == report.p_em12
        assert float(rows[1][4]) == report.p_cell_22

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
        ],
        ids=["warned", "error_after_warnings", "error_on_other_axis"],
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

    def test_out_file(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text(f"{SURVEY_HEADER}\nr1,a,f,a,f,f,f,a\n")
        out_path = tmp_path / "scores.csv"
        assert main(["score", str(data), "--out", str(out_path)]) == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[1] == ["r1", "7", "0.0"]


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

    def test_negative_seed(self, ipd_path, capsys):
        assert main(["simulate", "--scenario", ipd_path, "--seed", "-1"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"
