"""Command-line interface: solve, sweep, score, simulate.

Machine output (report JSON, sweep CSV, score CSV) goes to --out or stdout
at full float precision; human-readable summaries go to stderr rounded to
six significant digits.

Exit codes are stable; ``_EXIT_CODE_DOC``, the epilog of ``--help``,
lists them, and each library error class carries its own as ``exit_code``.

Each module in ``DEFERRED`` runs on first use, through ``LazyLoader`` since
``perfbench/spans.py`` reads it from ``sys.modules`` after this import.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
import warnings
from collections.abc import Sequence

from ._record import replace
from .errors import SplitgameError, ValidationError
from .index_model import MODE_ALIASES, Mode

# package modules some command does not run; an import statement would run
# one at once, so each is used through the name bound below
DEFERRED = ("bayes", "constraints", "game", "scenario", "solver", "montecarlo", "survey")


def _deferred(name: str):
    """``splitgame.<name>`` as imported already, or to run on first use."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


bayes, constraints, game, scenario, solver, montecarlo, survey = map(_deferred, DEFERRED)

EXIT_OK = 0
EXIT_IO = 3

_MODE_CHOICES = (*(mode.value for mode in Mode), *MODE_ALIASES)

# most characters in one error: or warning: line; a message quoting a huge
# input value keeps its start and its end, which says what was expected
_LINE_MAX = 1000
_CUT = " [...] "

# steps per sweep axis; the axis holds at most one point more
GRID_MAX_STEPS = 100_000
# rows per sweep: the product of the axis point counts
GRID_MAX_ROWS = 1_000_000

_EXIT_CODE_DOC = """\
exit codes:
  0  success
  2  usage errors
  3  I/O failures
  4  validation errors (schemas, malformed rows, grids, mode gates)
  5  inconsistent certain order (dominance cycle)
  6  numeric-domain errors (weights, scores, priors, sampling exhaustion)
"""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _say(kind: str, message) -> None:
    """Print ``kind: message`` to stderr, cut to ``_LINE_MAX`` characters
    around ``_CUT`` when longer."""
    line = f"{kind}: {message}"
    if len(line) > _LINE_MAX:
        head = (_LINE_MAX - len(_CUT)) // 2
        tail = _LINE_MAX - len(_CUT) - head
        line = line[:head] + _CUT + line[-tail:]
    print(line, file=sys.stderr)


def _emit(text: str, out_path: str | None):
    """``text`` to stdout or ``out_path``: a regular or new file whole or not
    at all, by a temporary file beside it; others (``/dev/stdout``) in place."""
    if not out_path:
        sys.stdout.write(text)
        return
    import os
    import stat
    old = os.lstat(out_path) if os.path.lexists(out_path) else None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    temp = f"{out_path}.{os.urandom(4).hex()}.tmp"
    handle = open(temp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            if old is not None:
                os.chmod(temp, stat.S_IMODE(old.st_mode))
            handle.write(text)
        os.replace(temp, out_path)
    except BaseException:
        os.unlink(temp)
        raise


def _load(args: argparse.Namespace):
    loaded = scenario.load_scenario(args.scenario)
    if args.mode:
        loaded = replace(loaded, mode=Mode.parse(args.mode))
    return loaded


def cmd_solve(args: argparse.Namespace) -> int:
    loaded = _load(args)  # first, so a file that fails runs no solver
    report = solver.solve(loaded)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)

    err = sys.stderr
    print(
        f"scenario {report.scenario_name}: case={report.case} "
        f"mode={report.mode}",
        file=err,
    )
    print(
        f"  p_em12={_fmt(report.p_em12)}  p_pf21={_fmt(report.p_pf21)}",
        file=err,
    )
    print(
        f"  p_cell_11={_fmt(report.p_cell_11)}  "
        f"p_cell_22={_fmt(report.p_cell_22)}  "
        f"indeterminate={_fmt(report.indeterminate)}",
        file=err,
    )
    cells = " ".join(f"({r},{c})" for r, c in report.nash_cells) or "none"
    pending = " ".join(f"({r},{c})" for r, c in report.undecided_cells) or "none"
    print(f"  nash cells: {cells}; undecided: {pending}", file=err)
    bounds = "  ".join(
        f"{name}={_fmt(value)}" for name, value in report.bounds.items()
    )
    print(f"  bounds: {bounds}", file=err)
    for note in report.notes:
        print(f"  note: {note}", file=err)
    return EXIT_OK


def _parse_grid_specs(specs: Sequence[str]) -> dict[str, list[float]]:
    grid: dict[str, list[float]] = {}
    rows = 1
    for spec in specs:
        name, sep, rest = spec.partition("=")
        name = name.strip()
        parts = rest.split(":")
        if not sep or not name or len(parts) != 3:
            raise ValidationError(
                f"grid spec {spec!r} must look like param=start:stop:step"
            )
        try:
            start, stop, step = (float(part) for part in parts)
        except ValueError:
            raise ValidationError(
                f"grid spec {spec!r} has non-numeric bounds"
            ) from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValidationError(f"grid spec {spec!r} has non-finite bounds")
        if step <= 0:
            raise ValidationError(f"grid spec {spec!r}: step must be positive")
        if stop < start:
            raise ValidationError(f"grid spec {spec!r}: stop is below start")
        if name in grid:
            raise ValidationError(f"parameter {name!r} given twice")
        span = (stop - start) / step
        # checked before the floor, which overflows on an infinite span
        if span > GRID_MAX_STEPS:
            raise ValidationError(
                f"grid spec {spec!r}: more than {GRID_MAX_STEPS} steps"
            )
        count = math.floor(span + 1e-9)
        rows *= count + 1
        if rows > GRID_MAX_ROWS:
            raise ValidationError(
                f"grid spec {spec!r}: grid exceeds {GRID_MAX_ROWS} rows"
            )
        grid[name] = [start + i * step for i in range(count + 1)]
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    loaded = _load(args)
    grid = _parse_grid_specs(args.grid)
    columns, rows = solver.sweep(loaded, grid)

    # column names and float reprs never need csv quoting
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    print(
        f"sweep: {len(rows)} row{'s' * (len(rows) != 1)} over {', '.join(sorted(grid))}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    import csv
    import io

    rows, skipped = survey.read_responses_csv(args.survey_csv, lenient=args.lenient)
    for note in skipped:
        _say("warning", note)
    if not rows:
        raise ValidationError(f"{args.survey_csv}: no valid data rows")

    scored = [(respondent, survey.score_response(response)) for respondent, response in rows]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["respondent_id", "raw_sum", "p_index"])
    for respondent, score in scored:
        writer.writerow([respondent, score.raw_sum, repr(score.p_index)])
    _emit(buffer.getvalue(), args.out)

    mean = survey.aggregate([score for _, score in scored])
    print(
        f"aggregate p-index over {len(scored)} respondents: {_fmt(mean)}",
        file=sys.stderr,
    )
    return EXIT_OK


# (closed-form key, empirical key, stderr label) for each simulated outcome
_SIMULATE_OUTCOMES = (
    ("p_cell_11", "freq_cell_11", "cell (0,0)"),
    ("p_cell_22", "freq_cell_22", "cell (1,1)"),
    ("indeterminate", "freq_indeterminate", "indeterminate"),
)


def cmd_simulate(args: argparse.Namespace) -> int:
    loaded = _load(args)
    report = solver.solve(loaded)
    trials, seed = args.trials, args.seed
    if trials is None:
        trials = loaded.mc.trials if loaded.mc else 100_000
    if seed is None:
        seed = loaded.mc.seed if loaded.mc else 0
    config = montecarlo.SimulationConfig(
        trials=trials, seed=seed, p_em12=report.p_em12, p_pf21=report.p_pf21
    )
    result = montecarlo.simulate_selection(config)

    closed = {key: getattr(report, key) for key, _, _ in _SIMULATE_OUTCOMES}
    empirical = {key: getattr(result, key) for _, key, _ in _SIMULATE_OUTCOMES}
    payload = {
        "scenario": report.scenario_name,
        "mode": report.mode,
        "case": report.case,
        "closed_form": closed,
        "empirical": {
            **empirical,
            "trials": result.trials,
            "seed": result.seed,
            "algorithm": result.algorithm,
            "standard_error": result.standard_error,
        },
        "difference": {
            key: empirical[emp_key] - closed[key]
            for key, emp_key, _ in _SIMULATE_OUTCOMES
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)

    err = sys.stderr
    print(
        f"simulate: {result.trials} trials, seed {result.seed} "
        f"({result.algorithm})",
        file=err,
    )
    print(f"  {'':<14}{'closed':>12}{'empirical':>12}", file=err)
    for key, emp_key, label in _SIMULATE_OUTCOMES:
        print(
            f"  {label:<14}{_fmt(closed[key]):>12}{_fmt(empirical[emp_key]):>12}",
            file=err,
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitgame",
        description=(
            "Ordinal dilemma toolkit: equilibrium selection under "
            "probabilistic dominance, parameter sweeps, survey scoring, "
            "and Monte Carlo checks."
        ),
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser(
        "solve",
        help="solve a scenario file into a decision report (JSON)",
    )
    solve_p.add_argument("--scenario", required=True, help="scenario JSON file")
    solve_p.add_argument(
        "--mode",
        choices=_MODE_CHOICES,
        help="override the scenario's evaluation mode "
        "(paper is an alias for published)",
    )
    solve_p.add_argument("--out", help="write the report here instead of stdout")
    solve_p.set_defaults(run=cmd_solve)

    sweep_p = sub.add_parser(
        "sweep",
        help="solve across a parameter grid and emit a CSV table",
        description=(
            "Grids iterate in sorted parameter-name order, values "
            "lexicographically; endpoints are inclusive. The CSV is "
            "plot-ready; rendering is external."
        ),
    )
    sweep_p.add_argument("--scenario", required=True, help="scenario JSON file")
    sweep_p.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="PARAM=START:STOP:STEP",
        help="sweep one of r, s, C, Q (repeatable)",
    )
    sweep_p.add_argument("--mode", choices=_MODE_CHOICES, help="mode override")
    sweep_p.add_argument("--out", help="write the CSV here instead of stdout")
    sweep_p.set_defaults(run=cmd_sweep)

    score_p = sub.add_parser(
        "score",
        help="score survey responses (CSV: respondent_id,item1..item7)",
    )
    score_p.add_argument("survey_csv", help="survey responses CSV file")
    score_p.add_argument("--out", help="write per-respondent CSV here")
    score_p.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed rows (reported with line numbers) "
        "instead of failing",
    )
    score_p.set_defaults(run=cmd_score)

    sim_p = sub.add_parser(
        "simulate",
        help="compare closed-form selection probabilities with "
        "Monte Carlo frequencies",
    )
    sim_p.add_argument("--scenario", required=True, help="scenario JSON file")
    sim_p.add_argument("--trials", type=int, help="number of trials")
    sim_p.add_argument("--seed", type=int, help="generator seed")
    sim_p.add_argument("--mode", choices=_MODE_CHOICES, help="mode override")
    sim_p.add_argument("--out", help="write the JSON here instead of stdout")
    sim_p.set_defaults(run=cmd_simulate)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # a warning names the library line that issued it, which tells a CLI
    # user nothing; the filters still decide which warnings show
    _say("warning", message)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.run(args)
        except (SplitgameError, OSError) as exc:
            _say("error", exc)
            return EXIT_IO if isinstance(exc, OSError) else exc.exit_code
