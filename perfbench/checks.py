"""Output checks that do not reuse the program's code.

Every expected value is recomputed here from the inputs with the closed
forms: the Gaussian tail is ``0.5 * erfc(x / sqrt(2 * variance))``, the
published coefficients are the constants 0.3090 and 0.2999, survey scores
come from the instrument's polarities. A check returns ``None`` when the
output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math

from gen import PUBLISHED_EM, PUBLISHED_PF, REFERENCE_C, REFERENCE_Q, VARIANCE

COMPUTED_TOL = 1e-9
CELL_TOL = 1e-12
SIMULATE_SIGMAS = 5.0
SWEEP_METRICS = ("p_em12", "p_pf21", "p_cell_11", "p_cell_22", "indeterminate")


def score_factor(score, variance=VARIANCE):
    tail = 0.5 * math.erfc(math.sqrt(score) / math.sqrt(2.0 * variance))
    return (1.0 - tail) / 3.0


def _close(got, want, tol):
    return isinstance(got, float) and abs(got - want) <= tol


def check_probabilities(p, r, s, mode, C=REFERENCE_C, Q=REFERENCE_Q):
    """p maps the five sweep metric names to the program's values."""
    if mode == "published":
        if p["p_em12"] != r * PUBLISHED_EM or p["p_pf21"] != s * PUBLISHED_PF:
            return f"published coefficients differ from r*{PUBLISHED_EM}, s*{PUBLISHED_PF}"
    else:
        if not _close(p["p_em12"], r * score_factor(C), COMPUTED_TOL):
            return f"p_em12 {p['p_em12']!r} differs from the erfc value"
        if not _close(p["p_pf21"], s * score_factor(Q), COMPUTED_TOL):
            return f"p_pf21 {p['p_pf21']!r} differs from the erfc value"
    em, pf = p["p_em12"], p["p_pf21"]
    c11, c22 = em * (1.0 - pf), pf * (1.0 - em)
    for name, want in (
        ("p_cell_11", c11),
        ("p_cell_22", c22),
        ("indeterminate", 1.0 - c11 - c22),
    ):
        if not _close(p[name], want, CELL_TOL):
            return f"{name} {p[name]!r} differs from {want!r}"
    return None


def check_sweep(columns, rows, grid, base_params, mode):
    """Rows enumerate the grid in sorted-name lexicographic order."""
    names = sorted(grid)
    if list(columns) != names + list(SWEEP_METRICS):
        return f"unexpected columns {columns!r}"
    combos = list(itertools.product(*(grid[name] for name in names)))
    if len(rows) != len(combos):
        return f"{len(rows)} rows for {len(combos)} grid points"
    for row, combo in zip(rows, combos):
        if list(row[: len(names)]) != list(combo):
            return f"row parameters {row[:len(names)]!r} differ from {combo!r}"
        params = dict(base_params)
        params.update(zip(names, combo))
        reason = check_probabilities(
            dict(zip(SWEEP_METRICS, row[len(names):])),
            params["r"], params["s"], mode, params["C"], params["Q"],
        )
        if reason:
            return f"point {combo}: {reason}"
    return None


def decided_cells(game_ids, pairs):
    """Three-valued pure Nash by brute force over the certain order.

    ``game_ids[r][c]`` is the (row symbol, column symbol) pair, ``pairs``
    the certain (greater, lesser) relations. Returns (equilibria, decided
    non-equilibria) as sets of (row, col).
    """
    greater = {}
    for a, b in pairs:
        greater.setdefault(a, set()).add(b)
    changed = True
    while changed:  # transitive closure
        changed = False
        for a in list(greater):
            extra = set().union(*(greater.get(b, set()) for b in greater[a])) - greater[a]
            if extra:
                greater[a] |= extra
                changed = True

    def beats(a, b):
        return b in greater.get(a, ())

    n_rows, n_cols = len(game_ids), len(game_ids[0])

    def status(mine, rivals):
        if any(beats(rival, mine) for rival in rivals):
            return "beaten"
        if all(beats(mine, rival) or beats(rival, mine) for rival in rivals):
            return "best"
        return "unknown"

    equilibria, decided_out = set(), set()
    for r in range(n_rows):
        for c in range(n_cols):
            row_status = status(
                game_ids[r][c][0], [game_ids[a][c][0] for a in range(n_rows) if a != r]
            )
            col_status = status(
                game_ids[r][c][1], [game_ids[r][a][1] for a in range(n_cols) if a != c]
            )
            if "beaten" in (row_status, col_status):
                decided_out.add((r, c))
            elif row_status == col_status == "best":
                equilibria.add((r, c))
    return equilibria, decided_out


def check_verification(result, trials, expected_eq, expected_out):
    if not result.ok:
        return f"{len(result.disagreements)} disagreements"
    if result.trials != trials:
        return f"trials {result.trials} != {trials}"
    if {tuple(c) for c in result.symbolic_equilibria} != expected_eq:
        return f"equilibria {result.symbolic_equilibria!r} != {sorted(expected_eq)!r}"
    want = (len(expected_eq) + len(expected_out)) * trials
    if result.checked_cells != want:
        return f"checked_cells {result.checked_cells} != {want}"
    return None


# -- CLI outputs ----------------------------------------------------------


def check_solve_output(stdout, r, s, mode):
    results = json.loads(stdout)["results"]
    if results["nash_cells"] != [[0, 0], [1, 1]]:
        return f"nash cells {results['nash_cells']!r}"
    return check_probabilities(results, r, s, mode)


def check_simulate_output(stdout, r, s, trials=1_000_000):
    data = json.loads(stdout)
    emp = data["empirical"]
    if emp["trials"] != trials:
        return f"trials {emp['trials']!r} != {trials}"
    em, pf = r * PUBLISHED_EM, s * PUBLISHED_PF
    c11, c22 = em * (1.0 - pf), pf * (1.0 - em)
    for key, p in (
        ("freq_cell_11", c11),
        ("freq_cell_22", c22),
        ("freq_indeterminate", 1.0 - c11 - c22),
    ):
        limit = SIMULATE_SIGMAS * math.sqrt(p * (1.0 - p) / trials)
        if abs(emp[key] - p) > limit:
            return f"{key} {emp[key]!r} is more than {SIMULATE_SIGMAS:g} SE from {p!r}"
    return None


def check_sweep_output(stdout, r_start, points, step, s):
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["r"] + list(SWEEP_METRICS):
        return f"unexpected header {rows[0]!r}"
    if len(rows) != points + 1:
        return f"{len(rows) - 1} rows, expected {points}"
    for i, row in enumerate(rows[1:]):
        values = [float(v) for v in row]
        if abs(values[0] - (r_start + i * step)) > CELL_TOL:
            return f"row {i} has r={values[0]!r}"
        reason = check_probabilities(
            dict(zip(SWEEP_METRICS, values[1:])), values[0], s, "published"
        )
        if reason:
            return f"row {i}: {reason}"
    return None


def check_score_output(stdout, stderr, cohort):
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["respondent_id", "raw_sum", "p_index"]:
        return f"unexpected header {rows[0]!r}"
    expected = cohort["expected"]
    if len(rows) - 1 != len(expected):
        return f"{len(rows) - 1} scored rows, expected {len(expected)}"
    for row, (respondent, raw) in zip(rows[1:], expected):
        if row[0] != respondent or int(row[1]) != raw:
            return f"row {row!r} differs from {respondent},{raw}"
        if abs(float(row[2]) - 10.0 * (raw - 7) / 35.0) > CELL_TOL:
            return f"p_index {row[2]} for {respondent} differs"
    skipped = [
        int(line.split()[2].rstrip(":"))
        for line in stderr.splitlines()
        if line.startswith("warning: line ")
    ]
    if skipped != cohort["malformed_lines"]:
        return f"skipped lines {skipped[:5]}... differ from the injected ones"
    return None
