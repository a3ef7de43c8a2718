"""Scenario solving: equilibrium sets, selection probabilities, and bounds.

Solving a scenario (see ``scenario``) yields a decision report: which cells
are pure Nash under the case-adjusted order, the probabilities that each
diagonal equilibrium guides the decision, the leftover indeterminate mass,
and the closed-form bounds those probabilities can never cross. A sweep
computes only the selection probabilities across a parameter grid: the Nash
set and the notes belong to the report alone.

Two comparison events drive everything. "em12" is the event that the row
player's temptation payoff (top-left) outranks its dutiful payoff
(bottom-right); "pf21" is the event that the column player's strict-course
payoff (bottom-right) outranks its lenient one (top-left). Selection treats
them as independent Bernoulli draws: the top-left cell guides the decision
when em12 fires alone, the bottom-right cell when pf21 fires alone, and the
remaining mass is indeterminate.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence

from . import _resource
from ._record import Record, replace
from .bayes import ComparisonEvent
from .constraints import ConstraintSet, DominanceConstraint
from .errors import ValidationError, check_document, check_kind
from .game import CellCoord, OrdinalGame, pure_nash
from .index_model import (
    PUBLISHED_TABLE,
    Mode,
    _tail,
    check_score,
    check_weight,
    score_factor,
    warn_outside_interior,
)
from .scenario import PARAMETERS, Case, Scenario, _param_target

SCORE_MATCH_TOLERANCE = 1e-12

# metric columns every sweep row carries, in output order
SWEEP_METRICS = ("p_em12", "p_pf21", "p_cell_11", "p_cell_22", "indeterminate")

# each scenario attribute's (score, weight) parameter names
_SIDE_NAMES = {
    a: tuple(n for f in ("score", "weight") for n, t in PARAMETERS.items() if t == (a, f))
    for a, _ in PARAMETERS.values()
}


class DecisionReport(Record):
    """The solver's structured output; serializes losslessly to a dict."""

    scenario_name: str
    mode: str
    case: str
    p_em12: float
    p_pf21: float
    p_cell_11: float
    p_cell_22: float
    indeterminate: float
    nash_cells: tuple[CellCoord, ...]
    undecided_cells: tuple[CellCoord, ...]
    bounds: Mapping[str, float]
    comparison_events: tuple[ComparisonEvent, ...]
    notes: tuple[str, ...]
    inputs: Mapping = None  # None: a fresh {} per report

    def __post_init__(self):
        if self.inputs is None:
            object.__setattr__(self, "inputs", {})

    def to_dict(self) -> dict:
        return {
            "scenario": dict(self.inputs),
            "mode": self.mode,
            "case": self.case,
            "results": {
                **{name: getattr(self, name) for name in SWEEP_METRICS},
                "nash_cells": [list(cell) for cell in self.nash_cells],
                "undecided_cells": [list(cell) for cell in self.undecided_cells],
            },
            "bounds": dict(self.bounds),
            "comparison_events": {
                event.label: {"left": event.left, "right": event.right}
                for event in self.comparison_events
            },
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DecisionReport":
        """The report a ``to_dict`` document holds; a document that breaks
        ``resources/report.schema.json`` raises ValidationError."""
        check_document(data, _resource("report.schema.json"), "<report>")
        results = data["results"]
        return cls(
            scenario_name=data["scenario"].get("name", ""),
            mode=data["mode"],
            case=data["case"],
            **{name: results[name] for name in SWEEP_METRICS},
            nash_cells=tuple(CellCoord(*cell) for cell in results["nash_cells"]),
            undecided_cells=tuple(
                CellCoord(*cell) for cell in results["undecided_cells"]
            ),
            bounds=dict(data["bounds"]),
            comparison_events=tuple(
                ComparisonEvent(label, spec["left"], spec["right"])
                for label, spec in sorted(data["comparison_events"].items())
            ),
            notes=tuple(data["notes"]),
            inputs=dict(data["scenario"]),
        )


def _dilemma_ids(game: OrdinalGame) -> tuple[str, str, str, str, str]:
    """(EM11, EM22, PF11, PF12, PF22): the row ids of cells (0,0) and (1,1),
    the column ids of (0,0), (0,1) and (1,1); a game not 2x2 raises ValidationError."""
    check_kind("game", game, OrdinalGame)
    if game.n_rows != 2 or game.n_cols != 2:
        raise ValidationError(
            "the selection calculus needs a 2x2 game, got "
            f"{game.n_rows}x{game.n_cols}"
        )
    ((em11, pf11), (_, pf12)), (_, (em22, pf22)) = game.cells
    return em11, em22, pf11, pf12, pf22


def comparison_events(game: OrdinalGame) -> tuple[ComparisonEvent, ComparisonEvent]:
    """The two diagonal comparison events of a 2x2 game."""
    em11, em22, pf11, _, pf22 = _dilemma_ids(game)
    return ComparisonEvent("em12", em11, em22), ComparisonEvent("pf21", pf22, pf11)


def effective_constraints(scenario: Scenario) -> ConstraintSet:
    """The scenario's constraint set with the evidential case applied.

    Strong evidence asserts the certain reverse of the top-row column
    assumption (the column player certainly prefers the strict course even
    against the dutiful row), so any certain constraint contradicting it is
    dropped first. Weak evidence leaves the set as it is: its bound
    p(PF11 > PF12) > 0.5 can never decide an order query, and the report's
    note states it.
    """
    check_kind("scenario", scenario, Scenario)
    _, _, pf11, pf12, _ = _dilemma_ids(scenario.game)
    base = scenario.constraints
    if scenario.case is Case.WEAK_EVIDENCE:
        return base
    kept = [
        c
        for c in base.constraints
        if not (c.certain and c.left == pf11 and c.right == pf12)
    ]
    kept.append(
        DominanceConstraint(pf12, pf11, 1.0, group="strong_evidence_case")
    )
    return replace(base, constraints=kept)


def solve(scenario: Scenario) -> DecisionReport:
    """Solve one scenario into a decision report.

    The numbers are the zero-axis case of the sweep walk, so a sweep row
    equals ``solve`` at its point. The comparison events, the Nash set under
    the case-adjusted order and the notes are the report's alone.
    """
    order = effective_constraints(scenario)
    events = comparison_events(scenario.game)
    nash, undecided = pure_nash(scenario.game, order)
    (values,), caps = _grid(scenario, order, {})
    em, pf = scenario.em_params, scenario.pf_params
    em_cap, pf_cap = caps["C"][em.score], caps["Q"][pf.score]
    published = scenario.mode is Mode.PUBLISHED
    sources = ("the formula value", "the published constant")
    used, other = sources[::-1] if published else sources
    notes: list[str] = []
    for label, params, cap in (("em12", em, em_cap), ("pf21", pf, pf_cap)):
        ref_score, constant = PUBLISHED_TABLE[label]
        # published mode has gated the score onto its reference, and needs
        # its one tail call per label; in computed mode k(score) is the cap
        if published or abs(params.score - ref_score) <= SCORE_MATCH_TOLERANCE:
            factor = score_factor(params.score, params.variance) if published else cap
            notes.append(
                f"{label}: published constant {constant:.6g} at score "
                f"{ref_score:g} diverges from the formula value "
                f"{factor:.6g}; this report uses {used}, not {other}"
            )
    _, _, pf11, pf12, _ = _dilemma_ids(scenario.game)
    if scenario.case is Case.STRONG_EVIDENCE:
        notes.append(
            f"strong evidence: certain {pf12} > {pf11} applied; any certain "
            f"{pf11} > {pf12} assumption is dropped for consistency"
        )
    else:
        notes.append(
            f"weak evidence: p({pf11} > {pf12}) > 0.5 recorded as a lower "
            "bound; lower bounds never enter the dominance order"
        )
    prior = scenario.events.prior
    if len(prior) != 3 or any(p != prior[0] for p in prior):
        notes.append(
            "selection coefficients assume a uniform three-event "
            "environment; this scenario's event space deviates from it"
        )
    if set(nash) != {CellCoord(0, 0), CellCoord(1, 1)}:
        notes.append(
            "p_cell_11 and p_cell_22 refer to the diagonal cells (0,0) and "
            f"(1,1); this order's equilibrium set is "
            f"{sorted(tuple(c) for c in nash)}"
        )
    return DecisionReport(
        scenario_name=scenario.name,
        mode=scenario.mode.value,
        case=scenario.case.value,
        **dict(zip(SWEEP_METRICS, values)),
        nash_cells=tuple(sorted(nash)),
        undecided_cells=tuple(sorted(undecided)),
        bounds={
            "p_em12_cap": em_cap,
            "p_pf21_weak_cap": pf_cap,
            "p_cell_11_cap": em_cap,
            "p_cell_22_weak_cap": pf_cap,
            "p_cell_22_strong_floor": 1.0 - em_cap,
        },
        comparison_events=events,
        notes=tuple(notes),
        inputs=scenario.to_dict(),
    )


def sweep(
    scenario: Scenario, grid: Mapping[str, Sequence[float]]
) -> tuple[list[str], list[list[float]]]:
    """Solve the scenario across a parameter grid.

    Returns (columns, rows). Parameters iterate in sorted name order and the
    rows enumerate value combinations lexicographically, so output order is
    reproducible regardless of how the grid was supplied.

    A row needs only p(em12) and p(pf21), so a sweep finds no Nash set and
    writes no notes. It builds the case-adjusted order at most once, checks
    each axis value once, and evaluates k(C) and k(Q) once per distinct
    score.
    """
    if not isinstance(grid, (dict, Mapping)):
        raise ValidationError(f"sweep grid must be a mapping, got {type(grid).__name__}")
    if not grid:
        raise ValidationError("sweep grid is empty")
    # a key that is not a string, which sorting could refuse, fails as unknown
    names = sorted(grid, key=lambda n: n if isinstance(n, str) else _param_target(n))
    for name in names:
        _param_target(name)
        axis = grid[name]
        if isinstance(axis, str) or not isinstance(axis, (list, tuple, Sequence)):
            raise ValidationError(
                f"parameter {name!r} needs a list or tuple of values, "
                f"got {type(axis).__name__}"
            )
        if not axis:
            raise ValidationError(f"parameter {name!r} has no grid values")
    rows, _ = _grid(scenario, effective_constraints(scenario), grid, names)
    return names + list(SWEEP_METRICS), rows


def _grid(
    scenario: Scenario,
    order: ConstraintSet,
    grid: Mapping[str, Sequence[float]],
    names: Sequence[str] = (),
) -> tuple[list[list[float]], dict[str, dict[float, float]]]:
    """The rows over a grid, whose ``names`` come checked and sorted, and
    the caps by "C" or "Q" and score. An empty grid gives the scenario's own
    point. ``order`` is the case-adjusted order. Under strong evidence
    p(pf21) is the chain PF22 > PF12 > PF11, whose second link the case has
    made certain, so it is p(PF22 > PF12); it is computed first, so its
    error precedes any axis check.

    A bad grid raises what solving its points one by one raises, after the
    same warnings, from one walk over the axes. The first failing point is
    the first point or lies on a line through it: it holds the first bad
    value of the last axis that has one, and every other coordinate at its
    axis's first value. Every value is first met on one of those lines, and
    in grid order the lines come last axis first. So the walk checks the
    first point as ``solve`` after ``with_parameters`` does, then each later
    value of each axis, last axis first, as its own point does. A repeated
    value only repeats checks that passed and warnings already shown.
    """
    chain_p_pf21 = None  # under weak evidence the weight times the cap
    if scenario.case is Case.STRONG_EVIDENCE:
        _, _, _, pf12, pf22 = _dilemma_ids(scenario.game)
        chain_p_pf21 = order.independent_chain_probability([(pf22, pf12)])
    em, pf = scenario.em_params, scenario.pf_params
    published = scenario.mode is Mode.PUBLISHED
    # the axes in sorted name order C, Q, r, s; one not swept holds the
    # scenario's own value, so their product enumerates the grid's points.
    # A literal, cheaper per call than building them from scenario.PARAMETERS
    axes = {
        "C": grid.get("C", [em.score]),
        "Q": grid.get("Q", [pf.score]),
        "r": grid.get("r", [em.weight]),
        "s": grid.get("s", [pf.weight]),
    }
    caps: dict[str, dict[float, float]] = {"C": {}, "Q": {}}
    root = math.sqrt(2.0 * em.variance)  # k below is score_factor's, bit for bit

    def gate_and_cap(name: str, score: float):
        if score not in caps[name]:
            if not published:
                caps[name][score] = (1.0 - _tail(math.sqrt(score), root)) / 3.0
                return
            # the published-mode gate: a constant refers to one score only
            ref_score, constant = PUBLISHED_TABLE["em12" if name == "C" else "pf21"]
            if not abs(score - ref_score) <= SCORE_MATCH_TOLERANCE:
                raise ValidationError(
                    f"published mode requires {name} = {ref_score:g} "
                    f"(the score the published constant refers to), got "
                    f"{score!r}; use computed mode for other scores"
                )
            caps[name][score] = constant

    # the first point, as ``solve`` after ``with_parameters`` checks it
    for score, weight in dict.fromkeys(_SIDE_NAMES[PARAMETERS[n][0]] for n in names):
        check_score(axes[score][0])
        check_weight(axes[weight][0])
        warn_outside_interior(axes[score][0])
    gate_and_cap("C", axes["C"][0])
    gate_and_cap("Q", axes["Q"][0])
    # the lines through the first point, in grid order
    for name in reversed(names):
        for value in itertools.islice(axes[name], 1, None):
            if name in caps:
                check_score(value)
                warn_outside_interior(value)
                gate_and_cap(name, value)
            else:
                check_weight(value)

    em_caps = [caps["C"][score] for score in axes["C"]]
    pf_caps = [caps["Q"][score] for score in axes["Q"]]
    rows: list[list[float]] = []
    combos = itertools.product(*(grid[name] for name in names))
    factors = itertools.product(em_caps, pf_caps, axes["r"], axes["s"])
    for combo, (em_cap, pf_cap, r, s) in zip(combos, factors):
        p_em12 = r * em_cap
        p_pf21 = s * pf_cap if chain_p_pf21 is None else chain_p_pf21
        p_cell_11 = p_em12 * (1.0 - p_pf21)
        p_cell_22 = p_pf21 * (1.0 - p_em12)
        rows.append(
            [*combo, p_em12, p_pf21, p_cell_11, p_cell_22,
             1.0 - p_cell_11 - p_cell_22]
        )
    return rows, caps
