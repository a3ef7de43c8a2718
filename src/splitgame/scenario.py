"""The scenario: its model, its JSON file format, and the bundled dilemma.

A scenario bundles a 2x2 ordinal game, its dominance constraints, the event
environment, the two coefficient parameter sets, the evidential case and the
mode. ``Scenario.to_dict`` writes the file format; ``load_scenario`` reads
it and validates it against the schema shipped at
``splitgame/resources/scenario.schema.json`` (unknown fields are rejected
with the offending path named), then semantically: symbols must be unique
and covered by the game, priors must be finite and sum to one, weights must
sit strictly inside (0, 1). The non-standard JSON literals NaN, Infinity
and -Infinity are rejected while the file is read.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from enum import Enum

from . import _resource
from ._record import Record, replace
from .bayes import EventSpace
from .constraints import BOUND_EXACT, ConstraintSet, DominanceConstraint
from .errors import UnknownSymbolError, ValidationError, _sequence, _shown
from .errors import check_document, check_kind, check_path, check_seed, check_trials
from .game import OrdinalGame
from .index_model import DEFAULT_VARIANCE, IndexParameters, Mode

# file parameter -> (Scenario field, IndexParameters field), in file order
PARAMETERS = {
    "r": ("em_params", "weight"),
    "C": ("em_params", "score"),
    "s": ("pf_params", "weight"),
    "Q": ("pf_params", "score"),
}


def _param_target(name: str) -> tuple[str, str]:
    """The (scenario attribute, field) a sweepable parameter lands in."""
    try:
        return PARAMETERS[name]
    except KeyError:
        raise ValidationError(
            f"unknown parameter {_shown(name)}; sweepable parameters: "
            f"{', '.join(sorted(PARAMETERS))}"
        ) from None


def with_parameters(scenario: Scenario, overrides: Mapping[str, float]) -> Scenario:
    """A copy with some of r, s, C, Q replaced: the writer ``ipd_scenario`` uses."""
    check_kind("scenario", scenario, Scenario)
    check_kind("overrides", overrides, Mapping)
    updates: dict[str, dict[str, float]] = {}
    for name, value in overrides.items():
        attr, fieldname = _param_target(name)
        updates.setdefault(attr, {})[fieldname] = value
    changes = {attr: replace(getattr(scenario, attr), **kw) for attr, kw in updates.items()}
    return replace(scenario, **changes)


class Case(Enum):
    """Evidential regime for the column player's strict course."""

    STRONG_EVIDENCE = "strong_evidence"
    WEAK_EVIDENCE = "weak_evidence"


class SimulationDefaults(Record):
    """Scenario-level Monte Carlo defaults."""

    trials: int
    seed: int

    def __post_init__(self):
        check_trials(self.trials)
        check_seed(self.seed)


class Scenario(Record):
    """Everything needed to solve one decision problem.

    The order must know every game symbol unless it is open
    (``universe=None``); a loaded scenario's order knows exactly those."""

    name: str
    game: OrdinalGame
    constraints: ConstraintSet
    events: EventSpace
    em_params: IndexParameters
    pf_params: IndexParameters
    case: Case
    mode: Mode
    mc: SimulationDefaults | None = None
    description: str = ""
    players: tuple[str, str] = ("row", "column")

    def __post_init__(self):
        for name, kind in (
            ("name", str), ("game", OrdinalGame), ("constraints", ConstraintSet),
            ("events", EventSpace), ("em_params", IndexParameters),
            ("pf_params", IndexParameters), ("case", Case), ("mode", Mode),
        ):
            check_kind(name, getattr(self, name), kind)
        if self.mc is not None:
            check_kind("mc", self.mc, SimulationDefaults)
        check_kind("description", self.description, str)
        players = _sequence("players", self.players, "two strings")
        if len(players) != 2 or not all(isinstance(p, str) for p in players):
            raise ValidationError(f"players must be two strings, got {_shown(players)}")
        object.__setattr__(self, "players", tuple(players))  # stored hashable
        # the file format holds one variance for both coefficient parameter
        # sets, so a scenario with two could not echo its own inputs
        em, pf = self.em_params.variance, self.pf_params.variance
        if em != pf:
            raise ValidationError(
                f"em_params and pf_params must share one variance, got "
                f"{em!r} and {pf!r}"
            )
        universe = self.constraints.universe
        missing = () if universe is None else self.game.symbol_ids() - universe
        if missing:
            raise UnknownSymbolError(f"unknown payoff symbol {min(missing)!r}")

    def to_dict(self) -> dict:
        """The canonical file-format dictionary for this scenario."""
        game = self.game
        payload: dict = {
            "name": self.name,
            "game": {
                "row_player": self.players[0],
                "col_player": self.players[1],
                "row_strategies": list(game.row_strategies),
                "col_strategies": list(game.col_strategies),
                "payoffs": [[list(pair) for pair in row] for row in game.cells],
            },
            "constraints": [
                _constraint_to_dict(c) for c in self.constraints.constraints
            ],
            "events": {
                "labels": list(self.events.labels),
                "prior": list(self.events.prior),
            },
            "parameters": {
                **{name: getattr(getattr(self, attr), field)
                   for name, (attr, field) in PARAMETERS.items()},
                "variance": self.em_params.variance,
            },
            "case": self.case.value,
            "mode": self.mode.value,
        }
        if self.description:
            payload["description"] = self.description
        if self.mc is not None:
            payload["mc"] = {"trials": self.mc.trials, "seed": self.mc.seed}
        return payload


def _constraint_to_dict(c: DominanceConstraint) -> dict:
    entry: dict = {"left": c.left, "right": c.right, "probability": c.probability}
    if c.bound != BOUND_EXACT:
        entry["bound"] = c.bound
    if c.group:
        entry["group"] = c.group
    return entry


def scenario_schema() -> dict:
    """The published JSON schema for scenario files, as a copy the caller
    may change without changing how files are checked."""
    import copy  # only callers of this function need it

    return copy.deepcopy(_resource("scenario.schema.json"))


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file; a leading UTF-8 byte order mark
    is dropped, as RFC 8259 lets a parser do."""
    def reject_non_finite(literal: str):
        raise ValidationError(f"{path}: {literal} is not a finite number")

    check_path(path)
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle, parse_constant=reject_non_finite)
        except ValidationError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from None
        except ValueError:  # int() refuses a literal past its digit limit
            limit = sys.get_int_max_str_digits()
            raise ValidationError(
                f"{path}: not valid JSON: integer literal longer than {limit} digits"
            ) from None
        except RecursionError:
            raise ValidationError(
                f"{path}: not valid JSON: nested too deeply"
            ) from None
    return scenario_from_dict(data, source=str(path))


def scenario_from_dict(data: Mapping, source: str = "<scenario>") -> Scenario:
    """Build a scenario from an already-parsed document."""
    check_document(data, _resource("scenario.schema.json"), source)

    def number(where: str, value) -> float:
        try:
            return float(value)
        except OverflowError:  # a JSON integer too large for a float
            raise ValidationError(
                f"{source}: {where}: integer too large for a float"
            ) from None

    game_data = data["game"]
    game = OrdinalGame.from_ids(
        game_data["row_strategies"],
        game_data["col_strategies"],
        game_data["payoffs"],
    )
    constraints = ConstraintSet(
        (
            DominanceConstraint(
                entry["left"],
                entry["right"],
                entry["probability"],
                bound=entry.get("bound", BOUND_EXACT),
                group=entry.get("group"),
            )
            for entry in data["constraints"]
        ),
        universe=game.symbol_ids(),
    )
    prior = data["events"]["prior"]
    events = EventSpace(
        tuple(data["events"]["labels"]),
        tuple(number(f"events/prior/{i}", p) for i, p in enumerate(prior)),
    )
    params = {
        name: number(f"parameters/{name}", value)
        for name, value in data["parameters"].items()
    }
    variance = params.get("variance", DEFAULT_VARIANCE)
    fields: dict[str, dict[str, float]] = {}
    for name, (attr, field) in PARAMETERS.items():
        fields.setdefault(attr, {"variance": variance})[field] = params[name]
    sides = {attr: IndexParameters(**kw) for attr, kw in fields.items()}
    mc = data.get("mc")
    if mc is not None:
        mc = SimulationDefaults(trials=int(mc["trials"]), seed=int(mc["seed"]))
    return Scenario(
        name=data["name"],
        game=game,
        constraints=constraints,
        events=events,
        **sides,
        case=Case(data["case"]),
        mode=Mode.parse(data["mode"]),
        mc=mc,
        description=data.get("description", ""),
        players=(game_data["row_player"], game_data["col_player"]),
    )


def ipd_scenario(
    case: Case = Case.WEAK_EVIDENCE,
    mode: Mode = Mode.PUBLISHED,
    r: float = 0.5,
    s: float = 0.5,
) -> Scenario:
    """The bundled dilemma, read from the packaged ``resources/ipd.json``
    (which ``scenarios/ipd.json`` links to) with the given case, mode and
    weights.

    An officer weighs a bribe for leniency (row side, family payoffs)
    against booking the offender on the strict course (column side,
    professional payoffs). The six base relations leave the column player's
    own-axis comparisons open, so the two comparisons needed for the
    intended equilibrium pair ship as explicit, separately grouped
    assumptions rather than silent engine behavior.
    """
    # a fresh build per call: a ConstraintSet keeps its own sampling plan
    shipped = scenario_from_dict(_resource("ipd.json"), source="ipd.json")
    return replace(with_parameters(shipped, {"r": r, "s": s}), case=case, mode=mode)
