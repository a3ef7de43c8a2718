"""What every frozen record type of the package promises, one table row per
type: field order and defaults, equality with its own class only, a hash
equal to that of its field tuple, the ``Name(field=value, ...)`` repr,
refusal of assignment and deletion, a ``replace`` that checks again, and
copies and pickles rebuilt from the fields."""
import copy
import importlib
import pickle
import pkgutil
from collections import namedtuple

import pytest

import splitgame
from splitgame import ipd_scenario
from splitgame._record import Record, replace
from splitgame.bayes import ComparisonEvent, EventSpace
from splitgame.constraints import ConstraintSet, DominanceConstraint
from splitgame.errors import DomainError, InconsistentOrderError, ValidationError
from splitgame.game import CellCoord, OrdinalGame
from splitgame.index_model import IndexParameters, Mode
from splitgame.montecarlo import (
    Disagreement,
    NashVerification,
    SimulationConfig,
    SimulationResult,
    verify_nash_numeric,
)
from splitgame.scenario import Case, Scenario, SimulationDefaults
from splitgame.solver import DecisionReport
from splitgame.survey import Instrument, PIndexScore, SurveyItem, SurveyResponse

# cls: the record type; fields: its field names in order; values: one value
# per field, the trailing ``len(fields) - required`` of them its defaults;
# text: the repr; change: fields to replace with other valid values;
# bad: fields to replace with values its checks refuse, raising ``error``
Row = namedtuple(
    "Row", "cls fields values required text change bad error",
    defaults=(None, None),
)

GAME = OrdinalGame(("u",), ("l",), ((("a", "b"),),))
EVENT = ComparisonEvent("em12", "a", "b")
ITEM = SurveyItem(1, "t", "positive")

ROWS = [
    Row(
        EventSpace, ("labels", "prior"), (("x", "y"), (0.5, 0.5)), 2,
        "EventSpace(labels=('x', 'y'), prior=(0.5, 0.5))",
        {"labels": ("x", "z")}, {"prior": (0.5, 0.6)}, DomainError,
    ),
    Row(
        ComparisonEvent, ("label", "left", "right"), ("em12", "a", "b"), 3,
        "ComparisonEvent(label='em12', left='a', right='b')",
        {"right": "c"}, {"right": "a"}, ValidationError,
    ),
    Row(
        DominanceConstraint,
        ("left", "right", "probability", "bound", "group"),
        ("a", "b", 0.75, "exact", None), 3,
        "DominanceConstraint(left='a', right='b', probability=0.75, "
        "bound='exact', group=None)",
        {"group": "g"}, {"probability": 1.5}, ValidationError,
    ),
    Row(
        ConstraintSet, ("constraints", "universe"), ((), None), 0,
        "ConstraintSet(0 constraints, open)",
        {"universe": frozenset({"a", "b"})},
        {"constraints": (
            DominanceConstraint("a", "b", 1.0), DominanceConstraint("b", "a", 1.0)
        )},
        InconsistentOrderError,
    ),
    Row(
        OrdinalGame, ("row_strategies", "col_strategies", "cells"),
        (("u",), ("l",), ((("a", "b"),),)), 3,
        "OrdinalGame(row_strategies=('u',), col_strategies=('l',), "
        "cells=((('a', 'b'),),))",
        {"cells": ((("a", "c"),),)}, {"row_strategies": ("u", "d")},
        ValidationError,
    ),
    Row(
        IndexParameters, ("score", "weight", "variance"), (3.4, 0.5, 10.0), 2,
        "IndexParameters(score=3.4, weight=0.5, variance=10.0)",
        {"weight": 0.25}, {"weight": 1.0}, DomainError,
    ),
    Row(
        SimulationConfig, ("trials", "seed", "p_em12", "p_pf21"),
        (100, 7, 0.25, 0.5), 4,
        "SimulationConfig(trials=100, seed=7, p_em12=0.25, p_pf21=0.5)",
        {"seed": 8}, {"p_em12": 1.5}, ValidationError,
    ),
    Row(
        SimulationResult,
        ("freq_cell_11", "freq_cell_22", "freq_indeterminate",
         "standard_error", "trials", "seed", "algorithm"),
        (0.25, 0.5, 0.25, 0.05, 100, 7, "pcg64"), 6,
        "SimulationResult(freq_cell_11=0.25, freq_cell_22=0.5, "
        "freq_indeterminate=0.25, standard_error=0.05, trials=100, seed=7, "
        "algorithm='pcg64')",
        {"seed": 8},
    ),
    Row(
        Disagreement, ("trial", "cell", "kind"),
        (3, CellCoord(0, 1), "equilibrium_failed"), 3,
        "Disagreement(trial=3, cell=CellCoord(row=0, col=1), "
        "kind='equilibrium_failed')",
        {"kind": "non_equilibrium_appeared"},
    ),
    Row(
        NashVerification,
        ("trials", "seed", "symbolic_equilibria", "symbolic_undecided",
         "checked_cells", "disagreements", "algorithm"),
        (100, 7, (CellCoord(0, 0),), (), 300, (), "pcg64"), 6,
        "NashVerification(trials=100, seed=7, "
        "symbolic_equilibria=(CellCoord(row=0, col=0),), "
        "symbolic_undecided=(), checked_cells=300, disagreements=(), "
        "algorithm='pcg64')",
        {"checked_cells": 200},
    ),
    Row(
        SimulationDefaults, ("trials", "seed"), (100, 7), 2,
        "SimulationDefaults(trials=100, seed=7)",
        {"seed": 8}, {"trials": 0}, ValidationError,
    ),
    Row(
        Scenario,
        ("name", "game", "constraints", "events", "em_params", "pf_params",
         "case", "mode", "mc", "description", "players"),
        ("s", GAME, ConstraintSet([]), EventSpace(("e",), (1.0,)),
         IndexParameters(3.4, 0.5), IndexParameters(6.5, 0.5),
         Case.WEAK_EVIDENCE, Mode.COMPUTED, None, "", ("row", "column")), 8,
        "Scenario(name='s', game=OrdinalGame(row_strategies=('u',), "
        "col_strategies=('l',), cells=((('a', 'b'),),)), "
        "constraints=ConstraintSet(0 constraints, open), "
        "events=EventSpace(labels=('e',), prior=(1.0,)), "
        "em_params=IndexParameters(score=3.4, weight=0.5, variance=10.0), "
        "pf_params=IndexParameters(score=6.5, weight=0.5, variance=10.0), "
        "case=<Case.WEAK_EVIDENCE: 'weak_evidence'>, "
        "mode=<Mode.COMPUTED: 'computed'>, mc=None, description='', "
        "players=('row', 'column'))",
        {"description": "d"},
        {"pf_params": IndexParameters(6.5, 0.5, 5.0)}, ValidationError,
    ),
    Row(
        DecisionReport,
        ("scenario_name", "mode", "case", "p_em12", "p_pf21", "p_cell_11",
         "p_cell_22", "indeterminate", "nash_cells", "undecided_cells",
         "bounds", "comparison_events", "notes", "inputs"),
        ("s", "computed", "weak_evidence", 0.5, 0.25, 0.375, 0.125, 0.5,
         (CellCoord(0, 0),), (), {"p_em12_cap": 0.3}, (EVENT,), ("n",), {}),
        13,
        "DecisionReport(scenario_name='s', mode='computed', "
        "case='weak_evidence', p_em12=0.5, p_pf21=0.25, p_cell_11=0.375, "
        "p_cell_22=0.125, indeterminate=0.5, "
        "nash_cells=(CellCoord(row=0, col=0),), undecided_cells=(), "
        "bounds={'p_em12_cap': 0.3}, "
        "comparison_events=(ComparisonEvent(label='em12', left='a', "
        "right='b'),), notes=('n',), inputs={})",
        {"notes": ()},
    ),
    Row(
        SurveyItem, ("index", "text", "polarity"), (1, "t", "positive"), 3,
        "SurveyItem(index=1, text='t', polarity='positive')",
        {"text": "u"}, {"polarity": "neutral"}, ValidationError,
    ),
    Row(
        Instrument, ("version", "name", "items"), (1, "i", (ITEM,)), 3,
        "Instrument(version=1, name='i', items=(SurveyItem(index=1, "
        "text='t', polarity='positive'),))",
        {"name": "j"}, {"items": ()}, ValidationError,
    ),
    Row(
        SurveyResponse, ("answers",), ({1: "a"},), 1,
        "SurveyResponse(answers={1: 'a'})",
        {"answers": {1: "b"}}, {"answers": {True: "a"}}, ValidationError,
    ),
    Row(
        PIndexScore, ("raw_sum", "p_index", "n_items"), (7, 0.0, 7), 2,
        "PIndexScore(raw_sum=7, p_index=0.0, n_items=7)",
        {"p_index": 1.0}, {"raw_sum": 100}, ValidationError,
    ),
]

# records holding a dict, which cannot be hashed
UNHASHABLE = {SurveyResponse, DecisionReport}

by_type = pytest.mark.parametrize(
    "row", ROWS, ids=[row.cls.__qualname__ for row in ROWS]
)


def build(row):
    return row.cls(*row.values)


def record_types() -> set:
    """Every ``Record`` subclass the package's modules define."""
    for module in pkgutil.iter_modules(splitgame.__path__):
        importlib.import_module(f"splitgame.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("splitgame."):
                found.add(cls)
    return found


def test_table_covers_every_record_type():
    assert len({row.cls for row in ROWS}) == len(ROWS)
    assert {row.cls for row in ROWS} == record_types()


@by_type
def test_fields_in_order(row):
    record = build(row)
    assert tuple(getattr(record, name) for name in row.fields) == row.values
    assert row.cls(**dict(zip(row.fields, row.values))) == record


@by_type
def test_defaults(row):
    assert row.cls(*row.values[:row.required]) == build(row)
    if row.required:
        with pytest.raises(TypeError):
            row.cls(*row.values[:row.required - 1])
    with pytest.raises(TypeError):
        row.cls(*row.values, None)
    with pytest.raises(TypeError):
        row.cls(*row.values, no_such_field=None)


def test_each_report_gets_its_own_inputs():
    row = next(row for row in ROWS if row.cls is DecisionReport)
    first, second = (
        DecisionReport(*row.values[:row.required]) for _ in range(2)
    )
    assert first.inputs == {} and first.inputs is not second.inputs


@by_type
def test_equality_is_per_class(row):
    record = build(row)
    assert record == build(row)
    assert not record != build(row)
    assert record != replace(record, **row.change)
    assert record.__eq__(row.values) is NotImplemented
    assert record != row.values
    other = next(build(o) for o in ROWS if o.cls is not row.cls)
    assert record.__eq__(other) is NotImplemented
    assert record != other


@by_type
def test_hash_is_the_field_tuples(row):
    record = build(row)
    if row.cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(row.values)


@by_type
def test_repr(row):
    assert repr(build(row)) == row.text


@by_type
def test_fields_are_frozen(row):
    record = build(row)
    for name in (*row.fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in row.fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in row.fields) == row.values


@by_type
def test_replace(row):
    record = build(row)
    changed = replace(record, **row.change)
    assert type(changed) is row.cls and changed is not record
    for name, value in zip(row.fields, row.values):
        assert getattr(changed, name) == row.change.get(name, value)
    assert replace(record) == record
    with pytest.raises(TypeError):
        replace(record, no_such_field=None)


@pytest.mark.parametrize(
    "row", [row for row in ROWS if row.bad],
    ids=[row.cls.__qualname__ for row in ROWS if row.bad],
)
def test_replace_checks_again(row):
    with pytest.raises(row.error):
        replace(build(row), **row.bad)


@by_type
def test_copies_and_pickles_equal_the_record(row):
    record = build(row)
    for clone in (
        copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
    ):
        assert type(clone) is row.cls and clone is not record
        assert clone == record and repr(clone) == row.text


def _sampled_ipd():
    """The shipped scenario after a verify run: its set keeps a sampling
    plan and a check plan."""
    scenario = ipd_scenario()
    verify_nash_numeric(scenario.game, scenario.constraints, 10, 0)
    return scenario, scenario.constraints


def _sampled_crown():
    """The 2+2 crown after a draw: A and B each above both C and D."""
    crown = ConstraintSet(
        [DominanceConstraint(top, bottom, 1.0) for top in "AB" for bottom in "CD"]
    )
    crown.sample_realization(0, size=3)
    return crown, crown


# the tables every set builds for itself; the sampling plan and the check
# slot start empty (None) in a copy
TABLES = ("_exact", "_reach")


@pytest.mark.parametrize("sampled", [_sampled_ipd, _sampled_crown], ids=["ipd", "crown"])
def test_a_sampled_set_pickles_and_copies_without_its_kept_state(sampled):
    record, constraints = sampled()
    assert constraints._plan is not None
    expected = constraints.sample_realization(7, size=5)
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record
    clone_set = clone if clone.__class__ is ConstraintSet else clone.constraints
    assert clone_set._plan is None and clone_set._check is None
    drawn = clone_set.sample_realization(7, size=5)
    assert list(drawn) == list(expected)
    assert all(drawn[name].tobytes() == expected[name].tobytes() for name in drawn)
    shallow = copy.copy(constraints)
    assert shallow == constraints
    assert shallow._plan is None and shallow._check is None
    for name in TABLES:
        assert getattr(shallow, name) is not getattr(constraints, name), name
