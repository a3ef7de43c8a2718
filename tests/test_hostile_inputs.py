"""Hostile values in every public argument that takes a number or an index.

Each call must return or raise a ``SplitgameError``: a raw ``TypeError``,
``ValueError``, ``OverflowError`` or ``IndexError`` fails the table. A
sequence argument (a prior, a grid axis, event indices, a value map) gets
the hostile value as one of its entries; the message rows also pass
something other than a sequence or a mapping where one belongs, and
entries that are not ids or labels.
"""
import copy
import math
import os
from decimal import Decimal

import numpy as np
import pytest

from splitgame import (
    ComparisonEvent,
    ConstraintSet,
    DecisionReport,
    DominanceConstraint,
    EventSpace,
    IndexParameters,
    Instrument,
    Mode,
    NumericOrder,
    OrdinalGame,
    PIndexScore,
    SimulationConfig,
    SimulationDefaults,
    SplitgameError,
    SurveyItem,
    SurveyResponse,
    ValidationError,
    aggregate,
    canonical_instrument,
    comparison_events,
    effective_constraints,
    fixed_point_posterior,
    gaussian_tail,
    ipd_scenario,
    load_scenario,
    numeric_pure_nash,
    published_coefficient,
    pure_nash,
    read_responses_csv,
    scenario_from_dict,
    score_factor,
    score_response,
    simulate_selection,
    solve,
    sweep,
    verify_nash_numeric,
    with_parameters,
)
from splitgame._record import replace
from splitgame.survey import instrument_from_dict

HOSTILE = {
    "text": "1",
    "none": None,
    "bool": True,
    "complex": 1j,
    "decimal": Decimal("0.5"),
    "array": np.array([0.5, 0.5]),
    "past_float": 10**400,
    "past_repr": 10**5000,
    "object": object(),
}

IPD = ipd_scenario(mode=Mode.COMPUTED)
GAME, ORDER = IPD.game, IPD.constraints
SPACE = EventSpace.uniform(["a", "b", "c"])
ITEMS = canonical_instrument().items
SYMBOLS = sorted(GAME.symbol_ids())
# distinct values, so the Nash set depends on every comparison
VALUES = {symbol: float(k) for k, symbol in enumerate(SYMBOLS)}
REPORT = solve(IPD).to_dict()


def _report(edits):
    """The solved report's document with values replaced, each at a path
    written with "/" between keys."""
    doc = copy.deepcopy(REPORT)
    for path, value in edits.items():
        *parents, last = path.split("/")
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    return doc


def _with_probability(value):
    """The scenario's document with its first constraint's probability set
    to ``value``."""
    doc = IPD.to_dict()
    doc["constraints"][0]["probability"] = value
    return doc


def _with_payoff_pair(pair):
    """The scenario's document with ``pair`` as cell (0, 0)."""
    doc = IPD.to_dict()
    doc["game"]["payoffs"][0][0] = pair
    return doc


# argument -> a call that puts one value there, every other argument valid
CALLS = {
    "IndexParameters.score": lambda v: IndexParameters(v, 0.5),
    "IndexParameters.weight": lambda v: IndexParameters(3.4, v),
    "IndexParameters.variance": lambda v: IndexParameters(3.4, 0.5, v),
    "DominanceConstraint.probability": lambda v: DominanceConstraint("a", "b", v),
    "EventSpace.prior": lambda v: EventSpace(("a",), (v,)),
    "SimulationConfig.trials": lambda v: SimulationConfig(v, 0, 0.5, 0.5),
    "SimulationConfig.seed": lambda v: SimulationConfig(10, v, 0.5, 0.5),
    "SimulationConfig.p_em12": lambda v: SimulationConfig(10, 0, v, 0.5),
    "SimulationConfig.p_pf21": lambda v: SimulationConfig(10, 0, 0.5, v),
    "SimulationDefaults.trials": lambda v: SimulationDefaults(v, 0),
    "SimulationDefaults.seed": lambda v: SimulationDefaults(10, v),
    "gaussian_tail.lower": lambda v: gaussian_tail(v),
    "gaussian_tail.variance": lambda v: gaussian_tail(1.0, v),
    "score_factor.score": lambda v: score_factor(v),
    "score_factor.variance": lambda v: score_factor(3.4, v),
    **{
        f"sweep.{name}": lambda v, name=name: sweep(IPD, {name: [v]})
        for name in "CQrs"
    },
    "OrdinalGame.payoff.row": lambda v: GAME.payoff(v, 0, 0),
    "OrdinalGame.payoff.col": lambda v: GAME.payoff(0, v, 0),
    "OrdinalGame.payoff.player": lambda v: GAME.payoff(0, 0, v),
    "fixed_point_posterior.unaffected":
        lambda v: fixed_point_posterior(SPACE, [0, v]),
    "SurveyItem.index": lambda v: SurveyItem(v, "t", "positive"),
    "SurveyItem.text": lambda v: SurveyItem(1, v, "positive"),
    "SurveyItem.polarity": lambda v: SurveyItem(1, "t", v),
    "DominanceConstraint.bound": lambda v: DominanceConstraint("a", "b", 0.5, v),
    "OrdinalGame.strategy": lambda v: OrdinalGame(("a", v), ("c",), [[("w", "x")], [("y", "z")]]),
    "OrdinalGame.cell": lambda v: OrdinalGame(("a",), ("c",), [[("w", v)]]),
    "Instrument.version": lambda v: Instrument(v, "n", ITEMS),
    "Instrument.name": lambda v: Instrument(1, v, ITEMS),
    "Instrument.items": lambda v: Instrument(1, "n", v),
    "Instrument.item": lambda v: Instrument(1, "n", [v]),
    "ComparisonEvent.label": lambda v: ComparisonEvent(v, "a", "b"),
    "ComparisonEvent.left": lambda v: ComparisonEvent("x", v, "b"),
    "published_coefficient.mode": lambda v: published_coefficient("em12", v),
    "sample_realization.seed": lambda v: ORDER.sample_realization(v),
    "sample_realization.size": lambda v: ORDER.sample_realization(0, v),
    "verify_nash_numeric.trials": lambda v: verify_nash_numeric(GAME, ORDER, v, 0),
    "verify_nash_numeric.seed": lambda v: verify_nash_numeric(GAME, ORDER, 1, v),
    "verify_nash_numeric.game": lambda v: verify_nash_numeric(v, ORDER, 10, 0),
    "verify_nash_numeric.constraints":
        lambda v: verify_nash_numeric(GAME, v, 10, 0),
    "numeric_pure_nash.game": lambda v: numeric_pure_nash(v, VALUES),
    "numeric_pure_nash.values": lambda v: numeric_pure_nash(GAME, v),
    "pure_nash.game": lambda v: pure_nash(v, ORDER),
    "pure_nash.order": lambda v: pure_nash(GAME, v),
    "NumericOrder.one": lambda v: NumericOrder({**VALUES, "EM12": v}),
    "NumericOrder.all": lambda v: NumericOrder(dict.fromkeys(SYMBOLS, v)),
    "numeric_pure_nash.one":
        lambda v: numeric_pure_nash(GAME, {**VALUES, "EM12": v}),
    "numeric_pure_nash.all":
        lambda v: numeric_pure_nash(GAME, dict.fromkeys(SYMBOLS, v)),
    "solve.scenario": lambda v: solve(v),
    "sweep.scenario": lambda v: sweep(v, {"r": [0.5]}),
    "effective_constraints.scenario": lambda v: effective_constraints(v),
    "comparison_events.game": lambda v: comparison_events(v),
    "with_parameters.scenario": lambda v: with_parameters(v, {"r": 0.5}),
    "with_parameters.overrides": lambda v: with_parameters(IPD, v),
    "SurveyResponse.answers": lambda v: SurveyResponse(v),
    "PIndexScore.raw_sum": lambda v: PIndexScore(v, 1.0),
    "PIndexScore.p_index": lambda v: PIndexScore(7, v),
    "PIndexScore.n_items": lambda v: PIndexScore(7, 0.0, v),
    "score_response.response": lambda v: score_response(v),
    "aggregate.score": lambda v: aggregate([v]),
    "NumericOrder.values": lambda v: NumericOrder(v),
    "simulate_selection.config": lambda v: simulate_selection(v),
    "fixed_point_posterior.space": lambda v: fixed_point_posterior(v, [0]),
    "EventSpace.uniform.labels": lambda v: EventSpace.uniform(v),
    "Mode.parse": lambda v: Mode.parse(v),
    "aggregate.scores": lambda v: aggregate(v),
    "Scenario.game": lambda v: replace(IPD, game=v),
    "Scenario.constraints": lambda v: replace(IPD, constraints=v),
    "Scenario.events": lambda v: replace(IPD, events=v),
    "Scenario.em_params": lambda v: replace(IPD, em_params=v),
    "Scenario.pf_params": lambda v: replace(IPD, pf_params=v),
    "Scenario.mc": lambda v: replace(IPD, mc=v),
    "scenario_from_dict.probability": lambda v: scenario_from_dict(_with_probability(v)),
}


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE)
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_returns_or_raises_a_splitgame_error(call, value):
    try:
        call(value)
    except SplitgameError:
        pass


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: IndexParameters(np.array([3.4, 3.4]), 0.5),
            "score must be a number, got array([3.4, 3.4])",
        ),
        (
            lambda: DominanceConstraint("a", "b", True),
            "p(a > b) must be a number, got True",
        ),
        (lambda: EventSpace(("a",), ("1",)), "prior(a) must be a number, got '1'"),
        (
            lambda: SimulationConfig(10, 0, "0.5", 0.5),
            "p_em12 must be a number, got '0.5'",
        ),
        (lambda: score_factor("1"), "score must be a number, got '1'"),
        (
            lambda: sweep(ipd_scenario(), {"r": [Decimal("0.5")]}),
            "weight must be a number, got Decimal('0.5')",
        ),
        (lambda: gaussian_tail(10**5000), "tail bound: integer too large for a float"),
        (
            lambda: IndexParameters(3.4, 0.5, 10**400),
            "variance: integer too large for a float",
        ),
        (lambda: GAME.payoff(2, 0, 0), "row must be <= 1"),
        (lambda: GAME.payoff(-1, 0, 0), "row must be >= 0, got -1"),
        (lambda: GAME.payoff(0, 0, True), "player must be 0 or 1, got True"),
        (
            lambda: fixed_point_posterior(SPACE, ["0", "1"]),
            "event index must be an integer, got '0'",
        ),
        (
            lambda: SurveyItem("1", "t", "positive"),
            "item index must be an integer, got '1'",
        ),
        (
            lambda: sweep(ipd_scenario(), {"r": True}),
            "parameter 'r' needs a list or tuple of values, got bool",
        ),
        (
            lambda: sweep(ipd_scenario(), {"r": (w for w in [0.5])}),
            "parameter 'r' needs a list or tuple of values, got generator",
        ),
        (
            lambda: sweep(IPD, {"r": np.array([0.5, 0.6])}),
            "parameter 'r' needs a list or tuple of values, got ndarray",
        ),
        (
            lambda: sweep(ipd_scenario(), {"r": "0.5"}),
            "parameter 'r' needs a list or tuple of values, got str",
        ),
        (
            lambda: EventSpace(("a",), None),
            "event prior must be a list or tuple of numbers, got None",
        ),
        (
            lambda: EventSpace(("a",), 1.0),
            "event prior must be a list or tuple of numbers, got 1.0",
        ),
        (
            lambda: EventSpace("ab", (0.5, 0.5)),
            "event labels must be a list or tuple of labels, got 'ab'",
        ),
        (
            lambda: fixed_point_posterior(SPACE, None),
            "unaffected event indices must be iterable, got None",
        ),
        (
            lambda: DominanceConstraint(5, 6, 1.0),
            "constraint symbols must be non-empty ids",
        ),
        (
            lambda: ConstraintSet((), universe="ab"),
            "universe must be a list, tuple or set of non-empty ids, got 'ab'",
        ),
        (
            lambda: ConstraintSet((), universe=5),
            "universe must be a list, tuple or set of non-empty ids, got 5",
        ),
        (
            lambda: ConstraintSet((), universe=["a", 3]),
            "universe must be a list, tuple or set of non-empty ids, got ['a', 3]",
        ),
        (
            lambda: EventSpace(([1],), (1.0,)),
            "event label must be a non-empty string, got [1]",
        ),
        (
            lambda: EventSpace((1,), (1.0,)),
            "event label must be a non-empty string, got 1",
        ),
        (
            lambda: EventSpace(("a", ""), (0.5, 0.5)),
            "event label must be a non-empty string, got ''",
        ),
        (lambda: sweep(ipd_scenario(), 5), "sweep grid must be a mapping, got int"),
        (
            lambda: sweep(ipd_scenario(), {"r": [0.5]}.items()),
            "sweep grid must be a mapping, got dict_items",
        ),
        (
            lambda: sweep(ipd_scenario(), [("r", [0.5])]),
            "sweep grid must be a mapping, got list",
        ),
        (
            lambda: verify_nash_numeric(None, ORDER, 10, 0),
            "game must be OrdinalGame, got NoneType",
        ),
        (
            lambda: verify_nash_numeric(GAME, GAME, 10, 0),
            "constraints must be ConstraintSet, got OrdinalGame",
        ),
        (
            lambda: numeric_pure_nash(GAME, list(VALUES.values())),
            "values must be Mapping, got list",
        ),
        (
            lambda: pure_nash(GAME, None),
            "order.implies must be Callable, got NoneType",
        ),
        (
            lambda: pure_nash(GAME, VALUES),
            "order.implies must be Callable, got NoneType",
        ),
        (
            lambda: ConstraintSet(None),
            "constraints must be an iterable of DominanceConstraint, got None",
        ),
        (
            lambda: ConstraintSet(5),
            "constraints must be an iterable of DominanceConstraint, got 5",
        ),
        (
            lambda: ConstraintSet([1]),
            "constraint 0 must be DominanceConstraint, got int",
        ),
        (
            lambda: ConstraintSet([*ORDER.constraints, "EM11 > EM12"]),
            f"constraint {len(ORDER.constraints)} must be DominanceConstraint, "
            "got str",
        ),
        (lambda: ipd_scenario(case=5), "case must be Case, got int"),
        (lambda: ipd_scenario(case="weak_evidence"), "case must be Case, got str"),
        (lambda: ipd_scenario(mode="computed"), "mode must be Mode, got str"),
        (lambda: ipd_scenario(mode=None), "mode must be Mode, got NoneType"),
        (
            lambda: load_scenario(None),
            "path must be str, bytes or os.PathLike, got None",
        ),
        (  # no descriptor this high is open: the parent's open() fails alone
            lambda: load_scenario(10**6),
            "path must be str, bytes or os.PathLike, got 1000000",
        ),
        (
            lambda: read_responses_csv(None),
            "path must be str, bytes or os.PathLike, got None",
        ),
        (
            lambda: read_responses_csv(10**6),
            "path must be str, bytes or os.PathLike, got 1000000",
        ),
        (
            lambda: DominanceConstraint("a", "b", 0.5, group=5),
            "constraint group must be None or a non-empty id, got 5",
        ),
        (
            lambda: DominanceConstraint("a", "b", 0.5, group=""),
            "constraint group must be None or a non-empty id, got ''",
        ),
        (lambda: ORDER.implies([], "EM11"), "payoff symbol must be str, got list"),
        (
            lambda: ConstraintSet([]).implies("a", None),
            "payoff symbol must be str, got NoneType",
        ),
        (
            lambda: ORDER.independent_chain_probability(None),
            "chain must be a list or tuple of (greater, lesser) pairs, got None",
        ),
        (
            lambda: ORDER.independent_chain_probability([("EM11",)]),
            "chain entry must be a (greater, lesser) pair, got ('EM11',)",
        ),
        (
            lambda: Mode.parse([]),
            "unknown mode []; expected 'computed' or 'published'",
        ),
        (
            lambda: DecisionReport.from_dict(
                _report({"results/p_em12": "x", "mode": 5, "notes": "ab"})
            ),
            "<report>: mode: 5 is not one of ['computed', 'published']",
        ),
        (
            lambda: DecisionReport.from_dict(
                _report({"bounds": {"a": "b"}, "results/nash_cells": [["a", "b"]]})
            ),
            "<report>: bounds: Additional properties are not allowed "
            "('a' was unexpected)",
        ),
        (
            lambda: instrument_from_dict({
                "version": "x",
                "items": [{"index": 1, "text": 5, "polarity": "positive"}],
            }),
            "<instrument>: items/0/text: 5 is not of type 'string'",
        ),
        (lambda: aggregate(5), "scores must be a list or tuple of PIndexScore, got 5"),
        (lambda: replace(IPD, game=None), "game must be OrdinalGame, got NoneType"),
        (lambda: replace(IPD, events="abc"), "events must be EventSpace, got str"),
        (lambda: replace(IPD, mc="1"), "mc must be SimulationDefaults, got str"),
        (
            lambda: scenario_from_dict(_with_probability(10**5000)),
            "<scenario>: constraints/0/probability: a number too long to print "
            "is greater than the maximum of 1",
        ),
        (
            lambda: scenario_from_dict({**IPD.to_dict(), 10**5000: 1}),
            "<scenario>: <root>: Additional properties are not allowed "
            "(a number too long to print was unexpected)",
        ),
        (
            lambda: scenario_from_dict(_with_payoff_pair(["EM11", "PF11", 10**5000])),
            "<scenario>: game/payoffs/0/0: a list holding a number too long "
            "to print is too long",
        ),
        (lambda: replace(IPD, name=5), "name must be str, got int"),
        (lambda: replace(IPD, description=None), "description must be str, got NoneType"),
        (
            lambda: replace(IPD, players=None),
            "players must be a list or tuple of two strings, got None",
        ),
        (lambda: replace(IPD, players=("a",)), "players must be two strings, got ('a',)"),
        (
            lambda: ComparisonEvent(5, "a", "b"),
            "comparison event label must be str, got int",
        ),
        (
            lambda: ComparisonEvent("x", 1, 2),
            "comparison event 'x' left symbol must be a non-empty string, got 1",
        ),
        (
            lambda: ComparisonEvent("x", "", "b"),
            "comparison event 'x' left symbol must be a non-empty string, got ''",
        ),
        (
            lambda: ComparisonEvent("x", "a", None),
            "comparison event 'x' right symbol must be a non-empty string, got None",
        ),
        (
            lambda: SurveyItem(1, 5, "positive"),
            "item 1 text must be a non-empty string, got 5",
        ),
        (
            lambda: SurveyItem(1, "", "positive"),
            "item 1 text must be a non-empty string, got ''",
        ),
        (
            lambda: Instrument("x", "n", ITEMS),
            "instrument version must be an integer, got 'x'",
        ),
        (lambda: Instrument(0, "n", ITEMS), "instrument version must be >= 1, got 0"),
        (
            lambda: Instrument(1, 5, ITEMS),
            "instrument name must be a non-empty string, got 5",
        ),
        (
            lambda: Instrument(1, "n", [1]),
            "instrument item must be SurveyItem, got int",
        ),
        (
            lambda: Instrument(1, "n", ITEMS[0]),
            "instrument items must be a list or tuple of SurveyItem, got "
            + repr(ITEMS[0]),
        ),
        (
            lambda: EventSpace.uniform("ab"),
            "event labels must be a list or tuple of labels, got 'ab'",
        ),
        (
            lambda: published_coefficient("em12", "published"),
            "mode must be Mode, got str",
        ),
        (
            lambda: EventSpace.uniform({"a", "b", "c"}),
            "event labels need a list or tuple of labels, got set",
        ),
    ],
    ids=[
        "array_score", "bool_probability", "text_prior", "text_probability",
        "text_score_factor", "decimal_grid_value", "huge_tail_bound",
        "huge_variance", "row_past_grid", "negative_row", "bool_player",
        "text_event_index", "text_item_index", "bool_axis", "generator_axis",
        "array_axis", "text_axis", "none_prior", "number_prior", "text_labels",
        "none_event_indices", "int_symbols", "text_universe", "int_universe",
        "int_in_universe", "list_label", "int_label", "empty_label", "int_grid",
        "items_grid", "list_grid", "none_game", "game_as_order", "list_values",
        "none_order", "values_as_order", "none_constraints", "int_constraints",
        "int_constraint", "text_constraint", "int_case", "text_case",
        "text_mode", "none_mode", "none_scenario_path", "int_scenario_path",
        "none_csv_path", "int_csv_path", "int_group", "empty_group",
        "list_symbol", "none_symbol_open_set", "none_chain", "short_chain_entry",
        "list_mode", "text_report_metric", "text_report_cell", "text_item_text",
        "int_scores", "none_scenario_game", "text_scenario_events",
        "text_scenario_mc", "huge_schema_value", "huge_schema_key",
        "huge_int_in_list", "int_scenario_name", "none_description",
        "none_players", "one_player", "int_event_label", "int_event_symbols",
        "empty_event_symbol", "none_event_symbol", "int_item_text",
        "empty_item_text", "text_instrument_version", "zero_instrument_version",
        "int_instrument_name", "int_instrument_item", "item_as_instrument_items",
        "text_uniform_labels", "text_published_mode", "set_uniform_labels",
    ],
)
def test_message(make, message):
    with pytest.raises(ValidationError) as error:
        make()
    assert str(error.value) == message


@pytest.mark.parametrize("read", [load_scenario, read_responses_csv])
def test_a_file_descriptor_is_not_a_path(read):
    # open() reads an int as a descriptor and closes it when done; the
    # write end is closed first, so a read would end at once
    r, w = os.pipe()
    os.close(w)
    try:
        with pytest.raises(ValidationError) as error:
            read(r)
        assert str(error.value) == f"path must be str, bytes or os.PathLike, got {r}"
        os.fstat(r)  # still open
    finally:
        os.close(r)


# scalars both sides of the numeric check read as numbers, and the rest
REAL = {
    "int": 3,
    "float": 2.5,
    "bool": True,
    "np_float32": np.float32(0.5),
    "np_int64": np.int64(3),
    "np_bool": np.bool_(True),
    "zero_dim_array": np.array(0.5),
    "past_int64": 10**30,
    "past_uint64": -(2**64),
}
NOT_REAL = {**HOSTILE, "array": np.array(0.5 + 1j), "np_text": np.str_("1")}
del NOT_REAL["bool"]


def _outcome(call):
    try:
        return "cells", call()
    except Exception as error:
        return "error", type(error), str(error)


@pytest.mark.parametrize("where", ["one", "all"])
@pytest.mark.parametrize(
    "value", [*REAL.values(), *NOT_REAL.values(), math.nan],
    ids=[*REAL, *(f"not_real_{name}" for name in NOT_REAL), "nan"],
)
def test_numeric_order_and_scan_agree(value, where):
    # acceptance criterion 6 compares the two; they read a number alike
    values = (
        {**VALUES, "EM12": value} if where == "one"
        else dict.fromkeys(SYMBOLS, value)
    )
    symbolic = _outcome(lambda: pure_nash(GAME, NumericOrder(values))[0])
    assert symbolic == _outcome(lambda: numeric_pure_nash(GAME, values))
    symbol = "EM12" if where == "one" else "EM11"
    if value is math.nan:
        assert symbolic[2] == f"numeric value for symbol {symbol!r} is NaN"
    elif any(value is bad for bad in NOT_REAL.values()):
        assert symbolic == (
            "error",
            ValidationError,
            f"numeric value for symbol {symbol!r} is not a real number",
        )
    else:
        assert symbolic[0] == "cells"


def test_an_instrument_stores_its_items_as_a_tuple():
    built = Instrument(1, "n", list(ITEMS))
    assert built.items == ITEMS
    assert hash(built) == hash(Instrument(1, "n", ITEMS))


@pytest.mark.parametrize(
    "answers",
    [
        {i: np.int64(2) for i in range(1, 8)},
        {np.int64(i): 2 for i in range(1, 8)},
        {np.int16(i): np.uint8(2) for i in range(1, 8)},
    ],
    ids=["np_answers", "np_indices", "np_both"],
)
def test_numpy_integers_are_answers_and_item_indices(answers):
    expected = score_response(SurveyResponse(dict.fromkeys(range(1, 8), 2)))
    assert score_response(SurveyResponse(answers)) is expected


# one valid instance of each input record: None in any field whose default
# is not None must be refused
RECORDS = {
    "Scenario": IPD,
    "SimulationDefaults": SimulationDefaults(10, 0),
    "IndexParameters": IndexParameters(3.4, 0.5),
    "EventSpace": SPACE,
    "ComparisonEvent": ComparisonEvent("em12", "EM11", "EM22"),
    "DominanceConstraint": DominanceConstraint("a", "b", 0.5),
    "ConstraintSet": ORDER,
    "OrdinalGame": GAME,
    "SimulationConfig": SimulationConfig(10, 0, 0.5, 0.5),
    "SurveyItem": ITEMS[0],
    "Instrument": canonical_instrument(),
    "SurveyResponse": SurveyResponse(dict.fromkeys(range(1, 8), "a")),
    "PIndexScore": PIndexScore(7, 0.0),
}
NONE_FIELDS = [
    (name, field)
    for name, record in RECORDS.items()
    for field in record._fields
    if field not in record._defaults or record._defaults[field] is not None
]


@pytest.mark.parametrize(
    "name, field", NONE_FIELDS, ids=[f"{name}.{field}" for name, field in NONE_FIELDS]
)
def test_none_in_a_field_is_refused(name, field):
    with pytest.raises(ValidationError):
        replace(RECORDS[name], **{field: None})


# both probability sites, with the name each gives its value
PROBABILITY_SITES = {
    "DominanceConstraint": ("p(a > b)", lambda v: DominanceConstraint("a", "b", v)),
    "p_em12": ("p_em12", lambda v: SimulationConfig(10, 0, v, 0.5)),
    "p_pf21": ("p_pf21", lambda v: SimulationConfig(10, 0, 0.5, v)),
}
# a value no probability may take -> what is said of it after the name
NOT_PROBABILITIES = {
    "nan": (math.nan, " = nan is outside [0, 1]"),
    "inf": (math.inf, " = inf is outside [0, 1]"),
    "minus_inf": (-math.inf, " = -inf is outside [0, 1]"),
    "negative": (-0.1, " = -0.1 is outside [0, 1]"),
    "above_one": (1.5, " = 1.5 is outside [0, 1]"),
    "bool": (True, " must be a number, got True"),
    "text": ("x", " must be a number, got 'x'"),
    "object_array": (
        np.array([0.5], dtype=object),
        " must be a number, got array([0.5], dtype=object)",
    ),
    "complex_array": (np.array([0.5j]), " must be a number, got array([0.+0.5j])"),
}


@pytest.mark.parametrize("site", PROBABILITY_SITES.values(), ids=PROBABILITY_SITES)
@pytest.mark.parametrize("fault", NOT_PROBABILITIES.values(), ids=NOT_PROBABILITIES)
def test_probability_sites_word_a_fault_alike(site, fault):
    (name, make), (value, said) = site, fault
    with pytest.raises(ValidationError) as error:
        make(value)
    assert str(error.value) == name + said


# both callers of the faulty-symbol scan: ``_floats``, under NumericOrder and
# a scan of scalars, and a scan of arrays, which gets each value twice
SCAN_CALLERS = {
    "NumericOrder": lambda values: pure_nash(GAME, NumericOrder(values)),
    "scalars": lambda values: numeric_pure_nash(GAME, values),
    "arrays": lambda values: numeric_pure_nash(
        GAME, {symbol: np.full(2, value) for symbol, value in values.items()}
    ),
}
# a value at symbols PF11 and EM22 -> the fault named, or None if it is read
SCANNED = {
    "nan": (math.nan, "'EM22' is NaN"),
    "inf": (math.inf, None),
    "minus_inf": (-math.inf, None),
    "negative": (-0.1, None),
    "above_one": (1.5, None),
    "bool": (True, None),
    "text": ("x", "'EM22' is not a real number"),
    "object_array": (np.array(0.5, dtype=object), "'EM22' is not a real number"),
    "complex_array": (np.array(0.5j), "'EM22' is not a real number"),
}


@pytest.mark.parametrize("scan", SCAN_CALLERS.values(), ids=SCAN_CALLERS)
@pytest.mark.parametrize("value, fault", SCANNED.values(), ids=SCANNED)
def test_faulty_symbol_scans_name_a_fault_alike(scan, value, fault):
    values = {**VALUES, "PF11": value, "EM22": value}
    if fault is None:
        scan(values)
        return
    with pytest.raises(ValidationError) as error:
        scan(values)
    assert str(error.value) == f"numeric value for symbol {fault}"


@pytest.mark.parametrize("scan", SCAN_CALLERS.values(), ids=SCAN_CALLERS)
def test_faulty_symbol_scans_name_a_value_that_is_not_real_before_a_nan(scan):
    with pytest.raises(ValidationError) as error:
        scan({**VALUES, "EM11": math.nan, "PF22": "x"})
    assert str(error.value) == "numeric value for symbol 'PF22' is not a real number"
