"""Hostile values in every public argument that takes a number or an index.

Each call must return or raise a ``SplitgameError``: a raw ``TypeError``,
``ValueError``, ``OverflowError`` or ``IndexError`` fails the table. A
sequence argument (a prior, a grid axis, event indices, a value map) gets
the hostile value as one of its entries; the message rows also pass
something other than a sequence or a mapping where one belongs, and
entries that are not ids or labels.
"""
import math
from decimal import Decimal

import numpy as np
import pytest

from splitgame import (
    ConstraintSet,
    DominanceConstraint,
    EventSpace,
    IndexParameters,
    Mode,
    NumericOrder,
    SimulationConfig,
    SimulationDefaults,
    SplitgameError,
    SurveyItem,
    ValidationError,
    fixed_point_posterior,
    gaussian_tail,
    ipd_scenario,
    numeric_pure_nash,
    pure_nash,
    score_factor,
    sweep,
    verify_nash_numeric,
)

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
SPACE = EventSpace.uniform("abc")
SYMBOLS = sorted(GAME.symbol_ids())
# distinct values, so the Nash set depends on every comparison
VALUES = {symbol: float(k) for k, symbol in enumerate(SYMBOLS)}

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
        "none_order", "values_as_order",
    ],
)
def test_message(make, message):
    with pytest.raises(ValidationError) as error:
        make()
    assert str(error.value) == message


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
