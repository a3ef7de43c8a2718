"""Ordinal dilemma toolkit.

Splitgame models 2x2 ordinal games whose payoffs are opaque symbols owned
by a "split" player: an emotional row self and a professional column self.
Dominance knowledge between symbols may be certain, merely probable, or
absent, and every query answers True, False, or None accordingly. On top
of that three-valued core the package layers an event-space fixed point, a
Gaussian-tail misjudgement index, closed-form equilibrium selection
probabilities, Monte Carlo cross-checks, and scoring for the seven-item
professionalism survey instrument.

Importing the package loads none of its modules: each public name is
imported from the module ``_EXPORTS`` names on first use (PEP 562). The
package data under ``resources/`` is read through ``_resource``.
"""
from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "ComparisonEvent": "bayes",
    "EventSpace": "bayes",
    "fixed_point_posterior": "bayes",
    "BOUND_EXACT": "constraints",
    "BOUND_LOWER": "constraints",
    "ConstraintSet": "constraints",
    "DominanceConstraint": "constraints",
    "DomainError": "errors",
    "InconsistentOrderError": "errors",
    "MissingProbabilityError": "errors",
    "SamplingExhaustedError": "errors",
    "SplitgameError": "errors",
    "UnknownSymbolError": "errors",
    "ValidationError": "errors",
    "CellCoord": "game",
    "NumericOrder": "game",
    "OrdinalGame": "game",
    "PLAYER_COL": "game",
    "PLAYER_ROW": "game",
    "pure_nash": "game",
    "IndexParameters": "index_model",
    "Mode": "index_model",
    "PUBLISHED_TABLE": "index_model",
    "gaussian_tail": "index_model",
    "published_coefficient": "index_model",
    "score_factor": "index_model",
    "Disagreement": "montecarlo",
    "NashVerification": "montecarlo",
    "SimulationConfig": "montecarlo",
    "SimulationResult": "montecarlo",
    "numeric_pure_nash": "montecarlo",
    "simulate_selection": "montecarlo",
    "verify_nash_numeric": "montecarlo",
    "SAMPLING_DOWNSET_CAP": "sampling",
    "Case": "scenario",
    "Scenario": "scenario",
    "SimulationDefaults": "scenario",
    "ipd_scenario": "scenario",
    "load_scenario": "scenario",
    "scenario_from_dict": "scenario",
    "DecisionReport": "solver",
    "comparison_events": "solver",
    "effective_constraints": "solver",
    "solve": "solver",
    "sweep": "solver",
    "with_parameters": "solver",
    "Instrument": "survey",
    "PIndexScore": "survey",
    "SurveyItem": "survey",
    "SurveyResponse": "survey",
    "aggregate": "survey",
    "canonical_instrument": "survey",
    "read_responses_csv": "survey",
    "score_response": "survey",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import ``name`` from its module and keep it, so later lookups do not
    come here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


# file name -> parsed document, filled by _resource
_RESOURCES = {}


def _resource(name: str):
    """A JSON document shipped under ``splitgame/resources``, parsed once;
    callers must not mutate it."""
    if name not in _RESOURCES:
        # imported on first use, so that ``import splitgame`` loads neither
        import json
        import os
        # the loader reads the file from a zipped package too
        path = os.path.join(os.path.dirname(__file__), "resources", name)
        _RESOURCES[name] = json.loads(__loader__.get_data(path))
    return _RESOURCES[name]
