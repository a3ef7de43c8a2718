"""Ordinal dilemma toolkit.

Splitgame models 2x2 ordinal games whose payoffs are opaque symbols owned
by a "split" player: an emotional row self and a professional column self.
Dominance knowledge between symbols may be certain, merely probable, or
absent, and every query answers True, False, or None accordingly. On top
of that three-valued core the package layers an event-space fixed point, a
Gaussian-tail misjudgement index, closed-form equilibrium selection
probabilities, Monte Carlo cross-checks, and scoring for the seven-item
professionalism survey instrument.
"""
from .bayes import ComparisonEvent, EventSpace, fixed_point_posterior
from .constraints import (
    BOUND_EXACT,
    BOUND_LOWER,
    ConstraintSet,
    DominanceConstraint,
    SAMPLING_DOWNSET_CAP,
)
from .errors import (
    DomainError,
    InconsistentOrderError,
    MissingProbabilityError,
    SamplingExhaustedError,
    SplitgameError,
    UnknownSymbolError,
    ValidationError,
)
from .game import (
    CellCoord,
    DominanceOracle,
    NumericOrder,
    OrdinalGame,
    PLAYER_COL,
    PLAYER_ROW,
    pure_nash,
)
from .index_model import (
    IndexParameters,
    Mode,
    PUBLISHED_TABLE,
    gaussian_tail,
    published_coefficient,
    score_factor,
)
from .montecarlo import (
    Disagreement,
    NashVerification,
    SimulationConfig,
    SimulationResult,
    numeric_pure_nash,
    simulate_selection,
    verify_nash_numeric,
)
from .scenario import Case, Scenario, SimulationDefaults
from .scenario import ipd_scenario, load_scenario, scenario_from_dict
from .solver import (
    DecisionReport,
    comparison_events,
    effective_constraints,
    solve,
    sweep,
    with_parameters,
)
from .survey import (
    Instrument,
    PIndexScore,
    SurveyItem,
    SurveyResponse,
    aggregate,
    canonical_instrument,
    read_responses_csv,
    score_response,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_EXACT",
    "BOUND_LOWER",
    "Case",
    "CellCoord",
    "ComparisonEvent",
    "ConstraintSet",
    "DecisionReport",
    "Disagreement",
    "DominanceConstraint",
    "DominanceOracle",
    "DomainError",
    "EventSpace",
    "IndexParameters",
    "InconsistentOrderError",
    "Instrument",
    "MissingProbabilityError",
    "Mode",
    "NashVerification",
    "NumericOrder",
    "OrdinalGame",
    "PIndexScore",
    "PLAYER_COL",
    "PLAYER_ROW",
    "PUBLISHED_TABLE",
    "SAMPLING_DOWNSET_CAP",
    "SamplingExhaustedError",
    "Scenario",
    "SimulationConfig",
    "SimulationDefaults",
    "SimulationResult",
    "SplitgameError",
    "SurveyItem",
    "SurveyResponse",
    "UnknownSymbolError",
    "ValidationError",
    "aggregate",
    "canonical_instrument",
    "comparison_events",
    "effective_constraints",
    "fixed_point_posterior",
    "gaussian_tail",
    "ipd_scenario",
    "load_scenario",
    "numeric_pure_nash",
    "published_coefficient",
    "pure_nash",
    "read_responses_csv",
    "scenario_from_dict",
    "score_factor",
    "score_response",
    "simulate_selection",
    "solve",
    "sweep",
    "verify_nash_numeric",
    "with_parameters",
]
