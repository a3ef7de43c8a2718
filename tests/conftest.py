import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from splitgame import (
    CellCoord,
    ConstraintSet,
    SamplingExhaustedError,
    ipd_scenario,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# quadrature contract: absolute tolerance 1e-10 on a truncated domain
# reaching 12 standard deviations past the lower limit
TAIL_ABS_TOL = 1e-10
_TAIL_SPAN_SIGMAS = 12.0


def erfc_tail(lower: float, variance: float = 10.0) -> float:
    """Closed-form upper Gaussian tail, the formula the package evaluates."""
    return 0.5 * math.erfc(lower / math.sqrt(2.0 * variance))


def quad_tail(lower: float, variance: float = 10.0) -> float:
    """Independent oracle: P(X > lower) for X ~ Normal(0, variance) by
    adaptive quadrature.

    The integrand is truncated 12 standard deviations past max(lower, 0);
    the discarded mass is below 1e-30. For lower >= 0 the result lies in
    [0, 0.5].
    """
    if math.isinf(lower):
        return 0.0 if lower > 0 else 1.0
    sigma = math.sqrt(variance)
    norm = 1.0 / math.sqrt(2.0 * math.pi * variance)

    def density(x):
        return norm * math.exp(-(x * x) / (2.0 * variance))

    upper = max(lower, 0.0) + _TAIL_SPAN_SIGMAS * sigma
    value, _ = integrate.quad(
        density, lower, upper, epsabs=TAIL_ABS_TOL * 1e-2, limit=200
    )
    return value


def posterior_update_map(q: float, alpha: float) -> float:
    """Independent oracle: one round trip of the fixed-point construction.

    Maps a candidate posterior alpha of an event with prior q through the
    Bayes setup (every other event's conditional pinned to the marginal)
    back to the implied posterior, alpha * (1 - q) / (1 - alpha). Its fixed
    point is what ``fixed_point_posterior`` returns.
    """
    return alpha * (1.0 - q) / (1.0 - alpha)


# rejection-sampling contract: proposals drawn in batches, at most this
# many per realization
SAMPLING_ATTEMPT_CAP = 1_000_000
_SAMPLING_BATCH = 256


def rejection_realization(constraints: ConstraintSet, seed) -> dict:
    """Independent oracle: one realization uniform on the certain order, by
    rejection.

    Uniform [0, 1] proposals are rejection-sampled until every certain
    constraint holds strictly. Accepts e(P)/n! of proposals, so it is only
    usable on small orders. Deterministic for a given seed (numpy PCG64).
    """
    names = sorted(constraints.symbols)
    if not names:
        return {}
    index = {name: i for i, name in enumerate(names)}
    pairs = [
        (index[c.left], index[c.right])
        for c in constraints.constraints
        if c.certain
    ]
    rng = np.random.default_rng(seed)
    attempts = 0
    while attempts < SAMPLING_ATTEMPT_CAP:
        batch = min(_SAMPLING_BATCH, SAMPLING_ATTEMPT_CAP - attempts)
        draws = rng.random((batch, len(names)))
        keep = np.ones(batch, dtype=bool)
        for li, ri in pairs:
            keep &= draws[:, li] > draws[:, ri]
        hits = np.flatnonzero(keep)
        if hits.size:
            row = draws[hits[0]]
            return {name: float(row[index[name]]) for name in names}
        attempts += batch
    raise SamplingExhaustedError(
        f"no admissible draw within {SAMPLING_ATTEMPT_CAP} attempts"
    )


def loop_pure_nash(game, values) -> frozenset:
    """Independent oracle: pure Nash cells of one numeric payoff assignment
    by a Python loop over each cell's unilateral deviations."""
    cells = game.cells
    result = set()
    for r in range(game.n_rows):
        for c in range(game.n_cols):
            row_value = values[cells[r][c][0].id]
            if any(
                values[cells[alt][c][0].id] > row_value
                for alt in range(game.n_rows)
            ):
                continue
            col_value = values[cells[r][c][1].id]
            if any(
                values[cells[r][alt][1].id] > col_value
                for alt in range(game.n_cols)
            ):
                continue
            result.add(CellCoord(r, c))
    return frozenset(result)


@pytest.fixture(scope="session")
def ipd_path() -> str:
    return str(REPO_ROOT / "scenarios" / "ipd.json")


@pytest.fixture
def ipd():
    return ipd_scenario()


@pytest.fixture
def ipd_game(ipd):
    return ipd.game


@pytest.fixture
def ipd_constraints(ipd) -> ConstraintSet:
    """All eight shipped constraints (six relations + two assumptions)."""
    return ipd.constraints


@pytest.fixture
def ipd_base_constraints(ipd) -> ConstraintSet:
    """Only the six ungrouped relations that follow from the matrix."""
    base = [c for c in ipd.constraints.constraints if c.group is None]
    assert len(base) == 6
    return ConstraintSet(base, universe=ipd.constraints.universe)
