import math
from pathlib import Path

import pytest
from scipy import integrate

from splitgame import ConstraintSet, ipd_scenario

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
