"""Gaussian index coefficients: 10-point scale scores to event probabilities.

A country-level integrity or professionalism score feeds a zero-mean Gaussian
tail; the resulting factor k(score) = (1 - tail(sqrt(score))) / 3 scales a
weight in (0, 1) into the probability of a comparison event. Two evaluation
modes exist because the published reference constants (0.3090 for score 3.4,
0.2999 for score 6.5) do not match what the formula actually yields (0.2400
and 0.2633): "computed" evaluates the formula, "published" reproduces the
reference constants verbatim and only accepts the two reference scores.

The tail has the closed form P(X > x) = erfc(x / sqrt(2 * variance)) / 2; its
one copy, ``_tail(x, sqrt(2 * variance))``, runs after its callers' checks.
"""
from __future__ import annotations

import math
import warnings
from enum import Enum

from ._record import Record
from .errors import DomainError, ValidationError, _shown, check_kind, check_number

DEFAULT_VARIANCE = 10.0
SCALE_MAX = 10.0

# event label -> (reference score, published coefficient)
PUBLISHED_TABLE = {
    "em12": (3.4, 0.3090),
    "pf21": (6.5, 0.2999),
}


class Mode(Enum):
    """Coefficient evaluation mode."""

    COMPUTED = "computed"
    PUBLISHED = "published"

    @classmethod
    def parse(cls, text: str) -> "Mode":
        """The mode whose value or alias (``MODE_ALIASES``) is exactly ``text``."""
        try:
            return cls(MODE_ALIASES.get(text, text) if isinstance(text, str) else text)
        except ValueError:
            raise ValidationError(
                f"unknown mode {_shown(text)}; expected 'computed' or 'published'"
            ) from None


# other names a scenario file or the command line may give a mode
MODE_ALIASES = {"paper": Mode.PUBLISHED.value}


def _check_variance(variance: float):
    check_number("variance", variance)
    if not (math.isfinite(variance) and variance > 0.0):
        raise DomainError(f"variance must be finite and positive, got {variance!r}")


def check_score(score: float) -> None:
    """Reject a score that is not a number, or off the 10-point scale: not
    positive, or above it."""
    check_number("score", score)
    if not score > 0.0:
        raise DomainError(f"score must be positive, got {score!r}")
    if score > SCALE_MAX:
        raise DomainError(f"score {score!r} exceeds the {SCALE_MAX:g}-point scale")


def check_weight(weight: float) -> None:
    """Reject a weight that is not a number, or outside the open interval
    (0, 1)."""
    check_number("weight", weight)
    if not 0.0 < weight < 1.0:
        raise DomainError(
            f"weight must lie strictly inside (0, 1), got {weight!r}; "
            "boundary values appear only in reported bounds"
        )


def warn_outside_interior(score: float) -> None:
    """Warn about a score outside (1, SCALE_MAX), where published scores
    sit; IndexParameters accepts such a score with this warning."""
    if not 1.0 < score < SCALE_MAX:
        warnings.warn(
            f"score {score!r} is outside the scale interior (1, {SCALE_MAX:g})"
        )


class IndexParameters(Record):
    """Inputs to one coefficient: a scale score, a weight, and the variance.

    The weight is the prior probability mass the coefficient scales (strictly
    inside (0, 1); the boundary values belong to the reported bounds, not to
    inputs). Scores live on a 10-point scale; values at or below 1 and the
    exact maximum are accepted with a warning since published scores stay in
    the interior.
    """

    score: float
    weight: float
    variance: float = DEFAULT_VARIANCE

    def __post_init__(self):
        check_score(self.score)
        check_weight(self.weight)
        _check_variance(self.variance)
        warn_outside_interior(self.score)


def gaussian_tail(lower: float, variance: float = DEFAULT_VARIANCE) -> float:
    """P(X > lower) for X ~ Normal(0, variance), in closed form.

    Accurate to a few ulp. lower = +inf gives exactly 0 and lower = -inf
    exactly 1; for lower >= 0 the result lies in [0, 0.5]. A NaN bound
    raises DomainError.
    """
    _check_variance(variance)
    check_number("tail bound", lower)
    if math.isnan(lower):
        raise DomainError("tail bound must be a number, got nan")
    return _tail(lower, math.sqrt(2.0 * variance))


def _tail(lower: float, root: float) -> float:
    return 0.5 * math.erfc(lower / root)


def score_factor(score: float, variance: float = DEFAULT_VARIANCE) -> float:
    """The weight-free factor k(score) = (1 - tail(sqrt(score))) / 3.

    Strictly increasing in the score, with limits 1/6 as score -> 0+ and
    1/3 as score -> infinity. This is the raw mathematical map: any positive
    score is accepted here, while the 10-point scale gate lives on
    IndexParameters.
    """
    check_number("score", score)
    if not score > 0.0:
        raise DomainError(f"score must be positive, got {score!r}")
    return (1.0 - gaussian_tail(math.sqrt(score), variance)) / 3.0


def published_coefficient(event: str, mode: Mode) -> float:
    """The verbatim published constant for one of the two reference scores.

    Only available in published mode; computed mode must evaluate the formula
    instead of echoing constants that disagree with it.
    """
    check_kind("mode", mode, Mode)
    if mode is not Mode.PUBLISHED:
        raise ValidationError(
            "published coefficients are only available in published mode"
        )
    try:
        return PUBLISHED_TABLE[event][1]
    except KeyError:
        raise ValidationError(
            f"no published coefficient for event {event!r}; "
            f"known events: {sorted(PUBLISHED_TABLE)}"
        ) from None
