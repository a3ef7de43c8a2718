"""Event spaces and the independence fixed point.

The event space is a finite partition with a prior summing to one. If every
event but one is uninformative about a comparison event, the remaining
event's posterior must equal its own prior; ``fixed_point_posterior``
returns that prior.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Set

from ._record import Record
from .errors import (
    DomainError, ValidationError, _sequence, _shown, check_integer, check_kind,
    check_number, check_text,
)

PRIOR_TOLERANCE = 1e-12


class EventSpace(Record):
    """A finite partition of mutually exclusive events with a prior."""

    labels: tuple[str, ...]
    prior: tuple[float, ...]

    def __post_init__(self):
        # stored as tuples, so every space is hashable
        labels = _sequence("event labels", self.labels, "labels")
        for label in labels:
            check_text("event label", label)
        prior = _sequence("event prior", self.prior, "numbers")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "prior", tuple(prior))
        if not self.labels:
            raise ValidationError("event space needs at least one event")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("event labels must be unique")
        if len(self.prior) != len(self.labels):
            raise ValidationError(
                f"{len(self.prior)} prior entries for {len(self.labels)} events"
            )
        for label, p in zip(self.labels, self.prior):
            check_number(f"prior({label})", p)
            if not math.isfinite(p):
                raise DomainError(f"prior({label}) = {p!r} is not finite")
            if p < 0.0:
                raise DomainError(f"prior({label}) = {p!r} is negative")
        total = sum(self.prior)
        if abs(total - 1.0) > PRIOR_TOLERANCE:
            raise DomainError(
                f"prior sums to {total!r}, outside 1 +/- {PRIOR_TOLERANCE}"
            )

    @classmethod
    def uniform(cls, labels: Iterable[str]) -> "EventSpace":
        """Equal priors over ``labels``, any iterable but a string (read as
        its characters) or a set (ordered by the string hash seed)."""
        if not isinstance(labels, Iterable):
            raise ValidationError(f"event labels must be iterable, got {_shown(labels)}")
        if isinstance(labels, Set):
            kind = type(labels).__name__
            raise ValidationError(f"event labels need a list or tuple of labels, got {kind}")
        names = labels if isinstance(labels, str) else tuple(labels)
        return cls(names, tuple(1.0 / len(names) for _ in names))

    def __len__(self):
        return len(self.labels)


class ComparisonEvent(Record):
    """The event that one payoff symbol outranks another.

    The two canonical labels are "em12" (the row player's temptation payoff
    beats its dutiful payoff) and "pf21" (the column player's strict-course
    payoff beats its lenient one); other labels are fine.
    """

    label: str
    left: str
    right: str

    def __post_init__(self):
        check_kind("comparison event label", self.label, str)
        if not self.label:
            raise ValidationError("comparison event label must be non-empty")
        check_text(f"comparison event {self.label!r} left symbol", self.left)
        check_text(f"comparison event {self.label!r} right symbol", self.right)
        if self.left == self.right:
            raise ValidationError(
                f"comparison event {self.label!r} compares "
                f"{self.left!r} with itself"
            )


def fixed_point_posterior(space: EventSpace, unaffected: Iterable[int]) -> float:
    """Posterior of the one event not assumed independent of the evidence.

    ``unaffected`` lists the indices of every event whose conditional given
    the evidence is pinned to its prior; exactly one event must remain. Let
    its prior be q and its unknown posterior be alpha. Bayes' rule for the
    remaining event, once each unaffected conditional collapses to the
    marginal, leaves the self-consistency relation

        alpha * (1 - q) = alpha * (1 - alpha)

    alpha = 0 is impossible (the event has positive prior and the evidence is
    the comparison actually under consideration), so divide it out: the
    linear remainder 1 - alpha = 1 - q gives alpha = q, the prior itself,
    bit for bit.
    """
    check_kind("space", space, EventSpace)
    if not isinstance(unaffected, Iterable):
        raise ValidationError(
            f"unaffected event indices must be iterable, got {_shown(unaffected)}"
        )
    indices = list(unaffected)
    for i in indices:
        check_integer("event index", i, None)
    if len(set(indices)) != len(indices):
        raise ValidationError("unaffected event indices must be distinct")
    for i in indices:
        if not 0 <= i < len(space):
            raise ValidationError(
                f"event index {_shown(i)} out of range for {len(space)} events"
            )
    remaining = [i for i in range(len(space)) if i not in indices]
    if len(remaining) != 1:
        raise ValidationError(
            "exactly one event must stay outside the unaffected set, "
            f"got {len(remaining)}"
        )
    star = remaining[0]
    q = space.prior[star]
    if not 0.0 < q < 1.0:
        raise DomainError(
            f"prior({space.labels[star]}) = {q!r}: the fixed point needs a "
            "prior strictly inside (0, 1)"
        )
    return q
