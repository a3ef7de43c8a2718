"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so new error conditions should
subclass one of the four buckets below rather than raising bare exceptions.
"""


class SplitgameError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SplitgameError, ValueError):
    """Malformed input: scenario files, survey files, grids, game definitions."""


class UnknownSymbolError(ValidationError):
    """A payoff symbol id is not part of the bound symbol universe."""


class MissingProbabilityError(ValidationError):
    """A chain pair has neither a stored probability nor a certain edge."""


class DomainError(SplitgameError, ValueError):
    """A numeric argument lies outside the model's domain."""


class SamplingExhaustedError(DomainError):
    """A component of the certain order is too wide to sample exactly: its
    downset lattice passes ``constraints.SAMPLING_DOWNSET_CAP``."""


class InconsistentOrderError(SplitgameError):
    """The certain dominance constraints contain a directed cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(
            "inconsistent certain order, cycle: " + " > ".join(self.cycle)
        )
