"""Exception types shared across the package.

New error conditions should subclass one of the four buckets below rather
than raise bare exceptions. Each bucket carries the stable exit code the CLI
returns for it as ``exit_code``; a subclass inherits its bucket's code.
"""


class SplitgameError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ValidationError(SplitgameError, ValueError):
    """Malformed input: scenario files, survey files, grids, game definitions."""

    exit_code = 4


class UnknownSymbolError(ValidationError):
    """A payoff symbol id is not part of the bound symbol universe."""


class MissingProbabilityError(ValidationError):
    """A chain pair has neither a stored probability nor a certain edge."""


class DomainError(SplitgameError, ValueError):
    """A numeric argument lies outside the model's domain."""

    exit_code = 6


class SamplingExhaustedError(DomainError):
    """A component of the certain order is too wide to sample exactly: its
    downset lattice passes ``constraints.SAMPLING_DOWNSET_CAP``."""


class InconsistentOrderError(SplitgameError):
    """The certain dominance constraints contain a directed cycle."""

    exit_code = 5

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(
            "inconsistent certain order, cycle: " + " > ".join(self.cycle)
        )
