"""Exception types shared across the package, and the checks every module
makes of a caller-supplied number, integer or object kind.

New error conditions should subclass one of the four buckets below rather
than raise bare exceptions. Each bucket carries the stable exit code the CLI
returns for it as ``exit_code``; a subclass inherits its bucket's code.
"""
import numbers


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


def _shown(value) -> str:
    """``repr(value)``, or a stand-in where it raises: Python refuses to
    print an integer past ``sys.get_int_max_str_digits()`` digits."""
    try:
        return repr(value)
    except ValueError:
        return "a number too long to print"


def _sequence(what: str, value, of: str):
    """``value`` if it is a list or tuple; anything else, a string such as
    "RC" above all, which would read as its characters, is refused."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(
            f"{what} must be a list or tuple of {of}, got {_shown(value)}"
        )
    return value


def check_kind(name: str, value, cls) -> None:
    """Reject a value that is not an instance of ``cls``."""
    if not isinstance(value, cls):
        kind = type(value).__name__
        raise ValidationError(f"{name} must be {cls.__name__}, got {kind}")


def check_number(name: str, value) -> None:
    """Reject a value that is not a real number within float range: bools,
    strings, None, complex numbers, Decimal and arrays are refused, numpy
    ints and floats accepted."""
    if type(value) is float:
        return
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {_shown(value)}")
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{name}: integer too large for a float") from None


def check_integer(name: str, value, low: int | None, high: int | None = None) -> None:
    """Reject a value that is not an integer in [low, high] (a bound of None
    is open); numpy integers count as integers, bools do not."""
    if type(value) is not int and (
        not isinstance(value, numbers.Integral) or isinstance(value, bool)
    ):
        raise ValidationError(
            f"{name} must be an integer, got {_shown(value)}"
        )
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {_shown(value)}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}")
