"""Exception types shared across the package, and the checks every module
makes of caller-supplied numbers, integers, kinds, paths and documents.

New error conditions should subclass one of the four buckets below rather
than raise bare exceptions. Each bucket carries the stable exit code the CLI
returns for it as ``exit_code``; a subclass inherits its bucket's code.
"""
import numbers
import os
from collections.abc import Iterator, Mapping
from operator import itemgetter


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
    downset lattice passes ``sampling.SAMPLING_DOWNSET_CAP`` (reading
    ``splitgame.SAMPLING_DOWNSET_CAP`` loads that module, and numpy)."""


class InconsistentOrderError(SplitgameError):
    """The certain dominance constraints contain a directed cycle."""

    exit_code = 5

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(
            "inconsistent certain order, cycle: " + " > ".join(self.cycle)
        )


def _shown(value) -> str:
    """``repr(value)``, or a stand-in naming its kind where it raises: Python
    refuses to print an integer past ``sys.get_int_max_str_digits()`` digits,
    or a list or dict holding one."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return "a number too long to print"
        kind = type(value).__name__
        article = "an" if kind[0] in "aeiou" else "a"
        return f"{article} {kind} holding a number too long to print"


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


def check_text(name: str, value) -> None:
    """Reject a value that is not a non-empty string."""
    if not (isinstance(value, str) and value):
        raise ValidationError(f"{name} must be a non-empty string, got {_shown(value)}")


def check_path(path) -> None:
    """Reject a file path that is not ``str``, ``bytes`` or ``os.PathLike``:
    ``open`` would read an int as a file descriptor, and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(
            f"path must be str, bytes or os.PathLike, got {_shown(path)}"
        )


def check_number(name: str, value) -> None:
    """Reject a value that is not a real number within float range: bools,
    strings, None, complex numbers, Decimal and arrays are refused, numpy
    ints and floats accepted."""
    if type(value) is float:
        return
    if not _is_number(value):
        raise ValidationError(f"{name} must be a number, got {_shown(value)}")
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{name}: integer too large for a float") from None


def check_probability(name: str, value) -> None:
    """Reject a value that is not a number in [0, 1]: NaN is outside."""
    check_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} = {value!r} is outside [0, 1]")


def check_integer(name: str, value, low: int | None, high: int | None = None) -> None:
    """Reject a value that is not an integer in [low, high] (a bound of None
    is open); numpy integers count as integers, bools do not."""
    if type(value) is not int and not _is_integer(value):
        raise ValidationError(
            f"{name} must be an integer, got {_shown(value)}"
        )
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {_shown(value)}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}")


# most trials one Monte Carlo run takes (10^8), and most values (rows
# times symbols) one ``sample_realization`` call draws: 800 MB of float64
MAX_TRIALS = 10**8


def check_trials(trials) -> None:
    """Reject a trial count that is not an integer in [1, MAX_TRIALS]."""
    check_integer("trials", trials, 1, MAX_TRIALS)


def check_seed(seed) -> None:
    """Reject a generator seed that is not an integer >= 0."""
    check_integer("seed", seed, 0)


def _is_number(value) -> bool:  # a complex number has no order to check
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:  # numpy's integers count, bools do not
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_JSON_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    # as in draft 2020-12, a float with no fractional part is an integer
    "integer": lambda value: not isinstance(value, bool) and (
        isinstance(value, int)
        or (isinstance(value, float) and value.is_integer())
    ),
}


def _schema_errors(
    value, schema: Mapping, path: tuple = ()
) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``.

    Keywords are read in the schema's own order and worded as jsonschema's
    ``Draft202012Validator`` words them, so sorting the errors by path gives
    the same list as that validator. Only the keywords it names are read
    (annotations such as "title" carry no constraint); ``enum`` values must
    be strings, and ``items`` is one schema for every element.
    """
    for keyword, rule in schema.items():
        if keyword == "type":
            if not _JSON_TYPES[rule](value):
                yield path, f"{_shown(value)} is not of type {rule!r}"
        elif keyword == "enum":
            if value not in rule:
                yield path, f"{_shown(value)} is not one of {rule!r}"
        elif isinstance(value, dict):
            if keyword == "required":
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif keyword == "additionalProperties" and rule is False:
                known = schema.get("properties", {})
                extras = sorted(  # as by str, which raises on a huge int
                    {name for name in value if name not in known},
                    key=lambda name: name if isinstance(name, str) else _shown(name),
                )
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    names = ", ".join(map(_shown, extras))
                    yield path, (
                        f"Additional properties are not allowed "
                        f"({names} {verb} unexpected)"
                    )
            elif keyword == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, path + (name,))
        elif isinstance(value, list):
            if keyword == "items":
                for index, item in enumerate(value):
                    yield from _schema_errors(item, rule, path + (index,))
            elif keyword == "minItems" and len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{_shown(value)} {short}"
            elif keyword == "maxItems" and len(value) > rule:
                long = "is expected to be empty" if rule == 0 else "is too long"
                yield path, f"{_shown(value)} {long}"
        elif isinstance(value, str):
            if keyword == "minLength" and len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{_shown(value)} {short}"
        elif _is_number(value):
            if keyword == "minimum" and value < rule:
                yield path, f"{_shown(value)} is less than the minimum of {rule!r}"
            elif keyword == "maximum" and value > rule:
                yield path, f"{_shown(value)} is greater than the maximum of {rule!r}"


def check_document(data, schema: Mapping, source: str) -> None:
    """Reject a parsed document that breaks ``schema``, naming the first
    error in path order (of equal paths, the earliest) as
    ``<source>: <path>: <message>``."""
    first = min(_schema_errors(data, schema), key=itemgetter(0), default=None)
    if first is not None:
        path, message = first
        where = "/".join(str(part) for part in path) or "<root>"
        raise ValidationError(f"{source}: {where}: {message}")
