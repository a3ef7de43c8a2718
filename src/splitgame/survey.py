"""Scoring for the seven-item agreement survey onto a 10-point index.

Each item offers six agreement choices, a (strongly disagree) through
f (strongly agree). Positive items score the choice position 1..6 directly;
negative items reverse it. The raw sum is rescaled so the least professional
response set maps to 0 and the most professional to 10.
"""
from __future__ import annotations

import csv
import functools
import io
from collections.abc import Mapping, Sequence

from . import _resource
from ._record import Record
from .errors import ValidationError, _is_integer, _sequence, _shown, check_document
from .errors import check_integer, check_kind, check_number, check_path, check_text

POSITIVE = "positive"
NEGATIVE = "negative"

CHOICES = ("a", "b", "c", "d", "e", "f")
SCALE_STEPS = len(CHOICES)
INDEX_MAX = 10.0

class SurveyItem(Record):
    index: int
    text: str
    polarity: str

    def __post_init__(self):
        check_integer("item index", self.index, 1)
        check_text(f"item {_shown(self.index)} text", self.text)
        if not isinstance(self.polarity, str) or self.polarity not in (POSITIVE, NEGATIVE):
            raise ValidationError(
                f"item {_shown(self.index)}: polarity must be '{POSITIVE}' or "
                f"'{NEGATIVE}', got {_shown(self.polarity)}"
            )


class Instrument(Record):
    """A versioned set of survey items with fixed indices 1..n."""

    version: int
    name: str
    items: tuple[SurveyItem, ...]

    def __post_init__(self):
        check_integer("instrument version", self.version, 1)
        check_text("instrument name", self.name)
        items = tuple(_sequence("instrument items", self.items, "SurveyItem"))
        object.__setattr__(self, "items", items)  # stored hashable
        if not items:
            raise ValidationError("instrument needs at least one item")
        for number, item in enumerate(items, 1):
            check_kind("instrument item", item, SurveyItem)
            if item.index != number:
                raise ValidationError(
                    "instrument items must be numbered contiguously from 1"
                )

    def __len__(self):
        return len(self.items)


@functools.cache
def canonical_instrument() -> Instrument:
    """The bundled seven-item instrument (items 1, 3, 7 positive)."""
    return instrument_from_dict(_resource("instrument.json"))


def instrument_from_dict(data: Mapping) -> Instrument:
    """The instrument a parsed definition holds; a definition that breaks
    ``resources/instrument.schema.json`` raises ValidationError."""
    check_document(data, _resource("instrument.schema.json"), "<instrument>")
    items = [SurveyItem(**entry) for entry in data["items"]]
    return Instrument(int(data["version"]), data.get("name", "instrument"), items)


def _choice_position(choice: str | int) -> int:
    """Normalize a choice (letter a-f, or 1-6 numeric) to position 1..6."""
    position = choice
    if isinstance(choice, str):
        token = choice.strip().lower()
        if token in CHOICES:
            return CHOICES.index(token) + 1
        # isdecimal, not isdigit: int() cannot read digits such as '²'
        if token.isdecimal():
            try:
                position = int(token)
            except ValueError:
                pass  # past int()'s digit limit: the invalid-choice error below
    if (type(position) is int or _is_integer(position)) and 1 <= position <= SCALE_STEPS:
        return int(position)
    raise ValidationError(f"invalid choice {_shown(choice)}; expected a-f or 1-6")


# exact cell text -> position, for every spelling the scale names; keyed by
# str only, since an int key would also match True and 1.0, which
# _choice_position rejects. A miss (' E ', '06', a bad cell) goes through
# _choice_position, which reads it or words the error.
_POSITIONS = {
    text: position
    for position, letter in enumerate(CHOICES, 1)
    for text in (letter, letter.upper(), str(position))
}


class SurveyResponse(Record):
    """Answers keyed by item index; completeness is checked against an
    instrument at scoring time, missing answers are never imputed."""

    answers: Mapping[int, str | int]

    def __post_init__(self):
        answers = self.answers
        if type(answers) is not dict:
            check_kind("answers", answers, Mapping)
        object.__setattr__(self, "answers", dict(answers))
        for key in answers:
            if type(key) is not int and not _is_integer(key):
                raise ValidationError(f"item index {_shown(key)} must be an integer")


class PIndexScore(Record):
    """A scored response: integer raw sum and the 10-point index."""

    raw_sum: int
    p_index: float
    n_items: int = 7

    def __post_init__(self):
        check_integer("raw sum", self.raw_sum, None)
        check_number("index", self.p_index)
        check_integer("item count", self.n_items, 1)
        low, high = self.n_items, SCALE_STEPS * self.n_items
        if not low <= self.raw_sum <= high:
            raise ValidationError(
                f"raw sum {_shown(self.raw_sum)} outside [{_shown(low)}, {_shown(high)}]"
            )
        if not 0.0 <= self.p_index <= INDEX_MAX:
            raise ValidationError(
                f"index {self.p_index!r} outside [0, {INDEX_MAX:g}]"
            )


@functools.cache
def _score_plan():
    """What ``score_response`` reads of the canonical instrument, built
    once: the set of item indices, each (index, is positive) in item order,
    and the one score record for each possible raw sum."""
    instrument = canonical_instrument()
    n = len(instrument)
    scores = {
        raw: PIndexScore(raw, INDEX_MAX * (raw - n) / ((SCALE_STEPS - 1) * n), n)
        for raw in range(n, SCALE_STEPS * n + 1)
    }
    polarity = tuple((item.index, item.polarity == POSITIVE) for item in instrument.items)
    return {index for index, _ in polarity}, polarity, scores


def score_response(response: SurveyResponse) -> PIndexScore:
    """Score a complete response to the canonical instrument.

    Every instrument item must be answered, with no extras. The index is
    10 * (raw - n) / (5 * n), so the all-minimum response maps to 0 and the
    all-maximum response to 10 exactly. Responses with the same raw sum
    share one score record.
    """
    check_kind("response", response, SurveyResponse)
    expected, polarity, scores = _score_plan()
    answers = response.answers
    if answers.keys() != expected:
        answered = set(answers)
        missing = sorted(expected - answered)
        if missing:
            raise ValidationError(f"unanswered items: {missing}")
        extra = _shown(sorted(answered - expected))
        raise ValidationError(f"answers for unknown items: {extra}")
    raw = 0
    for index, positive in polarity:
        position = answers[index]
        if type(position) is not int or not 1 <= position <= SCALE_STEPS:
            position = _choice_position(position)
        raw += position if positive else SCALE_STEPS + 1 - position
    return scores[raw]


def aggregate(scores: Sequence[PIndexScore]) -> float:
    """Mean index over a cohort of scored responses."""
    if not _sequence("scores", scores, "PIndexScore"):
        raise ValidationError("cannot aggregate zero responses")
    for score in scores:
        check_kind("score", score, PIndexScore)
    return sum(score.p_index for score in scores) / len(scores)


def csv_header() -> list[str]:
    items = canonical_instrument().items
    return ["respondent_id"] + [f"item{item.index}" for item in items]


def read_responses_csv(
    path, lenient: bool = False
) -> tuple[list[tuple[str, SurveyResponse]], list[str]]:
    """Parse a respondent CSV into (respondent id, response) pairs.

    The header must be respondent_id,item1,...,item7, the canonical
    instrument's items; a leading UTF-8 byte order mark, which spreadsheet
    exports write, is dropped. Cell values are the choice letters
    (case-insensitive) or the digits 1-6. A malformed row, or one the csv
    module cannot read (a field longer than ``csv.field_size_limit()``),
    raises with its line number; under ``lenient`` it is skipped instead
    and reported in the returned warning list. A line number is the
    physical line the row starts on. A file that is not UTF-8 raises
    whatever ``lenient`` says.
    """
    expected_header = csv_header()
    rows: list[tuple[str, SurveyResponse]] = []
    warnings: list[str] = []

    check_path(path)
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8: {exc}") from None
    records = _records(csv.reader(io.StringIO(text, newline="")))
    try:
        _, header = next(records)
    except StopIteration:
        raise ValidationError(f"{path}: empty file") from None
    if isinstance(header, ValidationError):
        raise ValidationError(f"{path}: line 1: {header}")
    normalized = [column.strip().lower() for column in header]
    if normalized != expected_header:
        raise ValidationError(
            f"{path}: header must be {','.join(expected_header)}, "
            f"got {','.join(header)}"
        )
    for lineno, row in records:
        try:
            if isinstance(row, ValidationError):
                raise row
            if not "".join(row).strip():  # no cells, or only blank ones
                continue
            rows.append(_parse_row(row, len(expected_header)))
        except ValidationError as exc:
            if lenient:
                warnings.append(f"line {lineno}: skipped ({exc})")
            else:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from None

    if not rows and not lenient:
        raise ValidationError(f"{path}: no data rows")
    return rows, warnings


def _records(reader):
    """The reader's records, each with the physical line it starts on (a
    quoted field may span lines); one it cannot read comes out as the
    ValidationError that says why, and the reader goes on at the next line."""
    while True:
        start = reader.line_num + 1
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            record = ValidationError(str(exc))
        yield start, record


def _parse_row(row, width: int) -> tuple[str, SurveyResponse]:
    """One record of ``width`` fields, the header's: an id, then one cell
    per item, numbered from 1 as the instrument's items are."""
    if len(row) != width:
        raise ValidationError(f"{len(row)} fields, expected {width}")
    respondent = row[0].strip()
    if not respondent:
        raise ValidationError("empty respondent_id")
    lookup = _POSITIONS.get
    answers = {
        index: lookup(row[index]) or _choice_position(row[index])
        for index in range(1, width)
    }
    return respondent, SurveyResponse(answers)
