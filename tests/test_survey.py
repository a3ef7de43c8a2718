import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import reference_score
from splitgame import (
    Instrument,
    PIndexScore,
    SurveyItem,
    SurveyResponse,
    ValidationError,
    aggregate,
    canonical_instrument,
    read_responses_csv,
    score_response,
)
from splitgame import survey as survey_module
from splitgame.cli import main
from splitgame.survey import (
    CHOICES,
    NEGATIVE,
    POSITIVE,
    _POSITIONS,
    _choice_position,
    _parse_row,
    csv_header,
    instrument_from_dict,
)

MAX_ANSWERS = {1: "f", 2: "a", 3: "f", 4: "a", 5: "a", 6: "a", 7: "f"}
MIN_ANSWERS = {1: "a", 2: "f", 3: "a", 4: "f", 5: "f", 6: "f", 7: "a"}
MIXED_ANSWERS = {1: "e", 2: "b", 3: "d", 4: "c", 5: "a", 6: "f", 7: "f"}


def outcome(function, *args):
    """What a call gives: ("value", its result) or ("error", the
    ValidationError message)."""
    try:
        return "value", function(*args)
    except ValidationError as exc:
        return "error", str(exc)


# cells of every kind: each spelling the position table holds, padded,
# zero-padded and full-width digits it does not, invalid text, and values no
# CSV holds (ints, bools, floats)
CELLS = st.one_of(
    st.sampled_from(sorted(_POSITIONS)),
    st.sampled_from([" e ", "06", "\uff16", "", "g", "0", "7", "\u00b2"]),
    st.text(max_size=3),
    st.integers(-1, 8),
    st.sampled_from([True, False, 1.0, 6.0, None]),
)
# an answer as the reader stores it (a position), or any cell
ANSWERS = st.integers(1, 6) | CELLS


def professional_position(item, response, index):
    """How far item `index` sits toward the professional pole, 1..6."""
    pos = CHOICES.index(response.answers[index]) + 1
    return pos if item.polarity == POSITIVE else 7 - pos


class TestInstrument:
    def test_canonical_shape(self):
        inst = canonical_instrument()
        assert len(inst) == 7
        assert [item.index for item in inst.items] == list(range(1, 8))
        polarity = [item.polarity for item in inst.items]
        assert polarity == [
            POSITIVE, NEGATIVE, POSITIVE, NEGATIVE, NEGATIVE, NEGATIVE, POSITIVE,
        ]

    def test_item_validation(self):
        with pytest.raises(ValidationError):
            SurveyItem(0, "text", POSITIVE)
        with pytest.raises(ValidationError):
            SurveyItem(1, "text", "neutral")

    def test_items_must_be_contiguous(self):
        items = (
            SurveyItem(1, "first", POSITIVE),
            SurveyItem(3, "third", NEGATIVE),
        )
        with pytest.raises(ValidationError):
            Instrument(1, "broken", items)

    def test_a_version_the_schema_reads_as_an_integer_loads(self):
        # JSON Schema counts 1.0 as an integer; the instrument stores 1
        item = {"index": 1, "text": "t", "polarity": POSITIVE}
        loaded = instrument_from_dict({"version": 1.0, "items": [item]})
        assert loaded == Instrument(1, "instrument", (SurveyItem(1, "t", POSITIVE),))
        assert type(loaded.version) is int

    @pytest.mark.parametrize(
        "data, reason",
        [
            ({"version": 1}, "<root>: 'items' is a required property"),
            ({"version": 1, "items": [5]}, "items/0: 5 is not of type 'object'"),
        ],
    )
    def test_instrument_from_dict_rejects_a_malformed_document(self, data, reason):
        with pytest.raises(ValidationError) as caught:
            instrument_from_dict(data)
        assert str(caught.value) == f"<instrument>: {reason}"

    def test_choices_match_the_shipped_scale(self):
        # the letters are written both here and in the instrument file
        path = Path(survey_module.__file__).parent / "resources" / "instrument.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        assert tuple(data["scale"]) == CHOICES
        assert len(data["scale_meaning"]) == len(CHOICES)

    def test_instrument_from_dict_rejects_bad_polarity(self):
        with pytest.raises(ValidationError):
            instrument_from_dict(
                {
                    "version": 1,
                    "name": "x",
                    "items": [{"index": 1, "text": "t", "polarity": "up"}],
                }
            )


def points_scored(index, choice):
    """Points ``score_response`` gives item ``index`` answered ``choice``,
    every other item at its least professional answer (1 point each)."""
    answers = {**MIN_ANSWERS, index: choice}
    return score_response(SurveyResponse(answers)).raw_sum - (len(answers) - 1)


class TestItemPoints:
    def test_positive_maximum(self):
        assert points_scored(1, "f") == 6

    def test_reverse_coded_maximum(self):
        assert points_scored(5, "a") == 6

    def test_reverse_coded_midpoint(self):
        assert points_scored(4, "c") == 4

    def test_numeric_and_uppercase_choices(self):
        assert points_scored(1, "3") == 3
        assert points_scored(1, 3) == 3
        assert points_scored(1, "F") == 6

    # '²' is a digit to str.isdigit but not to int(); int() refuses to read
    # more than 4300 digits
    @pytest.mark.parametrize(
        "choice",
        ["g", "0", "7", "", 0, 7, True, "\u00b2",
         pytest.param("9" * 5000, id="past-the-digit-limit")],
    )
    @pytest.mark.parametrize("score", [False, True], ids=["cell", "response"])
    def test_invalid_choice(self, choice, score):
        with pytest.raises(ValidationError) as caught:
            points_scored(1, choice) if score else _choice_position(choice)
        # named as given: the text '7' is not the number 7
        assert str(caught.value) == f"invalid choice {choice!r}; expected a-f or 1-6"


class TestScoreResponse:
    def test_professional_extreme(self):
        score = score_response(SurveyResponse(MAX_ANSWERS))
        assert score.raw_sum == 42
        assert score.p_index == 10.0

    def test_unprofessional_extreme(self):
        score = score_response(SurveyResponse(MIN_ANSWERS))
        assert score.raw_sum == 7
        assert score.p_index == 0.0

    def test_mixed_response(self):
        score = score_response(SurveyResponse(MIXED_ANSWERS))
        assert score.raw_sum == 31
        assert score.p_index == pytest.approx(6.857, abs=1e-3)
        assert score.p_index == 10.0 * (31 - 7) / 35.0

    def test_missing_item(self):
        answers = dict(MAX_ANSWERS)
        del answers[4]
        with pytest.raises(ValidationError):
            score_response(SurveyResponse(answers))

    def test_extra_item(self):
        answers = dict(MAX_ANSWERS)
        answers[8] = "a"
        with pytest.raises(ValidationError):
            score_response(SurveyResponse(answers))

    def test_score_range_validated(self):
        with pytest.raises(ValidationError):
            PIndexScore(raw_sum=6, p_index=0.0)
        with pytest.raises(ValidationError):
            PIndexScore(raw_sum=42, p_index=10.5)

    def test_monotone_in_single_answers(self):
        inst = canonical_instrument()
        rng = random.Random(17)
        for _ in range(40):
            answers = {i: rng.choice(CHOICES) for i in range(1, 8)}
            base = SurveyResponse(answers)
            base_score = score_response(base).p_index
            for item in inst.items:
                pos = professional_position(item, base, item.index)
                if pos == 6:
                    continue
                raised = dict(answers)
                offset = pos if item.polarity == POSITIVE else 5 - pos
                raised[item.index] = CHOICES[offset]
                stepped = score_response(SurveyResponse(raised)).p_index
                assert stepped >= base_score

    def test_equal_raw_sums_share_one_record(self):
        score = score_response(SurveyResponse(MIXED_ANSWERS))
        # items 1 and 3 are both positive: trading their answers, or
        # spelling them as digits, keeps the raw sum
        traded = {**MIXED_ANSWERS, 1: "d", 3: "e"}
        digits = {**MIXED_ANSWERS, 1: 5, 3: "4"}
        assert score_response(SurveyResponse(traded)) is score
        assert score_response(SurveyResponse(digits)) is score
        assert score_response(SurveyResponse(MAX_ANSWERS)) is not score

    @given(
        st.fixed_dictionaries(dict.fromkeys(range(1, 8), ANSWERS))
        | st.dictionaries(st.integers(0, 9), ANSWERS)
    )
    def test_matches_the_item_by_item_reference(self, answers):
        response = SurveyResponse(answers)
        assert outcome(score_response, response) == outcome(reference_score, response)


def scored(*answer_sets):
    return [score_response(SurveyResponse(answers)) for answers in answer_sets]


class TestAggregate:
    def test_singleton(self):
        score = score_response(SurveyResponse(MIXED_ANSWERS))
        assert aggregate([score]) == score.p_index

    def test_extremes_average_to_midpoint(self):
        assert aggregate(scored(MAX_ANSWERS, MIN_ANSWERS)) == 5.0

    def test_three_respondent_cohort(self):
        cohort = scored(MAX_ANSWERS, MIXED_ANSWERS, MIN_ANSWERS)
        assert aggregate(cohort) == pytest.approx(5.619, abs=1e-3)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValidationError):
            aggregate([])

    def test_permutation_invariant_and_bounded(self):
        rng = random.Random(23)
        cohort = scored(
            *({i: rng.choice(CHOICES) for i in range(1, 8)} for _ in range(12))
        )
        mean = aggregate(cohort)
        shuffled = cohort[:]
        rng.shuffle(shuffled)
        assert aggregate(shuffled) == pytest.approx(mean, abs=1e-12)
        indices = [score.p_index for score in cohort]
        assert min(indices) <= mean <= max(indices)


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestCsvIngestion:
    def test_header_template(self):
        assert csv_header() == [
            "respondent_id",
            "item1", "item2", "item3", "item4", "item5", "item6", "item7",
        ]

    def test_reads_letters_digits_and_case(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_csv(
            path,
            [
                "respondent_id,item1,item2,item3,item4,item5,item6,item7",
                "r1,f,a,f,a,a,a,f",
                "",
                "r2,E,2,d,3,1,6,F",
            ],
        )
        rows, warnings = read_responses_csv(path)
        assert warnings == []
        assert [rid for rid, _ in rows] == ["r1", "r2"]
        assert score_response(rows[0][1]).p_index == 10.0
        # E,2,d,3,1,6,F is the digits-and-case spelling of e,b,d,c,a,f,f
        assert score_response(rows[1][1]).raw_sum == 31

    def test_wrong_header_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["id,item1,item2,item3,item4,item5,item6,item7"])
        with pytest.raises(ValidationError) as exc:
            read_responses_csv(path)
        assert "header" in str(exc.value)

    def test_bad_cell_strict_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(
            path,
            [
                "respondent_id,item1,item2,item3,item4,item5,item6,item7",
                "r1,a,a,a,a,a,a,a",
                "r2,a,a,a,g,a,a,a",
            ],
        )
        with pytest.raises(ValidationError) as exc:
            read_responses_csv(path)
        assert "line 3" in str(exc.value)

    def test_lenient_skips_and_reports(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(
            path,
            [
                "respondent_id,item1,item2,item3,item4,item5,item6,item7",
                "r1,a,a,a,g,a,a,a",
                "r2,f,a,f,a,a,a,f",
                "r3,f,a,f",
            ],
        )
        rows, warnings = read_responses_csv(path, lenient=True)
        assert [rid for rid, _ in rows] == ["r2"]
        assert len(warnings) == 2
        assert "line 2" in warnings[0]
        assert "line 4" in warnings[1]

    def test_line_numbers_count_physical_lines(self, tmp_path):
        # the first record's quoted id spans lines 2 and 3, so the bad row
        # is the third record but starts on line 4
        path = tmp_path / "multiline.csv"
        write_csv(
            path,
            [
                "respondent_id,item1,item2,item3,item4,item5,item6,item7",
                '"r',
                '1",f,a,f,a,a,a,f',
                "r2,g,a,a,a,a,a,a",
            ],
        )
        with pytest.raises(ValidationError) as exc:
            read_responses_csv(path)
        assert f"{path}: line 4: " in str(exc.value)
        rows, warnings = read_responses_csv(path, lenient=True)
        assert [rid for rid, _ in rows] == ["r\n1"]
        assert len(warnings) == 1
        assert warnings[0].startswith("line 4: skipped (")

    def test_wrong_field_count_strict(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(
            path,
            [
                "respondent_id,item1,item2,item3,item4,item5,item6,item7",
                "r1,a,a,a",
            ],
        )
        with pytest.raises(ValidationError) as exc:
            read_responses_csv(path)
        assert "line 2" in str(exc.value)

    def test_empty_respondent_id(self, tmp_path):
        path = tmp_path / "noid.csv"
        write_csv(
            path,
            [
                "respondent_id,item1,item2,item3,item4,item5,item6,item7",
                ",a,a,a,a,a,a,a",
            ],
        )
        with pytest.raises(ValidationError):
            read_responses_csv(path)

    def test_no_data_rows_strict(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(
            path,
            ["respondent_id,item1,item2,item3,item4,item5,item6,item7"],
        )
        with pytest.raises(ValidationError):
            read_responses_csv(path)


class TestParsedOnce:
    def test_answers_hold_positions(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_csv(path, [",".join(csv_header()), "r1, E ,2,d,3,1,6,F"])
        rows, _ = read_responses_csv(path)
        assert rows[0][1].answers == {1: 5, 2: 2, 3: 4, 4: 3, 5: 1, 6: 6, 7: 6}

    def test_score_parses_each_cell_once(self, tmp_path, monkeypatch):
        # a cell the position table holds is never parsed; any other cell is
        # parsed once, by the reader, and scoring parses nothing again
        parse = survey_module._choice_position
        calls = []

        def counting(choice):
            calls.append(choice)
            return parse(choice)

        monkeypatch.setattr(survey_module, "_choice_position", counting)
        cells = ["f", "a", "E", "2", "d", "3", "1"]
        for padded, parsed in ((False, 0), (True, 7 * 5)):
            calls.clear()
            row = [f" {cell} " if padded else cell for cell in cells]
            path = tmp_path / "cohort.csv"
            write_csv(
                path,
                [",".join(csv_header())]
                + [f"r{i}," + ",".join(row) for i in range(5)],
            )
            assert main(["score", str(path), "--out", str(tmp_path / "out.csv")]) == 0
            assert len(calls) == parsed


class TestPositionTable:
    def test_holds_each_spelling_of_the_scale(self):
        assert _POSITIONS == {
            spelling: _choice_position(spelling) for spelling in _POSITIONS
        }
        assert sorted(_POSITIONS) == sorted(
            [str(p) for p in range(1, 7)] + list(CHOICES) + [c.upper() for c in CHOICES]
        )

    @given(cell=CELLS, item=st.integers(1, 7))
    @example(cell="c", item=1)
    @example(cell=3, item=1)
    @example(cell=True, item=1)
    @example(cell=1.0, item=1)
    @example(cell="\uff16", item=1)
    @example(cell=" e ", item=1)
    @example(cell="", item=1)
    def test_reads_a_cell_as_choice_position_does(self, cell, item):
        row = ["r1", "a", "b", "c", "d", "e", "f", "1"]
        row[item] = cell
        read = outcome(lambda: _parse_row(row, len(row))[1].answers[item])
        assert read == outcome(_choice_position, cell)
