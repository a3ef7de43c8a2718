import copy
import json
import math

import pytest

from splitgame import (
    Case,
    DomainError,
    InconsistentOrderError,
    Mode,
    ValidationError,
    ipd_scenario,
    load_scenario,
    scenario_from_dict,
    solve,
)


@pytest.fixture
def ipd_dict(ipd):
    return ipd.to_dict()


class TestShippedFile:
    def test_file_matches_builder(self, ipd_path, ipd):
        assert load_scenario(ipd_path) == ipd

    def test_shipped_defaults(self, ipd):
        assert ipd.name == "ipd"
        assert ipd.case is Case.WEAK_EVIDENCE
        assert ipd.mode is Mode.PUBLISHED
        assert ipd.em_params.score == 3.4 and ipd.em_params.weight == 0.5
        assert ipd.pf_params.score == 6.5 and ipd.pf_params.weight == 0.5
        assert ipd.mc.trials == 1_000_000 and ipd.mc.seed == 123456
        assert ipd.players == ("Emotion", "Profession")
        assert len(ipd.constraints.constraints) == 8
        grouped = [
            c
            for c in ipd.constraints.constraints
            if c.group == "column_best_response_assumptions"
        ]
        assert {(c.left, c.right) for c in grouped} == {
            ("PF11", "PF12"),
            ("PF22", "PF21"),
        }

    def test_builder_variants(self):
        strong = ipd_scenario(case=Case.STRONG_EVIDENCE, mode=Mode.COMPUTED, r=0.3)
        assert strong.case is Case.STRONG_EVIDENCE
        assert strong.mode is Mode.COMPUTED
        assert strong.em_params.weight == 0.3


class TestRoundTrip:
    def test_dict_round_trip(self, ipd, ipd_dict):
        assert scenario_from_dict(copy.deepcopy(ipd_dict)) == ipd

    def test_file_round_trip(self, tmp_path, ipd, ipd_dict):
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(ipd_dict))
        assert load_scenario(path) == ipd

    def test_mode_alias_accepted(self, ipd_dict):
        ipd_dict["mode"] = "paper"
        assert scenario_from_dict(ipd_dict).mode is Mode.PUBLISHED

    def test_optional_blocks_are_optional(self, ipd_dict):
        del ipd_dict["mc"]
        del ipd_dict["description"]
        scenario = scenario_from_dict(ipd_dict)
        assert scenario.mc is None
        assert scenario.description == ""


class TestSchemaValidation:
    def test_unknown_top_level_field(self, ipd_dict):
        ipd_dict["surprise"] = 1
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict, source="mem.json")
        message = str(exc.value)
        assert "mem.json" in message and "surprise" in message

    def test_missing_section_named(self, ipd_dict):
        del ipd_dict["events"]
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "events" in str(exc.value)

    def test_bad_mode_value(self, ipd_dict):
        ipd_dict["mode"] = "quantum"
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "mode" in str(exc.value)

    def test_payoff_cell_arity(self, ipd_dict):
        ipd_dict["game"]["payoffs"][0][0] = ["EM11", "PF11", "X"]
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "payoffs" in str(exc.value)

    def test_constraint_probability_range(self, ipd_dict):
        ipd_dict["constraints"][0]["probability"] = 1.5
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "constraints" in str(exc.value)

    def test_constraint_unknown_symbol(self, ipd_dict):
        ipd_dict["constraints"][0]["left"] = "ZZ99"
        with pytest.raises(ValidationError):
            scenario_from_dict(ipd_dict)


class TestSemanticValidation:
    def test_weight_outside_open_interval(self, ipd_dict):
        ipd_dict["parameters"]["r"] = 1.0
        with pytest.raises(DomainError):
            scenario_from_dict(ipd_dict)

    def test_prior_must_sum_to_one(self, ipd_dict):
        ipd_dict["events"]["prior"] = [0.5, 0.3, 0.1]
        with pytest.raises(DomainError):
            scenario_from_dict(ipd_dict)

    def test_nan_prior_is_domain_error(self, ipd_dict):
        ipd_dict["events"]["prior"] = [math.nan, 0.5, 0.5]
        with pytest.raises(DomainError, match="scholarship_offer"):
            scenario_from_dict(ipd_dict)

    def test_nan_variance_is_domain_error(self, ipd_dict):
        ipd_dict["parameters"]["variance"] = math.nan
        with pytest.raises(DomainError, match="variance"):
            scenario_from_dict(ipd_dict)

    def test_certain_cycle_named(self, ipd_dict):
        ipd_dict["constraints"].append(
            {"left": "EM21", "right": "EM11", "probability": 1.0}
        )
        with pytest.raises(InconsistentOrderError) as exc:
            scenario_from_dict(ipd_dict)
        assert "EM21" in str(exc.value) and "EM11" in str(exc.value)

    def test_published_mode_gate_applies_to_files(self, ipd_dict):
        ipd_dict["parameters"]["C"] = 2.0
        scenario = scenario_from_dict(ipd_dict)
        with pytest.raises(ValidationError):
            solve(scenario)


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert "JSON" in str(exc.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_names_file(self, tmp_path, ipd_dict, literal):
        text = json.dumps(ipd_dict).replace(
            '"variance": 10.0', f'"variance": {literal}'
        )
        assert literal in text
        path = tmp_path / "non_finite.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(path) in str(exc.value)
        assert literal in str(exc.value)
