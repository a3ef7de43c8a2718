import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from splitgame import (
    DomainError,
    IndexParameters,
    Mode,
    PUBLISHED_TABLE,
    ValidationError,
    gaussian_tail,
    published_coefficient,
    score_factor,
)
from conftest import REPO_ROOT, erfc_tail, quad_tail


class TestGaussianTail:
    def test_half_mass_above_zero(self):
        assert gaussian_tail(0.0, 10.0) == pytest.approx(0.5, abs=1e-12)

    def test_infinite_lower_bound(self):
        assert gaussian_tail(math.inf, 10.0) == 0.0
        assert gaussian_tail(-math.inf, 10.0) == 1.0

    def test_nan_lower_bound_is_domain_error(self):
        with pytest.raises(DomainError, match="nan"):
            gaussian_tail(math.nan, 10.0)

    def test_reference_point(self):
        tail = gaussian_tail(math.sqrt(3.4), 10.0)
        assert tail == pytest.approx(0.279914610959, abs=1e-9)
        assert tail == pytest.approx(0.2800, abs=5e-4)

    def test_agrees_with_special_function_oracle(self):
        for lower in np.linspace(0.0, 10.0, 101):
            quad = gaussian_tail(float(lower), 10.0)
            assert abs(quad - erfc_tail(float(lower))) < 1e-9

    def test_other_variances(self):
        for variance in (0.5, 1.0, 4.0):
            for lower in (0.0, 0.7, 2.5):
                assert gaussian_tail(lower, variance) == pytest.approx(
                    quad_tail(lower, variance), abs=1e-9
                )

    def test_negative_lower_bound_exceeds_half(self):
        assert gaussian_tail(-2.0, 10.0) > 0.5
        assert gaussian_tail(-100.0, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_variance_must_be_positive(self):
        with pytest.raises(DomainError):
            gaussian_tail(1.0, 0.0)
        with pytest.raises(DomainError):
            gaussian_tail(1.0, -3.0)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    def test_variance_must_be_finite(self, variance):
        with pytest.raises(DomainError):
            gaussian_tail(1.0, variance)


class TestScoreFactor:
    def test_frozen_reference_values(self):
        assert score_factor(3.4) == pytest.approx(0.240028463014, abs=1e-9)
        assert score_factor(6.5) == pytest.approx(0.263314553408, abs=1e-9)
        assert score_factor(3.4) == pytest.approx(0.2400, abs=5e-4)
        assert score_factor(6.5) == pytest.approx(0.2633, abs=5e-4)

    def test_strictly_increasing(self):
        scores = np.linspace(0.05, 12.0, 60)
        factors = [score_factor(float(s)) for s in scores]
        assert all(b > a for a, b in zip(factors, factors[1:]))

    def test_open_range_and_limits(self):
        assert 1.0 / 6.0 < score_factor(0.01) < 1.0 / 3.0
        assert 1.0 / 6.0 < score_factor(50.0) < 1.0 / 3.0
        assert score_factor(1e-9) == pytest.approx(1.0 / 6.0, abs=1e-4)
        assert score_factor(1e8) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_oracle_identity(self):
        for score in (0.5, 2.0, 3.4, 6.5, 9.9):
            expected = (1.0 - quad_tail(math.sqrt(score))) / 3.0
            assert score_factor(score) == pytest.approx(expected, abs=1e-9)

    def test_rejects_non_positive_score(self):
        with pytest.raises(DomainError):
            score_factor(0.0)


class TestIndexParameters:
    def test_valid(self):
        params = IndexParameters(score=3.4, weight=0.5)
        assert params.variance == 10.0

    @pytest.mark.parametrize("score", [0.0, -1.0, 10.5])
    def test_score_gate(self, score):
        with pytest.raises(DomainError):
            IndexParameters(score=score, weight=0.5)

    @pytest.mark.parametrize("weight", [0.0, 1.0, -0.2, 1.3])
    def test_weight_open_interval(self, weight):
        with pytest.raises(DomainError):
            IndexParameters(score=3.4, weight=weight)

    def test_variance_positive(self):
        with pytest.raises(DomainError):
            IndexParameters(score=3.4, weight=0.5, variance=0.0)

    @pytest.mark.parametrize("variance", [math.nan, math.inf])
    def test_variance_finite(self, variance):
        with pytest.raises(DomainError):
            IndexParameters(score=3.4, weight=0.5, variance=variance)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: IndexParameters("3", 0.5), "score must be a number, got '3'"),
            (lambda: IndexParameters(3.4, None), "weight must be a number, got None"),
            (
                lambda: IndexParameters(3.4, 0.5, variance="10"),
                "variance must be a number, got '10'",
            ),
            (lambda: IndexParameters(1j, 0.5), "score must be a number, got 1j"),
            (lambda: gaussian_tail(1.0, [10]), "variance must be a number, got [10]"),
        ],
        ids=["score", "weight", "variance", "complex_score", "tail_variance"],
    )
    def test_non_numbers_are_validation_errors(self, make, message):
        with pytest.raises(ValidationError) as error:
            make()
        assert str(error.value) == message

    @pytest.mark.parametrize("score", [0.5, 1.0, 10.0])
    def test_unusual_scores_warn(self, score):
        with pytest.warns(UserWarning):
            IndexParameters(score=score, weight=0.5)

    def test_typical_scores_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            IndexParameters(score=3.4, weight=0.5)
            IndexParameters(score=6.5, weight=0.9)


class TestModes:
    def test_parse(self):
        assert Mode.parse("computed") is Mode.COMPUTED
        assert Mode.parse("published") is Mode.PUBLISHED
        assert Mode.parse("paper") is Mode.PUBLISHED
        with pytest.raises(ValidationError):
            Mode.parse("quantum")

    def test_published_constants_verbatim(self):
        assert PUBLISHED_TABLE["em12"] == (3.4, 0.3090)
        assert PUBLISHED_TABLE["pf21"] == (6.5, 0.2999)
        assert published_coefficient("em12", Mode.PUBLISHED) == 0.3090
        assert published_coefficient("pf21", Mode.PUBLISHED) == 0.2999

    def test_published_constants_differ_from_formula(self):
        # the published pair is not what the formula yields at those scores
        # (and it even decreases while the formula increases); both views
        # ship, and reports must say which one produced the numbers
        assert abs(published_coefficient("em12", Mode.PUBLISHED) - score_factor(3.4)) > 0.05
        assert abs(published_coefficient("pf21", Mode.PUBLISHED) - score_factor(6.5)) > 0.03

    def test_constants_gated_to_published_mode(self):
        with pytest.raises(ValidationError):
            published_coefficient("em12", Mode.COMPUTED)

    def test_unknown_event(self):
        with pytest.raises(ValidationError):
            published_coefficient("xy99", Mode.PUBLISHED)


@pytest.mark.parametrize(
    "package",
    ["scipy", "jsonschema", "numpy", "importlib.resources", "pathlib"],
)
def test_import_does_not_load(package):
    # the tail is closed-form and the package reads its scenario schema
    # itself; scipy and jsonschema are only the test suite's oracles, numpy
    # loads only inside the functions that sample, and package data is read
    # through the module's loader. -S keeps site's own imports out
    result = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            f"import splitgame, sys; assert {package!r} not in sys.modules",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


class TestModeNames:
    @pytest.mark.parametrize("text", [" Paper ", "paper ", "PUBLISHED", "Computed"])
    def test_parse_reads_exact_text_only(self, text):
        with pytest.raises(ValidationError, match="^unknown mode"):
            Mode.parse(text)

    def test_schema_and_cli_name_what_parse_reads(self):
        from splitgame.cli import _MODE_CHOICES
        from splitgame.scenario import scenario_schema

        names = ["computed", "published", "paper"]
        assert list(_MODE_CHOICES) == names
        assert scenario_schema()["properties"]["mode"]["enum"] == names
        assert [Mode.parse(name).value for name in names] == [
            "computed", "published", "published"
        ]
