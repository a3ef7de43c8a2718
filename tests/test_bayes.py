import math

import numpy as np
import pytest

from conftest import posterior_update_map
from splitgame import (
    ComparisonEvent,
    DomainError,
    EventSpace,
    ValidationError,
    fixed_point_posterior,
    ipd_scenario,
)
from splitgame._record import replace

UNIFORM3 = EventSpace.uniform(["e1", "e2", "e3"])


def random_space(rng, size):
    prior = rng.dirichlet(np.ones(size))
    # keep priors safely interior so the fixed point stays defined
    prior = (prior + 0.01) / (1.0 + 0.01 * size)
    return EventSpace(
        tuple(f"e{k}" for k in range(size)), tuple(float(p) for p in prior)
    )


class TestEventSpace:
    def test_uniform(self):
        assert UNIFORM3.labels == ("e1", "e2", "e3")
        assert sum(UNIFORM3.prior) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_over_no_labels_rejected(self):
        with pytest.raises(ValidationError) as exc:
            EventSpace.uniform([])
        assert str(exc.value) == "event space needs at least one event"

    @pytest.mark.parametrize(
        "labels",
        [{"e1", "e2", "e3"}, frozenset({"e1", "e2", "e3"}),
         {"e1": 0, "e2": 0, "e3": 0}.keys()],
        ids=["set", "frozenset", "dict_keys"],
    )
    def test_uniform_over_a_set_rejected(self, labels):
        # a set's iteration order follows the string hash seed
        with pytest.raises(ValidationError) as exc:
            EventSpace.uniform(labels)
        kind = type(labels).__name__
        assert str(exc.value) == (
            f"event labels need a list or tuple of labels, got {kind}"
        )

    @pytest.mark.parametrize(
        "labels",
        [["e1", "e2", "e3"], ("e1", "e2", "e3"),
         (f"e{k}" for k in (1, 2, 3))],
        ids=["list", "tuple", "generator"],
    )
    def test_uniform_over_an_ordered_iterable(self, labels):
        assert EventSpace.uniform(labels) == UNIFORM3

    def test_negative_prior_rejected(self):
        with pytest.raises(DomainError):
            EventSpace(("a", "b"), (1.2, -0.2))

    def test_prior_must_sum_to_one(self):
        with pytest.raises(DomainError):
            EventSpace(("a", "b"), (0.5, 0.4))

    @pytest.mark.parametrize("steps, accepted", [
        (4503, True), (4504, False), (-9007, True), (-9008, False),
    ])
    def test_prior_sum_tolerance_at_its_last_double(self, steps, accepted):
        # PRIOR_TOLERANCE is 1e-12. Above 1 a sum moves in steps of 2**-52,
        # below it in steps of 2**-53, and each distance here is that many
        # steps, exactly representable: 4503 * 2**-52 and 9007 * 2**-53 are
        # the last within 1e-12 on each side, one step more is outside it
        step = 2.0**-52 if steps > 0 else 2.0**-53
        prior = (0.5 + steps * step, 0.5)
        total = sum(prior)
        assert total - 1.0 == steps * step  # exact
        if accepted:
            EventSpace(("a", "b"), prior)
            return
        with pytest.raises(DomainError) as exc:
            EventSpace(("a", "b"), prior)
        assert str(exc.value) == f"prior sums to {total!r}, outside 1 +/- 1e-12"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_rejected_with_label(self, bad):
        with pytest.raises(DomainError, match="prior\\(a\\)"):
            EventSpace(("a", "b", "c"), (bad, 0.5, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            EventSpace(("a", "b"), (1.0,))

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            EventSpace(("a", "a"), (0.5, 0.5))

    def test_lists_are_stored_as_tuples(self):
        space = EventSpace(["a", "b"], [0.5, 0.5])
        assert (space.labels, space.prior) == (("a", "b"), (0.5, 0.5))
        assert space == EventSpace(("a", "b"), (0.5, 0.5))
        assert hash(space) == hash((("a", "b"), (0.5, 0.5)))
        ipd = ipd_scenario()
        events = EventSpace(list(ipd.events.labels), list(ipd.events.prior))
        hash(replace(ipd, events=events))  # a scenario holding it hashes too

    def test_comparison_event_needs_a_label(self):
        with pytest.raises(
            ValidationError, match="^comparison event label must be non-empty$"
        ):
            ComparisonEvent("", "EM11", "EM22")

    def test_comparison_event_distinct_sides(self):
        ComparisonEvent("em12", "EM11", "EM22")
        with pytest.raises(ValidationError):
            ComparisonEvent("bad", "EM11", "EM11")


class TestFixedPoint:
    def test_uniform_three_events_is_exactly_one_third(self):
        alpha = fixed_point_posterior(UNIFORM3, (1, 2))
        assert alpha == 1.0 / 3.0  # bit-exact, not approximate

    def test_non_uniform_prior(self):
        space = EventSpace(("a", "b", "c"), (0.5, 0.25, 0.25))
        assert fixed_point_posterior(space, (1, 2)) == 0.5

    def test_two_event_space(self):
        space = EventSpace(("a", "b"), (0.2, 0.8))
        assert fixed_point_posterior(space, (1,)) == 0.2

    def test_fixed_point_equals_prior_for_random_priors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            space = random_space(rng, int(rng.integers(2, 6)))
            star = int(rng.integers(0, len(space)))
            rest = tuple(k for k in range(len(space)) if k != star)
            alpha = fixed_point_posterior(space, rest)
            assert abs(alpha - space.prior[star]) <= 1e-12

    def test_degenerate_prior_rejected(self):
        certain = EventSpace(("a", "b"), (1.0, 0.0))
        with pytest.raises(DomainError):
            fixed_point_posterior(certain, (1,))
        with pytest.raises(DomainError):
            fixed_point_posterior(certain, (0,))

    def test_index_validation(self):
        with pytest.raises(ValidationError):
            fixed_point_posterior(UNIFORM3, (1, 1))
        with pytest.raises(ValidationError):
            fixed_point_posterior(UNIFORM3, (1, 5))
        with pytest.raises(ValidationError):
            fixed_point_posterior(UNIFORM3, (2,))

    @pytest.mark.parametrize("unaffected, alpha", [
        ((0, 1), 0.5), ((1, 2), 0.2),
    ])
    def test_first_and_last_index_accepted(self, unaffected, alpha):
        space = EventSpace(("a", "b", "c"), (0.2, 0.3, 0.5))
        assert fixed_point_posterior(space, unaffected) == alpha

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_one_index_past_either_end_is_named(self, bad):
        with pytest.raises(ValidationError) as exc:
            fixed_point_posterior(UNIFORM3, (1, bad))
        assert str(exc.value) == f"event index {bad} out of range for 3 events"

    def test_unaffected_is_any_iterable_of_indices(self):
        space = EventSpace(("a", "b"), (0.2, 0.8))
        assert fixed_point_posterior(space, range(1, 2)) == 0.2
        assert fixed_point_posterior(space, (i for i in [0])) == 0.8
        with pytest.raises(ValidationError) as exc:
            fixed_point_posterior(space, 1)
        assert str(exc.value) == "unaffected event indices must be iterable, got 1"

    def test_update_map_residual_vanishes_at_fixed_point(self):
        for space in (
            UNIFORM3,
            EventSpace(("a", "b", "c"), (0.5, 0.25, 0.25)),
            EventSpace(("a", "b"), (0.2, 0.8)),
        ):
            rest = tuple(range(1, len(space)))
            alpha = fixed_point_posterior(space, rest)
            assert posterior_update_map(space.prior[0], alpha) == pytest.approx(
                alpha, abs=1e-15
            )
