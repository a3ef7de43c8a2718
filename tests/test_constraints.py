import enum
import importlib.util
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from conftest import (
    REPO_ROOT,
    python_walk,
    reference_components,
    reference_reach,
    reference_sample_realization,
    rejection_realization,
)
import splitgame
from splitgame import constraints as constraint_module
from splitgame import sampling
from splitgame.constraints import MAX_TRIALS, check_integer
from splitgame.sampling import (
    _components,
    _extension_picker,
    _lattice,
    _linear_extensions,
)
from splitgame import (
    BOUND_LOWER,
    SAMPLING_DOWNSET_CAP,
    ConstraintSet,
    DominanceConstraint,
    InconsistentOrderError,
    MissingProbabilityError,
    SamplingExhaustedError,
    SplitgameError,
    UnknownSymbolError,
    ValidationError,
    ipd_scenario,
    verify_nash_numeric,
)


def certain(left, right):
    return DominanceConstraint(left, right, 1.0)


class TestDominanceConstraint:
    @pytest.mark.parametrize("left, right", [("", "B"), ("A", "")])
    def test_empty_symbol_rejected(self, left, right):
        with pytest.raises(
            ValidationError, match="^constraint symbols must be non-empty ids$"
        ):
            DominanceConstraint(left, right, 1.0)

    def test_self_comparison_rejected(self):
        with pytest.raises(ValidationError):
            DominanceConstraint("A", "A", 1.0)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf, -math.inf])
    def test_probability_out_of_range(self, p):
        with pytest.raises(ValidationError):
            DominanceConstraint("A", "B", p)

    def test_unknown_bound_kind(self):
        with pytest.raises(ValidationError):
            DominanceConstraint("A", "B", 0.5, bound="upper")

    def test_certain_flag(self):
        assert certain("A", "B").certain
        assert not DominanceConstraint("A", "B", 0.9).certain
        # lower bounds are open intervals, never point certainty
        assert not DominanceConstraint("A", "B", 1.0, bound=BOUND_LOWER).certain


class TestConstruction:
    def test_add_returns_new_set(self):
        empty = ConstraintSet([])
        grown = empty.add_constraint(certain("A", "B"))
        assert len(empty.constraints) == 0
        assert len(grown.constraints) == 1
        assert grown.implies("A", "B") is True
        assert empty.implies("A", "B") is None

    def test_two_cycle_rejected(self):
        base = ConstraintSet([certain("A", "B")])
        with pytest.raises(InconsistentOrderError) as exc:
            base.add_constraint(certain("B", "A"))
        assert "B > A > B" in str(exc.value)
        assert exc.value.cycle == ("B", "A", "B")

    def test_longer_cycle_named_in_message(self):
        base = ConstraintSet([certain("A", "B"), certain("B", "C")])
        with pytest.raises(InconsistentOrderError) as exc:
            base.add_constraint(certain("C", "A"))
        assert "C > A > B > C" in str(exc.value)

    def test_cycle_message_independent_of_hash_seed(self):
        # two shortest cycles close at C > A; the one through the first
        # listed successor is named, whatever the string hash seed
        script = (
            "from splitgame import ConstraintSet, DominanceConstraint as D,"
            " InconsistentOrderError\n"
            "pairs = [('A', 'B1'), ('A', 'B2'), ('B1', 'C'), ('B2', 'C'),"
            " ('C', 'A')]\n"
            "try:\n"
            "    ConstraintSet([D(a, b, 1.0) for a, b in pairs])\n"
            "except InconsistentOrderError as exc:\n"
            "    print(exc)\n"
        )
        messages = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={
                    **os.environ,
                    "PYTHONPATH": str(REPO_ROOT / "src"),
                    "PYTHONHASHSEED": str(seed),
                },
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in range(1, 9)
        }
        assert messages == {
            "inconsistent certain order, cycle: C > A > B1 > C\n"
        }

    def test_cycle_detected_at_batch_construction(self):
        with pytest.raises(InconsistentOrderError):
            ConstraintSet([certain("A", "B"), certain("B", "A")])

    def test_conflicting_exact_probabilities_rejected(self):
        with pytest.raises(ValidationError):
            ConstraintSet(
                [
                    DominanceConstraint("A", "B", 0.4),
                    DominanceConstraint("A", "B", 0.6),
                ]
            )

    def test_universe_must_cover_constraints(self):
        with pytest.raises(ValidationError):
            ConstraintSet([certain("A", "B")], universe=frozenset({"A"}))

    @pytest.mark.parametrize(
        "constraints, universe, error, code, message",
        [
            (
                [certain("A", "B"), certain("B", "A"), certain("A", "Z")],
                {"A", "B"},
                InconsistentOrderError,
                5,
                "inconsistent certain order, cycle: B > A > B",
            ),
            (
                [
                    certain("A", "B"),
                    certain("B", "A"),
                    DominanceConstraint("C", "D", 0.5),
                    DominanceConstraint("C", "D", 0.7),
                ],
                None,
                InconsistentOrderError,
                5,
                "inconsistent certain order, cycle: B > A > B",
            ),
            (
                [certain("A", "B"), 7],
                5,
                ValidationError,
                4,
                "universe must be a list, tuple or set of non-empty ids, got 5",
            ),
        ],
        ids=["cycle_before_outside_symbol", "cycle_before_conflict",
             "universe_before_constraints"],
    )
    def test_first_faulty_constraint_is_named(
        self, constraints, universe, error, code, message
    ):
        # the universe's kind first, then each constraint in input order,
        # whatever kind of fault a later one has
        with pytest.raises(SplitgameError) as exc:
            ConstraintSet(constraints, universe=universe)
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert exc.value.exit_code == code

    @pytest.mark.parametrize(
        "left, right, outside",
        [("Z", "A", "Z"), ("A", "Z", "Z"), ("Y", "Z", "Y")],
        ids=["left_outside", "right_outside", "both_outside_left_named"],
    )
    def test_symbol_outside_the_bound_universe_is_named(self, left, right, outside):
        with pytest.raises(ValidationError) as exc:
            ConstraintSet([certain(left, right)], universe=["A", "B"])
        assert str(exc.value) == (
            f"constraint p({left} > {right}) uses symbol {outside!r} "
            "outside the bound universe"
        )

    def test_equality(self):
        a = ConstraintSet([certain("A", "B")])
        b = ConstraintSet([certain("A", "B")])
        assert a == b
        assert a != a.add_constraint(certain("B", "C"))

    def test_never_equal_to_another_type(self):
        order = ConstraintSet([certain("A", "B")])
        # the other operand decides, so a tuple of the same constraints is
        # not the set
        assert order.__eq__(order.constraints) is NotImplemented
        assert order != order.constraints

    def test_equal_sets_hash_equal(self):
        a = ConstraintSet([certain("A", "B")], universe={"A", "B", "C"})
        b = ConstraintSet([certain("A", "B")], universe=["C", "B", "A"])
        assert hash(a) == hash(b)
        assert {a, b, ConstraintSet([certain("A", "B")])} == {
            a,
            ConstraintSet([certain("A", "B")]),
        }


class TestImplies:
    def test_empty_set_everything_unknown(self):
        empty = ConstraintSet([])
        assert empty.implies("A", "B") is None
        assert empty.implies("B", "A") is None

    def test_single_edge(self):
        one = ConstraintSet([certain("EM11", "EM21")])
        assert one.implies("EM11", "EM21") is True
        assert one.implies("EM21", "EM11") is False

    def test_transitivity(self):
        chain = ConstraintSet([certain("A", "B"), certain("B", "C")])
        assert chain.implies("A", "C") is True
        assert chain.implies("C", "A") is False

    def test_sub_certain_probability_never_decides(self):
        probable = ConstraintSet([DominanceConstraint("A", "B", 0.99)])
        assert probable.implies("A", "B") is None
        assert probable.implies("B", "A") is None

    def test_lower_bound_never_decides(self):
        bound = ConstraintSet(
            [DominanceConstraint("A", "B", 0.9, bound=BOUND_LOWER)]
        )
        assert bound.implies("A", "B") is None

    def test_self_comparison_is_false(self):
        assert ConstraintSet([certain("A", "B")]).implies("A", "A") is False

    def test_shipped_relations(self, ipd_base_constraints):
        assert ipd_base_constraints.implies("EM11", "EM21") is True
        # no path connects the column player's first-row payoffs
        assert ipd_base_constraints.implies("PF11", "PF12") is None
        assert ipd_base_constraints.implies("PF12", "PF11") is None

    def test_antisymmetry(self, ipd_base_constraints):
        symbols = sorted(ipd_base_constraints.symbols)
        for left in symbols:
            for right in symbols:
                if ipd_base_constraints.implies(left, right) is True:
                    assert ipd_base_constraints.implies(right, left) is False

    def test_unknown_symbol_with_universe(self, ipd_base_constraints):
        with pytest.raises(UnknownSymbolError):
            ipd_base_constraints.implies("EM11", "NOPE")

    def test_unknown_symbol_without_universe_is_permissive(self):
        open_set = ConstraintSet([certain("A", "B")])
        assert open_set.implies("A", "NOPE") is None


class TestChainProbability:
    def test_certain_chain_is_one(self, ipd_constraints):
        chain = [("PF22", "PF12"), ("PF11", "PF21")]
        assert ipd_constraints.independent_chain_probability(chain) == 1.0

    def test_product_rule(self):
        s = ConstraintSet(
            [
                DominanceConstraint("A", "B", 0.5),
                DominanceConstraint("B", "C", 0.5),
            ]
        )
        assert s.independent_chain_probability([("A", "B"), ("B", "C")]) == 0.25

    def test_empty_chain_is_one(self):
        assert ConstraintSet([]).independent_chain_probability([]) == 1.0

    def test_closure_entries_count_as_certain(self):
        chain = ConstraintSet([certain("A", "B"), certain("B", "C")])
        assert chain.independent_chain_probability([("A", "C")]) == 1.0

    def test_missing_probability(self):
        s = ConstraintSet([DominanceConstraint("A", "B", 0.5)])
        with pytest.raises(MissingProbabilityError):
            s.independent_chain_probability([("A", "B"), ("B", "C")])

    def test_permutation_invariance(self):
        s = ConstraintSet(
            [
                DominanceConstraint("A", "B", 0.3),
                DominanceConstraint("C", "D", 0.7),
                certain("E", "F"),
            ]
        )
        chain = [("A", "B"), ("C", "D"), ("E", "F")]
        reference = s.independent_chain_probability(chain)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = chain[:]
            rng.shuffle(shuffled)
            assert s.independent_chain_probability(shuffled) == pytest.approx(
                reference, abs=1e-15
            )


class TestSampling:
    def test_samples_satisfy_certain_constraints(self, ipd_base_constraints):
        for seed in range(1000):
            values = ipd_base_constraints.sample_realization(seed)
            assert set(values) == set(ipd_base_constraints.symbols)
            for c in ipd_base_constraints.constraints:
                assert values[c.left] > values[c.right]
            for v in values.values():
                assert 0.0 <= v <= 1.0

    def test_deterministic_per_seed(self, ipd_base_constraints):
        first = ipd_base_constraints.sample_realization(42)
        second = ipd_base_constraints.sample_realization(42)
        assert first == second
        assert first != ipd_base_constraints.sample_realization(43)

    def test_unconstrained_universe(self):
        universe = frozenset(f"S{i}" for i in range(8))
        free = ConstraintSet([], universe=universe)
        values = free.sample_realization(0)
        assert set(values) == set(universe)
        assert all(0.0 <= v <= 1.0 for v in values.values())

    def test_no_symbols_no_values(self):
        assert ConstraintSet([]).sample_realization(0) == {}

    def test_open_set_knows_only_its_certain_symbols(self):
        soft = DominanceConstraint("a", "b", 0.7)
        lower = DominanceConstraint("c", "d", 0.5, bound=BOUND_LOWER)
        assert ConstraintSet([soft]).symbols == frozenset()
        assert ConstraintSet([soft]).sample_realization(0) == {}
        mixed = ConstraintSet([soft, lower, certain("b", "e")])
        assert mixed.symbols == {"b", "e"}
        assert set(mixed.sample_realization(0)) == {"b", "e"}
        # a bound set knows its whole universe
        bound = ConstraintSet([soft], universe=["a", "b", "z"])
        assert bound.symbols == {"a", "b", "z"}

    @staticmethod
    def assert_valid(constraints, values, rows):
        assert set(values) == set(constraints.symbols)
        for column in values.values():
            assert column.shape == (rows,)
            assert ((0.0 <= column) & (column <= 1.0)).all()
        for greater, lesser in constraints.certain_order:
            assert (values[greater] > values[lesser]).all()

    def test_exhaustion_on_long_total_chain(self):
        # a 16-symbol total order, which rejection could never sample, has
        # only 17 downsets
        names = [f"S{i:02d}" for i in range(16)]
        chain = ConstraintSet(
            [certain(names[i], names[i + 1]) for i in range(15)]
        )
        self.assert_valid(chain, chain.sample_realization(7, size=50), 50)
        # one symbol above 17 others: the widest component of a 3x3 game,
        # 2**17 + 1 downsets, still under the cap
        star = ConstraintSet([certain("T", f"S{i:02d}") for i in range(17)])
        self.assert_valid(star, star.sample_realization(7, size=50), 50)
        # one symbol above 19 others: 2**19 + 1 downsets, over the cap
        wide = ConstraintSet([certain("T", f"S{i:02d}") for i in range(19)])
        assert 2**19 + 1 > SAMPLING_DOWNSET_CAP
        # a failed build is kept, so a repeated call raises it again
        for _ in range(2):
            with pytest.raises(SamplingExhaustedError, match="of 20 symbols"):
                wide.sample_realization(7)

    @pytest.mark.parametrize("size", [-1, 2.5, "3", True])
    def test_bad_size_rejected(self, ipd_base_constraints, size):
        with pytest.raises(ValidationError, match="size"):
            ipd_base_constraints.sample_realization(0, size=size)

    @pytest.mark.parametrize(
        "size",
        [MAX_TRIALS + 1, 10**20, 10**5000],
        ids=["cap_plus_one", "1e20", "5001_digits"],
    )
    def test_size_above_the_cap_rejected_before_allocating(
        self, ipd_base_constraints, size
    ):
        with pytest.raises(ValidationError) as exc:
            ipd_base_constraints.sample_realization(0, size=size)
        assert str(exc.value) == f"size must be <= {MAX_TRIALS}"

    def test_values_above_the_cap_rejected_before_allocating(
        self, ipd_base_constraints
    ):
        # under the row cap, but 8 symbols times this many rows is over
        # MAX_TRIALS values (800 MB of float64)
        size = MAX_TRIALS // 8 + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                ipd_base_constraints.sample_realization(0, size=size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"size * symbols must be <= {MAX_TRIALS}, got {size} * 8"
        )
        assert peak < 1 << 20

    def test_values_at_the_cap_drawn_and_one_row_more_rejected(
        self, ipd_base_constraints, monkeypatch
    ):
        # size * symbols <= MAX_TRIALS, at a cap small enough to draw at:
        # the shipped order has 8 symbols, so 5 rows fill a cap of 40
        monkeypatch.setattr(constraint_module, "MAX_TRIALS", 40)
        values = ipd_base_constraints.sample_realization(0, size=5)
        assert {column.shape for column in values.values()} == {(5,)}
        with pytest.raises(ValidationError) as exc:
            ipd_base_constraints.sample_realization(0, size=6)
        assert str(exc.value) == "size * symbols must be <= 40, got 6 * 8"

    @pytest.mark.parametrize("cap, fits", [(9, True), (8, False)])
    def test_downset_cap_at_and_one_under_the_count(self, monkeypatch, cap, fits):
        # one symbol above three others has 2**3 + 1 = 9 downsets
        monkeypatch.setattr(sampling, "SAMPLING_DOWNSET_CAP", cap)
        star = ConstraintSet([certain("T", lesser) for lesser in "ABC"])
        if fits:
            assert _bits(star.sample_realization(4, size=6)) == _bits(
                reference_sample_realization(star, 4, 6)
            )
            return
        with pytest.raises(SamplingExhaustedError) as exc:
            star.sample_realization(4, size=6)
        assert str(exc.value) == (
            "a connected component of 4 symbols in the certain order has "
            "more than 8 downsets"
        )

    def test_size_past_the_digit_limit_rejected(self, ipd_base_constraints):
        with pytest.raises(ValidationError) as exc:
            ipd_base_constraints.sample_realization(0, size=-(10**5000))
        assert str(exc.value) == (
            "size must be >= 0, got a number too long to print"
        )


def _order(pairs):
    return ConstraintSet([certain(a, b) for a, b in pairs])


# small orders whose linear extensions rejection samples quickly
RANK_ORDERS = {
    # two 2+2 crowns: EM11, EM22 > EM12, EM21 and PF11, PF22 > PF12, PF21
    "ipd": lambda: ipd_scenario().constraints,
    "N": lambda: _order([("A", "C"), ("B", "C"), ("B", "D")]),
    # the 2+2 crown: two disjoint 2-chains, so two components interleave
    "crown_2+2": lambda: _order([("A", "C"), ("B", "D")]),
}


def _homogeneity_pvalue(table):
    """Pearson chi-square p-value that the rows of a count table share one
    distribution over its columns."""
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    statistic = ((table - expected) ** 2 / expected).sum()
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return chdtrc(dof, statistic)


def _rank_counts(names, table):
    """Per symbol, how often it held each rank (0 = smallest value)."""
    ranks = np.argsort(np.argsort(table, axis=0), axis=0)
    n = len(names)
    return np.array([np.bincount(ranks[i], minlength=n) for i in range(n)])


@pytest.mark.parametrize("name", sorted(RANK_ORDERS))
def test_marginal_ranks_match_rejection(name):
    # the exact sampler and the rejection oracle draw from one law, so per
    # symbol their rank histograms pass a chi-square homogeneity test;
    # 1e-4 per symbol keeps the family-wise false alarm below 0.1 %
    constraints = RANK_ORDERS[name]()
    names = sorted(constraints.symbols)
    trials = 3000
    exact = constraints.sample_realization(11, size=trials)
    oracle = [rejection_realization(constraints, [12, t]) for t in range(trials)]
    exact_counts = _rank_counts(names, np.array([exact[s] for s in names]))
    oracle_counts = _rank_counts(
        names, np.array([[row[s] for row in oracle] for s in names])
    )
    for i, symbol in enumerate(names):
        table = np.array([exact_counts[i], oracle_counts[i]])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:
            assert (exact_counts[i] == oracle_counts[i]).all(), symbol
            continue
        assert _homogeneity_pvalue(table) > 1e-4, (symbol, table)


@st.composite
def dag_orders(draw):
    """Acyclic certain orders over up to 10 symbols whose names sort in
    any order relative to the order; the set is bound to all of them or
    open, knowing only the symbols its constraints mention."""
    n = draw(st.integers(1, 10))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] < pair[1]
            ),
            max_size=20,
            unique=True,
        )
    )
    names = draw(st.permutations([f"S{i}" for i in range(n)]))
    constraints = [certain(names[a], names[b]) for a, b in pairs]
    if draw(st.booleans()):
        return ConstraintSet(constraints)
    return ConstraintSet(constraints, universe=names)


@settings(max_examples=60, deadline=None)
@given(
    constraints=dag_orders(),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
)
def test_every_row_honours_the_certain_order(constraints, seed, rows):
    TestSampling.assert_valid(
        constraints, constraints.sample_realization(seed, size=rows), rows
    )
    single = constraints.sample_realization(seed)
    assert single == constraints.sample_realization(seed)
    assert all(type(v) is float for v in single.values())
    for greater, lesser in constraints.certain_order:
        assert single[greater] > single[lesser]


def _bits(values):
    """Each value's type, shape and bytes: equal only when bit-identical."""
    return {
        name: (type(v), np.shape(v), np.asarray(v).tobytes())
        for name, v in values.items()
    }


@settings(max_examples=80, deadline=None)
@given(
    constraints=dag_orders(),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([None, 0, 1]) | st.integers(2, 40),
)
def test_kept_plan_draws_bit_identical_values(constraints, seed, size):
    # the plan built on the first call and the plan kept for the next both
    # draw exactly what rebuilding everything on every call drew
    expected = _bits(reference_sample_realization(constraints, seed, size))
    assert _bits(constraints.sample_realization(seed, size)) == expected
    assert _bits(constraints.sample_realization(seed, size)) == expected


class TestSamplingPlan:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The component sizes of every lattice build, in order."""
        sizes = []
        build = sampling._lattice

        def counting(above):
            sizes.append(len(above))
            return build(above)

        monkeypatch.setattr(sampling, "_lattice", counting)
        return sizes

    def test_one_lattice_build_per_run_of_one_local_order(self, builds):
        scenario = ipd_scenario()
        order = ConstraintSet(
            scenario.constraints.constraints,
            universe=scenario.constraints.universe,
        )
        for seed in range(3):
            order.sample_realization(seed)
            order.sample_realization(seed, size=5)
        for seed in range(2):
            assert verify_nash_numeric(scenario.game, order, 100, seed).ok
        # two adjacent 2+2 crowns of one local order: one build serves both
        assert builds == [4]
        _, _, walks = order._sampling_plan()
        assert [members.shape for members, _ in walks] == [(2, 4)]

    def test_a_chain_between_ends_a_run(self, builds):
        # crowns A and C have one local order, and so has D; the chain B
        # between A and C keeps them in runs of their own, C and D share one
        crowns = [(f"{p}{t}", f"{p}{b}") for p in "ACD" for t in "01" for b in "23"]
        order = _order(crowns + [("B0", "B1"), ("B1", "B2")])
        names, _, walks = order._sampling_plan()
        assert [
            [[names[i] for i in row] for row in np.atleast_2d(members)]
            for members, _ in walks
        ] == [
            [["A0", "A1", "A2", "A3"]],
            [["B0", "B1", "B2"]],
            [["C0", "C1", "C2", "C3"], ["D0", "D1", "D2", "D3"]],
        ]
        assert [pick is None for _, pick in walks] == [False, True, False]
        assert builds == [4, 4]

    def test_derived_set_builds_its_own_plan(self, builds):
        # A above B and C: two linear extensions, so a walked lattice
        base = ConstraintSet(
            [certain("A", "B"), certain("A", "C")], universe=["A", "B", "C", "D"]
        )
        base.sample_realization(0)
        derived = base.add_constraint(certain("C", "D"))
        values = derived.sample_realization(1, size=20)
        assert builds == [3, 4]
        for greater, lesser in derived.certain_order:
            assert (values[greater] > values[lesser]).all()
        assert _bits(values) == _bits(
            reference_sample_realization(derived, 1, 20)
        )
        base.sample_realization(2)
        assert builds == [3, 4]

    def test_chains_build_no_lattice(self, builds):
        base = ConstraintSet([certain("A", "B")], universe=["A", "B", "C"])
        base.sample_realization(0)
        derived = base.add_constraint(certain("B", "C"))
        values = derived.sample_realization(1, size=20)
        assert builds == []
        assert ((values["A"] > values["B"]) & (values["B"] > values["C"])).all()
        assert _bits(values) == _bits(
            reference_sample_realization(derived, 1, 20)
        )

    def test_a_failed_build_is_kept(self, builds, monkeypatch):
        # one symbol above three others: 2**3 + 1 downsets, over a cap of 4
        monkeypatch.setattr(sampling, "SAMPLING_DOWNSET_CAP", 4)
        star = ConstraintSet([certain("T", lesser) for lesser in "ABC"])
        raised = []
        for size in (None, 5):
            with pytest.raises(SamplingExhaustedError) as error:
                star.sample_realization(0, size=size)
            raised.append((type(error.value), str(error.value)))
        assert raised == [(
            SamplingExhaustedError,
            "a connected component of 4 symbols in the certain order has "
            "more than 4 downsets",
        )] * 2
        assert builds == [4]
        # kept without the frames of the build that raised
        assert star._plan.__traceback__ is None

    def test_plan_stays_out_of_equality_and_hash(self):
        drawn = ConstraintSet([certain("A", "B")])
        fresh = ConstraintSet([certain("A", "B")])
        before = hash(drawn)
        drawn.sample_realization(0)
        assert drawn == fresh
        assert hash(drawn) == hash(fresh) == before


@pytest.mark.parametrize("seed", range(30))
def test_components_match_a_breadth_first_search(seed):
    # the bit-identity properties take _components from the code they check
    rng = random.Random(seed)
    names = [f"S{i:02d}" for i in range(rng.randint(1, 14))]
    ranked = rng.sample(names, len(names))  # a random topological order
    density = rng.choice([0.05, 0.15, 0.3])
    order = ConstraintSet(
        [
            certain(ranked[i], ranked[j])
            for i, j in itertools.combinations(range(len(names)), 2)
            if rng.random() < density
        ],
        universe=names,
    )
    neighbours = {name: set() for name in names}
    for greater, lesser in order.certain_order:
        neighbours[greater].add(lesser)
        neighbours[lesser].add(greater)
    expected, seen = [], set()
    for start in names:
        if start in seen:
            continue
        seen.add(start)
        queue, found = deque([start]), []
        while queue:
            node = queue.popleft()
            found.append(names.index(node))
            for near in neighbours[node] - seen:
                seen.add(near)
                queue.append(near)
        expected.append(sorted(found))
    assert _components(names, order._reach) == expected


@st.composite
def constraint_lists(draw):
    """Constraints over up to 9 symbols whose names sort in any order:
    certain, soft and lower-bound entries down one random ranking, with up
    to three certain back edges up it, each of which may close a cycle,
    inserted anywhere; the set is open or bound to the symbols and one
    spare."""
    n = draw(st.integers(2, 9))
    names = draw(st.permutations([f"S{i}" for i in range(n)]))
    down = list(itertools.combinations(range(n), 2))
    entries = []
    for a, b in draw(
        st.lists(st.sampled_from(down), min_size=n - 1, max_size=20, unique=True)
    ):
        kind = draw(st.sampled_from(["certain", "certain", "soft", "lower"]))
        if kind == "certain":
            entries.append(certain(names[a], names[b]))
        elif kind == "soft":
            p = draw(st.sampled_from([0.0, 0.3, 0.7, 0.99]))
            entries.append(DominanceConstraint(names[a], names[b], p))
        else:
            entries.append(
                DominanceConstraint(names[a], names[b], 1.0, bound=BOUND_LOWER)
            )
    backs = min(3, len(down))
    for a, b in draw(
        st.lists(
            st.sampled_from(down),
            min_size=draw(st.integers(0, backs)),
            max_size=backs,
            unique=True,
        )
    ):
        # counted from the end, so a back edge lands after most of the
        # order rather than ahead of it
        at = len(entries) - draw(st.integers(0, len(entries)))
        entries.insert(at, certain(names[b], names[a]))
    universe = draw(st.sampled_from([None, names + ["spare"]]))
    return entries, universe


@settings(max_examples=400, deadline=None)
@given(drawn=constraint_lists())
def test_order_matches_the_edge_by_edge_closure(drawn):
    # one breadth-first search gives the closure, the components and the
    # cycle named that the incremental closure, the path search and the
    # union-find gave
    entries, universe = drawn
    try:
        expected = reference_reach(entries, universe)
    except InconsistentOrderError as reference:
        with pytest.raises(InconsistentOrderError) as raised:
            ConstraintSet(entries, universe=universe)
        assert raised.value.cycle == reference.cycle
        assert str(raised.value) == str(reference)
        return
    order = ConstraintSet(entries, universe=universe)
    assert order._reach == expected
    names = sorted(order.symbols)
    assert _components(names, order._reach) == reference_components(
        names, expected
    )


def test_building_and_hashing_a_set_loads_no_numpy():
    # the sampling plan is built on the first draw, not with the set, and
    # the check plan on the first verification, so importing both modules,
    # building, hashing and extending a set load neither numpy nor the
    # sampler; -S keeps site's own imports out
    code = (
        "import sys, splitgame.montecarlo, splitgame.constraints as c; "
        "s = c.ConstraintSet([c.DominanceConstraint('a', 'b', 1.0)]); "
        "hash(s.add_constraint(c.DominanceConstraint('b', 'x', 1.0))); "
        "assert 'numpy' not in sys.modules; "
        "assert 'splitgame.sampling' not in sys.modules"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


class TestSamplingSeed:
    @pytest.fixture
    def fresh_order(self):
        """The shipped order in a new set, so no sampling plan is kept yet."""
        constraints = ipd_scenario().constraints
        return ConstraintSet(constraints.constraints, universe=constraints.universe)

    @pytest.mark.parametrize("size", [None, 3])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, [1, -2], (0, 2.0), [False]])
    def test_bad_seed_is_a_validation_error(self, fresh_order, seed, size):
        with pytest.raises(ValidationError, match="^seed must be"):
            fresh_order.sample_realization(seed, size=size)
        # rejected before anything is drawn or built
        assert fresh_order._plan is None

    def test_seed_sequences_draw_as_numpy_does(self, ipd_base_constraints):
        drawn = ipd_base_constraints.sample_realization([1, 2], size=4)
        assert _bits(drawn) == _bits(
            reference_sample_realization(ipd_base_constraints, [1, 2], 4)
        )
        assert _bits(drawn) == _bits(
            ipd_base_constraints.sample_realization((1, np.int64(2)), size=4)
        )


def test_a_copy_under_another_name_draws_with_its_own_sampler(monkeypatch):
    # no module of the package imports it by its absolute name, so a copy
    # loaded under another name draws even where ``splitgame`` cannot load
    pairs, universe = ("AB", "BC"), list("ABCD")
    order = ConstraintSet([certain(a, b) for a, b in pairs], universe=universe)
    expected = _bits(order.sample_realization(5, size=7))
    for name in [n for n in sys.modules if n.partition(".")[0] == "splitgame"]:
        monkeypatch.setitem(sys.modules, name, None)  # import raises
    init = Path(splitgame.__file__)
    spec = importlib.util.spec_from_file_location(
        "splitgame_copy", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "splitgame_copy", package)
    try:
        spec.loader.exec_module(package)
        twin = package.ConstraintSet(
            [package.DominanceConstraint(a, b, 1.0) for a, b in pairs],
            universe=universe,
        )
        assert _bits(twin.sample_realization(5, size=7)) == expected
        assert type(twin._sampling_plan()).__module__ == "splitgame_copy.sampling"
    finally:
        for name in [n for n in sys.modules if n.startswith("splitgame_copy.")]:
            del sys.modules[name]


class TestOneReadDraw:
    """Free symbols and chains, no run to walk, within ``_SAMPLE_BATCH``
    values: one read, a sort per chain and one gather through the layout
    the plan keeps for the last row count."""

    @pytest.fixture
    def order(self):
        # a chain of three and two free symbols: 2 + 2 * 3 values per row
        return ConstraintSet(
            [certain("A", "B"), certain("B", "C")], universe=list("ABCDE")
        )

    def test_a_row_reads_free_symbols_once_and_chains_twice(self, order):
        assert order._sampling_plan().stream == 8
        crown = _order([(top, bottom) for top in "AB" for bottom in "CD"])
        assert crown._sampling_plan().stream is None
        crown.sample_realization(0, size=3)
        assert crown._sampling_plan().layout is None

    @pytest.mark.parametrize("size", [None, 0, 1, 5, 6])
    def test_a_block_at_the_bound_reads_once_and_one_row_more_does_not(
        self, order, size
    ):
        rows = 1 if size is None else size
        expected = _bits(reference_sample_realization(order, 3, size))
        with mock.patch.object(sampling, "_SAMPLE_BATCH", 8 * 5):
            assert _bits(order.sample_realization(3, size)) == expected
        layout = order._sampling_plan().layout
        assert (layout is None) == (rows > 5)
        if layout is not None:
            assert layout[0] == rows and layout[1].shape == (5, rows)

    def test_each_row_count_swaps_the_kept_layout_whole(self, order):
        for seed, size in enumerate([3, None, 7, 3, 0, 7]):
            expected = _bits(reference_sample_realization(order, seed, size))
            assert _bits(order.sample_realization(seed, size)) == expected
            rows, layout = order._sampling_plan().layout
            assert rows == (1 if size is None else size) == layout.shape[1]

    def test_threads_drawing_other_row_counts_draw_their_own_values(self, order):
        # the layout is read once and swapped in whole, so a draw never
        # gathers through another row count's layout
        sizes = [1, 3, 7, 3]
        expected = {
            size: _bits(reference_sample_realization(order, size, size))
            for size in sizes
        }
        wrong = []

        def draw(size):
            for _ in range(500):
                if _bits(order.sample_realization(size, size)) != expected[size]:
                    wrong.append(size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(s,)) for s in sizes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def _order_masks(constraints):
    """The sorted names and, per symbol, the bitmask of the symbols that
    must precede it, over the whole set."""
    names = sorted(constraints.symbols)
    bit = {name: i for i, name in enumerate(names)}
    above = [0] * len(names)
    for name in names:
        for lesser in constraints._reach[name]:
            above[bit[lesser]] |= 1 << bit[name]
    return names, above


def _brute_extensions(above, symbols):
    """Every ordering of ``symbols`` (indices into ``above``), from the top,
    in which each symbol comes after all of its ``above`` among them."""
    among = sum(1 << j for j in symbols)
    extensions = []
    for perm in itertools.permutations(symbols):
        placed = 0
        for j in perm:
            if above[j] & among & ~placed:
                break
            placed |= 1 << j
        else:
            extensions.append(perm)
    return extensions


def _walk_law(follow, cumulative):
    """The exact probability of every sequence the lattice walk can produce:
    from each downset, u uniform on [0, 1) picks the first entry of
    ``cumulative`` above u, so entry j is picked with probability
    cumulative[j] - cumulative[j - 1]."""
    k = follow.shape[1]
    law = {}
    stack = [(0, (), 1.0)]
    while stack:
        state, prefix, p = stack.pop()
        if len(prefix) == k:
            law[prefix] = law.get(prefix, 0.0) + p
            continue
        below = 0.0
        for j, reached in enumerate(cumulative[state].tolist()):
            if reached > below:
                stack.append((follow[state, j], prefix + (j,), p * (reached - below)))
            below = reached
    return law


def _all_small_dags():
    """Every labelled DAG on 1 to 4 symbols, as an open set bound to all
    of them."""
    for n in range(1, 5):
        names = [f"S{i}" for i in range(n)]
        arcs = list(itertools.permutations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(arcs)):
            edges = [arc for arc, on in zip(arcs, chosen) if on]
            try:
                yield ConstraintSet(
                    [certain(names[a], names[b]) for a, b in edges],
                    universe=names,
                )
            except InconsistentOrderError:
                continue


class TestSamplerLaw:
    """The sampler's law, computed exactly from its tables: no draws, so no
    variance and no tolerance beyond float rounding."""

    @staticmethod
    def assert_exact_law(constraints):
        names, above = _order_masks(constraints)
        k = len(names)
        extensions = set(_brute_extensions(above, range(k)))
        law = _walk_law(*sampling._lattice(above))
        for perm in itertools.permutations(range(k)):
            want = 1.0 / len(extensions) if perm in extensions else 0.0
            assert abs(law.get(perm, 0.0) - want) <= 1e-12, (perm, want)
        # so nothing but a permutation is ever produced
        assert abs(sum(law.values()) - 1.0) <= 1e-12

    @staticmethod
    def assert_plan_classifies_chains(constraints):
        names, above = _order_masks(constraints)
        _, _, walks = constraints._sampling_plan()
        for members, lattice in walks:
            if lattice is None:  # a chain, from the top
                extensions = _brute_extensions(above, members.tolist())
                assert extensions == [tuple(members.tolist())]
                continue
            for row in members.tolist():  # each component of the run
                assert len(_brute_extensions(above, row)) > 1

    def test_every_dag_up_to_four_symbols(self):
        count = 0
        for constraints in _all_small_dags():
            self.assert_exact_law(constraints)
            self.assert_plan_classifies_chains(constraints)
            count += 1
        # labelled DAGs on 1, 2, 3 and 4 nodes (OEIS A003024)
        assert count == 1 + 3 + 25 + 543

    @settings(max_examples=25, deadline=None)
    @given(constraints=dag_orders().filter(lambda c: len(c.symbols) <= 7))
    def test_drawn_orders_up_to_seven_symbols(self, constraints):
        self.assert_exact_law(constraints)
        self.assert_plan_classifies_chains(constraints)


@st.composite
def chain_and_crown_orders(draw):
    """Disjoint chains of 2 to 9 symbols, 2+2 crowns (two symbols each
    above the same two) and free symbols, under shuffled names."""
    chains = draw(st.lists(st.integers(2, 9), max_size=3))
    crowns = draw(st.integers(0, 2))
    free = draw(st.integers(0, 4))
    n = sum(chains) + 4 * crowns + free
    if n == 0:
        return ConstraintSet([])
    names = draw(st.permutations([f"S{i}" for i in range(n)]))
    pairs, at = [], 0
    for length in chains:
        pairs += [(at + i, at + i + 1) for i in range(length - 1)]
        at += length
    for _ in range(crowns):
        pairs += [(at + top, at + bottom) for top in (0, 1) for bottom in (2, 3)]
        at += 4
    draw(st.randoms()).shuffle(pairs)
    return ConstraintSet(
        [certain(names[a], names[b]) for a, b in pairs], universe=names
    )


@settings(max_examples=80, deadline=None)
@given(
    constraints=chain_and_crown_orders(),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(0, 2**16),
    size=st.sampled_from([None, 0, 1]) | st.integers(2, 40),
)
def test_chains_and_crowns_draw_bit_identical_values(
    constraints, seed, block, size
):
    expected = _bits(reference_sample_realization(constraints, [seed, block], size))
    assert _bits(constraints.sample_realization([seed, block], size)) == expected
    assert _bits(constraints.sample_realization([seed, block], size)) == expected


@st.composite
def adjacent_crowns(draw):
    """1 to 4 2+2 crowns of one local order, named in order, perhaps a
    chain of 2 to 4 symbols between two of them, and free symbols anywhere;
    with the number of crowns in each run the chain leaves."""
    crowns = draw(st.integers(1, 4))
    cut = draw(st.none() | st.integers(1, crowns - 1)) if crowns > 1 else None
    parts = [("crown", 4)] * crowns
    if cut is not None:
        parts.insert(cut, ("chain", draw(st.integers(2, 4))))
    for _ in range(draw(st.integers(0, 2))):
        parts.insert(draw(st.integers(0, len(parts))), ("free", 1))
    pairs, at = [], 0
    for kind, width in parts:
        if kind == "crown":
            pairs += [(at + top, at + bottom) for top in (0, 1) for bottom in (2, 3)]
        elif kind == "chain":
            pairs += [(at + i, at + i + 1) for i in range(width - 1)]
        at += width
    names = [f"S{i:02d}" for i in range(at)]
    order = ConstraintSet(
        [certain(names[a], names[b]) for a, b in pairs], universe=names
    )
    runs = [crowns] if cut is None else [cut, crowns - cut]
    return order, runs


@settings(max_examples=80, deadline=None)
@given(
    drawn=adjacent_crowns(),
    per=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([None, 0, 1]) | st.integers(2, 40),
)
def test_batched_crowns_draw_bit_identical_values(drawn, per, seed, size):
    # a batch bound that fits ``per`` crowns, so batches of one, of two and
    # of a whole run are all drawn, each from its place in the stream
    order, runs = drawn
    rows = 1 if size is None else size
    batches = []
    place = sampling._place

    def recording(values, block, *rest):
        batches.append(len(block))
        return place(values, block, *rest)

    expected = _bits(reference_sample_realization(order, seed, size))
    bound = per * 4 * max(rows, 1)
    with mock.patch.object(sampling, "_SAMPLE_BATCH", bound), \
            mock.patch.object(sampling, "_place", recording):
        assert _bits(order.sample_realization(seed, size)) == expected
    _, _, walks = order._sampling_plan()
    assert [len(members) for members, pick in walks if pick is not None] == runs
    per = per if rows else 4  # no rows: a bound of 4 * per fits every run
    assert batches == [
        min(per, run - start) for run in runs for start in range(0, run, per)
    ]


def zigzag_fence():
    """T0 > B0 < T1 > B1 < T2 > B2 < T3 > B3: 8 symbols with 1385 linear
    extensions (the Euler zigzag number E8), too many for a table."""
    pairs = [(f"T{i}", f"B{i}") for i in range(4)]
    pairs += [(f"T{i + 1}", f"B{i}") for i in range(3)]
    return ConstraintSet([certain(top, bottom) for top, bottom in pairs])


class TestChainsAreNotWalked:
    @pytest.fixture
    def walks(self, monkeypatch):
        """The number of lattice walks so far, in a one-item list."""
        calls = [0]
        walk = sampling._linear_extensions

        def counting(*args):
            calls[0] += 1
            return walk(*args)

        monkeypatch.setattr(sampling, "_linear_extensions", counting)
        return calls

    def test_tight_shaped_order_walks_nothing(self, walks):
        row = [f"R{i}" for i in range(7)]
        col = [f"K{i}" for i in range(3)]
        order = ConstraintSet(
            [certain(a, b) for chain in (row, col) for a, b in zip(chain, chain[1:])],
            universe=row + col + [f"F{i}" for i in range(8)],
        )
        for seed in range(3):
            order.sample_realization([seed, 0], size=4)
            order.sample_realization(seed)
        assert walks == [0]

    def test_only_components_whose_table_passes_the_row_bound_are_walked(
        self, walks, ipd_constraints
    ):
        # the IPD crowns share one 4-row table, filled by one walk of its
        # rows, and pick from it
        for seed in range(3):
            ipd_constraints.sample_realization([seed, 0], size=4)
        assert walks == [1]
        # the fence's table would have 75,600 rows: no table, a walk a draw
        fence = zigzag_fence()
        for calls, seed in enumerate(range(3), start=2):
            fence.sample_realization([seed, 0], size=4)
            assert walks == [calls]


@st.composite
def walked_lattices(draw):
    """The ``_lattice`` tables of a random order on up to 8 symbols, and
    (k, rows, 1) uniforms mixing the tables' own shares below 1 (exact
    ties with a cumulative entry), 0.0, the largest double below 1 and
    plain uniforms."""
    k = draw(st.integers(1, 8))
    rank = draw(st.permutations(range(k)))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    # above[j]: every symbol that must precede j, closed transitively
    above = [0] * k
    for i, j in sorted(edges):
        above[rank[j]] |= 1 << rank[i] | above[rank[i]]
    follow, cumulative = _lattice(above)
    ties = {float(x) for x in cumulative.ravel() if x < 1.0}
    uniform = st.one_of(
        st.sampled_from(sorted(ties | {0.0})),
        st.just(float(np.nextafter(1.0, 0.0))),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    rows = draw(st.integers(1, 6))
    u = np.array(draw(st.lists(uniform, min_size=k * rows, max_size=k * rows)))
    return above, follow, cumulative, u.reshape(k, rows, 1)


class TestWalk:
    @settings(max_examples=300, deadline=None)
    @given(walked_lattices())
    def test_matches_the_row_by_row_walk(self, drawn):
        above, follow, cumulative, u = drawn
        order = _linear_extensions(follow, cumulative, u)
        assert order.dtype == np.intp
        assert np.array_equal(order, python_walk(follow, cumulative, u))
        for extension in order.T.tolist():
            assert sorted(extension) == list(range(len(above)))
            placed = 0
            for symbol in extension:
                assert above[symbol] & ~placed == 0
                placed |= 1 << symbol


def columns_of(order):
    """The placement a (k, rows) walk ``order`` (each depth's symbol, from
    the top) gives: per row, each symbol's column in the row's ascending
    draws, which is the inverse of the order read from the bottom."""
    return order[::-1].T.argsort(axis=1)


class TestExtensionTable:
    @staticmethod
    def table(follow, cumulative):
        """The order's picker if it picks from a table, None if it walks."""
        pick = _extension_picker(follow, cumulative)
        with mock.patch.object(
            sampling, "_linear_extensions", wraps=_linear_extensions
        ) as walk:
            pick(np.zeros((follow.shape[1], 1, 1)))
        return None if walk.called else pick

    @settings(max_examples=300, deadline=None)
    @given(walked_lattices())
    def test_picks_match_the_walk(self, drawn):
        # ties with the tables' own shares, 0.0 and the largest double
        # below 1 included
        above, follow, cumulative, u = drawn
        assume(len(above) > 1)
        pick = self.table(follow, cumulative)
        assume(pick is not None)
        cols = pick(u)
        assert cols.dtype == np.intp
        expected = columns_of(_linear_extensions(follow, cumulative, u))
        assert np.array_equal(cols, expected)

    def test_a_table_holds_at_most_its_row_bound(self):
        # a chain beside one free symbol has two gaps at each depth of the
        # chain, so 2**length rows: a length at the bound fills a table, one
        # more walks
        def chain_and_one(length):
            return _lattice([(1 << j) - 1 for j in range(length)] + [0])

        length = sampling._TABLE_ROWS.bit_length() - 1
        assert 2**length == sampling._TABLE_ROWS
        assert self.table(*chain_and_one(length + 1)) is None
        follow, cumulative = chain_and_one(length)
        u = np.random.default_rng(0).random((length + 1, 4096, 1))
        cols = self.table(follow, cumulative)(u)
        expected = columns_of(_linear_extensions(follow, cumulative, u))
        assert np.array_equal(cols, expected)
        assert len({tuple(row) for row in cols.tolist()}) == length + 1

    @pytest.mark.parametrize("tops, bottoms, extensions", [
        (2, 2, 4), (3, 3, 36), (3, 4, 144),
    ], ids=["crown_2+2", "three_above_three", "three_above_four"])
    def test_every_top_above_every_bottom_picks_from_a_table(
        self, tops, bottoms, extensions
    ):
        # each of the tops! * bottoms! extensions is picked, as the walk
        # picks it, ties with the tables' own shares included
        k = tops + bottoms
        follow, cumulative = _lattice([0] * tops + [(1 << tops) - 1] * bottoms)
        pick = self.table(follow, cumulative)
        assert pick is not None
        rng = np.random.default_rng(1)
        u = rng.random((k, 20000, 1))
        ties = np.array(sorted({0.0, *cumulative[cumulative < 1.0].tolist()}))
        tied = rng.random(u.shape) < 0.25
        u[tied] = rng.choice(ties, int(tied.sum()))
        cols = pick(u)
        assert np.array_equal(cols, columns_of(_linear_extensions(follow, cumulative, u)))
        assert len({tuple(row) for row in cols.tolist()}) == extensions

    @settings(max_examples=300, deadline=None)
    @given(walked_lattices())
    def test_every_placement_is_a_permutation_honoring_the_order(self, drawn):
        # a table's or a walk's: each row places the k symbols in k distinct
        # columns, every symbol above those that must precede it
        above, follow, cumulative, u = drawn
        assume(len(above) > 1)
        cols = _extension_picker(follow, cumulative)(u)
        k = len(above)
        assert cols.shape == (u.shape[1], k)
        for row in cols.tolist():
            assert sorted(row) == list(range(k))
            for j, before in enumerate(above):
                assert all(row[i] > row[j] for i in range(k) if before >> i & 1)


class TestCheckInteger:
    """Plain ints take a fast path; every other value is judged, and
    named in its message, as before."""

    class Count(int):
        pass

    class Level(enum.IntEnum):
        HIGH = 3

    @pytest.mark.parametrize(
        "value, message",
        [
            (0, None),
            (2**70, None),
            (np.int64(3), None),
            (np.uint8(3), None),
            (Count(3), None),
            (Level.HIGH, None),
            (True, "n must be an integer, got True"),
            (np.bool_(True), f"n must be an integer, got {np.bool_(True)!r}"),
            (1.0, "n must be an integer, got 1.0"),
            ("1", "n must be an integer, got '1'"),
            (-1, "n must be >= 0, got -1"),
            (Count(-1), "n must be >= 0, got -1"),
            (2**70 + 1, "n must be <= 1180591620717411303424"),
        ],
        ids=repr,
    )
    def test_table(self, value, message):
        if message is None:
            check_integer("n", value, 0, 2**70)
            return
        with pytest.raises(ValidationError) as error:
            check_integer("n", value, 0, 2**70)
        assert str(error.value) == message


class TestSamplingMemory:
    """One call of 10^6 values holds little beyond the values it returns:
    the generator is read part by part, so no part's uniforms outlive it."""

    def _peak_share(self, order):
        size = 10**6 // len(order.symbols)
        order.sample_realization(0, size=2)  # builds and keeps the plan
        tracemalloc.start()
        try:
            values = order.sample_realization(0, size=size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / sum(column.nbytes for column in values.values())

    def test_ipd_order(self, ipd_constraints):
        assert self._peak_share(ipd_constraints) <= 4.5

    def test_chains_and_free_symbols(self):
        row = [f"R{i}" for i in range(7)]
        col = [f"K{i}" for i in range(3)]
        order = ConstraintSet(
            [certain(a, b) for chain in (row, col) for a, b in zip(chain, chain[1:])],
            universe=row + col + [f"F{i}" for i in range(8)],
        )
        assert self._peak_share(order) <= 2.5

    def test_four_adjacent_crowns(self):
        # one local order, so one run; at 10^6 values each crown is a batch
        # of its own, and a batch's read is gone before the next one's
        order = _order(
            [(f"{p}{t}", f"{p}{b}") for p in "ABCD" for t in "01" for b in "23"]
        )
        assert self._peak_share(order) <= 3.0

    def test_three_above_three(self):
        # 36 extensions, all in one table: a pick takes memory per row that
        # does not grow with the number of extensions
        order = ConstraintSet(
            [certain(f"T{i}", f"B{j}") for i in range(3) for j in range(3)]
        )
        assert self._peak_share(order) <= 6.0
