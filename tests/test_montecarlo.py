import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loop_pure_nash, reference_numeric_pure_nash
from splitgame import montecarlo
from splitgame import (
    CellCoord,
    ConstraintSet,
    DominanceConstraint,
    NumericOrder,
    OrdinalGame,
    SimulationConfig,
    SimulationDefaults,
    UnknownSymbolError,
    ValidationError,
    Disagreement,
    ipd_scenario,
    numeric_pure_nash,
    pure_nash,
    simulate_selection,
    verify_nash_numeric,
)


@st.composite
def tied_numeric_games(draw):
    """A 2x2, 2x3, 3x2 or 3x3 game with 1-3 rows of payoff values per
    symbol, drawn from a small set so ties and infinities are common."""
    n_rows, n_cols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    game = OrdinalGame.from_ids(
        [f"r{i}" for i in range(n_rows)],
        [f"c{j}" for j in range(n_cols)],
        [[(f"R{i}{j}", f"C{i}{j}") for j in range(n_cols)] for i in range(n_rows)],
    )
    size = draw(st.integers(1, 3))
    value = st.sampled_from([-math.inf, -1.0, 0.0, 1.0, math.inf])
    values = {
        sym: draw(st.lists(value, min_size=size, max_size=size))
        for sym in sorted(game.symbol_ids())
    }
    return game, values, size


def three_sigma(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


monte_carlo_entry_points = pytest.mark.parametrize(
    "entry",
    [
        lambda trials=1, seed=1: SimulationConfig(
            trials=trials, seed=seed, p_em12=0.5, p_pf21=0.5
        ),
        lambda trials=1, seed=1, ipd=ipd_scenario(): verify_nash_numeric(
            ipd.game, ipd.constraints, trials, seed
        ),
        lambda trials=1, seed=1: SimulationDefaults(trials=trials, seed=seed),
    ],
    ids=["SimulationConfig", "verify_nash_numeric", "SimulationDefaults"],
)


@monte_carlo_entry_points
def test_trials_must_be_a_positive_integer(entry):
    for bad in (2.5, 2.0, 0, -3, True):
        with pytest.raises(ValidationError, match=repr(bad)):
            entry(bad)
    entry(np.int64(2))


@monte_carlo_entry_points
def test_trials_above_the_cap_are_rejected(entry):
    # one past the cap, and counts that would run until killed
    for bad in (montecarlo.MAX_TRIALS + 1, 10**23, 10**30, 10**5000):
        with pytest.raises(ValidationError) as exc:
            entry(bad)
        assert str(exc.value) == "trials must be <= 100000000"
    montecarlo.check_trials(montecarlo.MAX_TRIALS)


@monte_carlo_entry_points
def test_integers_past_the_digit_limit_are_rejected(entry):
    # repr raises on an int of more than 4300 digits, so it is not shown
    with pytest.raises(ValidationError) as exc:
        entry(seed=-(10**5000))
    assert str(exc.value) == "seed must be >= 0, got a number too long to print"
    with pytest.raises(ValidationError) as exc:
        entry(-(10**5000))
    assert str(exc.value) == (
        "trials must be >= 1, got a number too long to print"
    )


@monte_carlo_entry_points
def test_seed_must_be_a_non_negative_integer(entry):
    for bad in (2.5, 2.0, -1, "7", True, False):
        with pytest.raises(ValidationError, match=repr(bad)):
            entry(seed=bad)
    entry(seed=0)
    entry(seed=np.int64(2))


@pytest.fixture(autouse=True)
def _cold_check_plans():
    # verify_nash_numeric keeps its check plans for the whole process; a
    # test that substitutes pure_nash must not be served a plan an earlier
    # test built with the real one
    montecarlo._check_plan.cache_clear()


class TestSimulateSelection:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SimulationConfig(trials=0, seed=1, p_em12=0.5, p_pf21=0.5)
        with pytest.raises(ValidationError):
            SimulationConfig(trials=10, seed=1, p_em12=1.5, p_pf21=0.5)

    def test_degenerate_bernoullis(self):
        config = SimulationConfig(trials=1000, seed=3, p_em12=0.0, p_pf21=1.0)
        result = simulate_selection(config)
        assert result.freq_cell_22 == 1.0
        assert result.freq_cell_11 == 0.0
        assert result.freq_indeterminate == 0.0

    def test_single_trial_frequencies_are_indicator_values(self):
        config = SimulationConfig(trials=1, seed=5, p_em12=0.5, p_pf21=0.5)
        result = simulate_selection(config)
        for freq in (
            result.freq_cell_11,
            result.freq_cell_22,
            result.freq_indeterminate,
        ):
            assert freq in (0.0, 1.0)

    def test_reproducible_bit_for_bit(self):
        config = SimulationConfig(
            trials=10_000, seed=11, p_em12=0.3, p_pf21=0.7
        )
        assert simulate_selection(config) == simulate_selection(config)
        other = SimulationConfig(trials=10_000, seed=12, p_em12=0.3, p_pf21=0.7)
        assert simulate_selection(config) != simulate_selection(other)

    def test_supremum_frequency_within_three_sigma(self):
        config = SimulationConfig(
            trials=1_000_000, seed=8, p_em12=0.3090, p_pf21=1.0
        )
        result = simulate_selection(config)
        assert abs(result.freq_cell_22 - 0.6910) <= three_sigma(0.6910, config.trials)
        assert result.freq_cell_11 == 0.0

    def test_balanced_probabilities_within_three_sigma(self):
        config = SimulationConfig(
            trials=1_000_000, seed=21, p_em12=0.5, p_pf21=0.5
        )
        result = simulate_selection(config)
        assert abs(result.freq_cell_11 - 0.25) <= three_sigma(0.25, config.trials)
        assert abs(result.freq_cell_22 - 0.25) <= three_sigma(0.25, config.trials)
        assert abs(result.freq_indeterminate - 0.5) <= three_sigma(
            0.5, config.trials
        )

    def test_frequencies_sum_to_one(self):
        config = SimulationConfig(trials=9_999, seed=2, p_em12=0.4, p_pf21=0.2)
        result = simulate_selection(config)
        total = (
            result.freq_cell_11 + result.freq_cell_22 + result.freq_indeterminate
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("trials", [1, 6, 7, 8, 50, 1001])
    def test_blocks_reproduce_one_stream(self, trials, monkeypatch):
        # one default_rng(seed) stream: trials em uniforms, then trials pf
        # uniforms, tallied in a single pass
        config = SimulationConfig(
            trials=trials, seed=13, p_em12=0.4, p_pf21=0.3
        )
        rng = np.random.default_rng(config.seed)
        em = rng.random(trials) < config.p_em12
        pf = rng.random(trials) < config.p_pf21
        n11 = int(np.count_nonzero(em & ~pf))
        n22 = int(np.count_nonzero(pf & ~em))
        monkeypatch.setattr(montecarlo, "SIMULATE_BLOCK", 7)
        result = simulate_selection(config)
        assert result.freq_cell_11 == n11 / trials
        assert result.freq_cell_22 == n22 / trials
        assert result.freq_indeterminate == (trials - n11 - n22) / trials

    def test_result_records_generator_and_error(self):
        config = SimulationConfig(trials=400, seed=0, p_em12=0.5, p_pf21=0.5)
        result = simulate_selection(config)
        assert result.algorithm == "pcg64"
        assert result.standard_error == 0.5 / math.sqrt(400)
        assert result.trials == 400 and result.seed == 0


class TestNumericPureNash:
    def test_dominant_strategy_game(self):
        game = OrdinalGame.from_ids(
            ["hold", "defect"],
            ["hold", "defect"],
            [[("R00", "C00"), ("R01", "C01")], [("R10", "C10"), ("R11", "C11")]],
        )
        values = {
            "R00": 3, "R01": 0, "R10": 4, "R11": 1,
            "C00": 3, "C01": 4, "C10": 0, "C11": 1,
        }
        assert numeric_pure_nash(game, values) == {CellCoord(1, 1)}

    def test_matching_pennies(self):
        game = OrdinalGame.from_ids(
            ["h", "t"],
            ["h", "t"],
            [[("R00", "C00"), ("R01", "C01")], [("R10", "C10"), ("R11", "C11")]],
        )
        values = {
            "R00": 1, "R01": 0, "R10": 0, "R11": 1,
            "C00": 0, "C01": 1, "C10": 1, "C11": 0,
        }
        assert numeric_pure_nash(game, values) == set()

    def test_agrees_with_symbolic_on_numeric_order(self):
        import random

        rng = random.Random(31)
        for _ in range(300):
            n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
            game = OrdinalGame.from_ids(
                [f"r{i}" for i in range(n_rows)],
                [f"c{j}" for j in range(n_cols)],
                [
                    [(f"R{i}_{j}", f"C{i}_{j}") for j in range(n_cols)]
                    for i in range(n_rows)
                ],
            )
            values = {sym: rng.random() for sym in game.symbol_ids()}
            symbolic, undecided = pure_nash(game, NumericOrder(values))
            assert undecided == frozenset()
            assert set(symbolic) == numeric_pure_nash(game, values)

    @settings(max_examples=200, deadline=None)
    @given(tied_numeric_games())
    def test_paths_agree_on_ties_and_infinities(self, drawn):
        game, values, size = drawn
        rows = [{sym: draws[t] for sym, draws in values.items()} for t in range(size)]
        mask = numeric_pure_nash(
            game, {sym: np.array(draws) for sym, draws in values.items()}
        )
        for row, row_mask in zip(rows, mask):
            symbolic, undecided = pure_nash(game, NumericOrder(row))
            assert undecided == frozenset()
            assert numeric_pure_nash(game, row) == set(symbolic)
            cells = {CellCoord(int(r), int(c)) for r, c in zip(*np.nonzero(row_mask))}
            assert cells == set(symbolic)

    @settings(max_examples=100, deadline=None)
    @given(tied_numeric_games(), st.data())
    def test_nan_raises_on_both_paths(self, drawn, data):
        game, values, _ = drawn
        symbol = data.draw(st.sampled_from(sorted(values)))
        values[symbol][-1] = math.nan
        row = {sym: draws[-1] for sym, draws in values.items()}
        arrays = {sym: np.array(draws) for sym, draws in values.items()}
        for check in (
            lambda: NumericOrder(row),
            lambda: numeric_pure_nash(game, row),
            lambda: numeric_pure_nash(game, arrays),
        ):
            with pytest.raises(ValidationError, match=f"symbol {symbol!r} is NaN"):
                check()


class TestVerifyNashNumeric:
    def test_shipped_game_never_disagrees(self, ipd_game, ipd_constraints):
        verification = verify_nash_numeric(
            ipd_game, ipd_constraints, trials=1000, seed=2024
        )
        assert verification.ok
        assert verification.disagreements == ()
        assert verification.trials == 1000
        assert set(verification.symbolic_equilibria) == {
            CellCoord(0, 0),
            CellCoord(1, 1),
        }
        # all four cells are symbolically decided, so each trial checks four
        assert verification.checked_cells == 4 * 1000

    def test_unconstrained_game_is_vacuously_consistent(self):
        game = OrdinalGame.from_ids(
            ["a", "b"],
            ["x", "y"],
            [[("R00", "C00"), ("R01", "C01")], [("R10", "C10"), ("R11", "C11")]],
        )
        free = ConstraintSet([], universe=game.symbol_ids())
        verification = verify_nash_numeric(game, free, trials=50, seed=1)
        assert verification.ok
        assert verification.checked_cells == 0
        assert len(verification.symbolic_undecided) == 4

    def test_totally_ordered_game_is_always_identical(self):
        game = OrdinalGame.from_ids(
            ["a", "b"],
            ["x", "y"],
            [[("R00", "C00"), ("R01", "C01")], [("R10", "C10"), ("R11", "C11")]],
        )
        constraints = ConstraintSet(
            [
                DominanceConstraint("R00", "R10", 1.0),
                DominanceConstraint("R11", "R01", 1.0),
                DominanceConstraint("C00", "C01", 1.0),
                DominanceConstraint("C11", "C10", 1.0),
            ]
        )
        symbolic, undecided = pure_nash(game, constraints)
        assert undecided == frozenset()
        verification = verify_nash_numeric(game, constraints, trials=200, seed=9)
        assert verification.ok
        for trial in range(200):
            values = constraints.sample_realization([9, trial])
            assert numeric_pure_nash(game, values) == set(symbolic)


class TestCheckPlan:
    def test_one_pure_nash_per_game_and_order(self, monkeypatch, ipd):
        calls = []
        solve = montecarlo.pure_nash

        def counting(game, order):
            calls.append(order)
            return solve(game, order)

        monkeypatch.setattr(montecarlo, "pure_nash", counting)
        game, order = ipd.game, ipd.constraints
        first = verify_nash_numeric(game, order, 200, seed=1)
        assert verify_nash_numeric(game, order, 200, seed=1) == first
        # an equal set has the same Nash set, so it shares the plan
        equal = ConstraintSet(order.constraints, universe=order.universe)
        assert verify_nash_numeric(game, equal, 200, seed=1) == first
        assert calls == [order]
        weaker = ConstraintSet(
            [c for c in order.constraints if c.group is None],
            universe=order.universe,
        )
        verify_nash_numeric(game, weaker, 200, seed=1)
        assert calls == [order, weaker]


def _free_game(n_rows, n_cols):
    return OrdinalGame.from_ids(
        [f"r{i}" for i in range(n_rows)],
        [f"c{j}" for j in range(n_cols)],
        [
            [(f"R{i}{j}", f"C{i}{j}") for j in range(n_cols)]
            for i in range(n_rows)
        ],
    )


class TestBatchedScan:
    def test_array_scan_matches_scalar_scan_per_row(self):
        # small integer payoffs make ties common, where ">=" against the
        # max must behave exactly like the loop's "no strictly better
        # deviation"
        rng = np.random.default_rng(17)
        for _ in range(200):
            game = _free_game(*rng.integers(1, 4, size=2))
            size = int(rng.integers(1, 12))
            values = {
                sym: rng.integers(0, 3, size=size).astype(float)
                for sym in game.symbol_ids()
            }
            mask = numeric_pure_nash(game, values)
            assert mask.shape == (size, game.n_rows, game.n_cols)
            assert mask.dtype == bool
            for i in range(size):
                row = {sym: float(v[i]) for sym, v in values.items()}
                cells = {CellCoord(int(r), int(c)) for r, c in zip(*np.nonzero(mask[i]))}
                assert cells == numeric_pure_nash(game, row)
                assert cells == loop_pure_nash(game, row)

    def test_disagreements_match_per_trial_scalar_reference(self, monkeypatch):
        # a symbolic solver that wrongly claims (0, 0) an equilibrium and
        # (0, 1), (1, 0) decided non-equilibria; numerically every cell of
        # an unconstrained game comes and goes, so both kinds appear
        game = _free_game(2, 2)
        free = ConstraintSet([], universe=game.symbol_ids())
        claimed = frozenset({CellCoord(0, 0)})
        undecided = frozenset({CellCoord(1, 1)})
        monkeypatch.setattr(
            montecarlo, "pure_nash", lambda game, order: (claimed, undecided)
        )
        trials, seed = 4096 + 300, 5
        verification = verify_nash_numeric(game, free, trials, seed)

        reference = []
        for block, first in enumerate((0, 4096)):
            size = min(4096, trials - first)
            values = free.sample_realization([seed, block], size=size)
            for i in range(size):
                numeric = numeric_pure_nash(
                    game, {sym: float(v[i]) for sym, v in values.items()}
                )
                if CellCoord(0, 0) not in numeric:
                    reference.append(
                        Disagreement(first + i, CellCoord(0, 0), "equilibrium_failed")
                    )
                for cell in (CellCoord(0, 1), CellCoord(1, 0)):
                    if cell in numeric:
                        reference.append(
                            Disagreement(first + i, cell, "non_equilibrium_appeared")
                        )
        assert {d.kind for d in reference} == {
            "equilibrium_failed",
            "non_equilibrium_appeared",
        }
        assert max(d.trial for d in reference) >= 4096
        assert verification.disagreements == tuple(reference)
        assert verification.checked_cells == 3 * trials

    def test_one_sampler_and_scan_call_per_block(
        self, monkeypatch, ipd_game, ipd_constraints
    ):
        sizes, scans = [], []
        sample = ConstraintSet.sample_realization
        scan = montecarlo.numeric_pure_nash

        def counting_sample(self, seed, size=None):
            sizes.append(size)
            return sample(self, seed, size)

        def counting_scan(game, values):
            scans.append(1)
            return scan(game, values)

        monkeypatch.setattr(ConstraintSet, "sample_realization", counting_sample)
        monkeypatch.setattr(montecarlo, "numeric_pure_nash", counting_scan)
        trials = 2 * 4096 + 7
        verification = verify_nash_numeric(
            ipd_game, ipd_constraints, trials, seed=3
        )
        assert sizes == [4096, 4096, 7]
        assert len(scans) == 3
        assert verification.ok
        assert verification.checked_cells == 4 * trials


    @pytest.mark.parametrize("odd", ["EM11", "PF22"])  # read first, last
    @pytest.mark.parametrize(
        "odd_value, value",
        [(np.zeros(2), np.zeros(3)), (1.0, np.zeros(3)), (np.zeros(3), 1.0)],
        ids=["ragged", "scalar_beside_arrays", "array_beside_scalars"],
    )
    def test_mixed_value_shapes_are_a_validation_error(
        self, ipd_game, odd, odd_value, value
    ):
        values = {symbol: value for symbol in ipd_game.symbol_ids()}
        values[odd] = odd_value
        with pytest.raises(
            ValidationError,
            match="^numeric values must be all scalars or all arrays of one shape$",
        ):
            numeric_pure_nash(ipd_game, values)


_SCAN_VALUES = [-math.inf, -1.0, 0.0, 1, 2, math.inf]


@st.composite
def scan_inputs(draw):
    """A 1-3 x 1-3 game and its values, each a Python number, a numpy
    scalar or a 1-D array of 0-3 rows, drawn from a small set with ints,
    ties and infinities; some symbols may then be missing or NaN."""
    game = _free_game(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    symbols = sorted(game.symbol_ids())
    kind = draw(st.sampled_from(["python", "numpy", "array"]))
    size = draw(st.integers(0, 3))
    values = {}
    for symbol in symbols:
        if kind == "array":
            row = st.sampled_from(_SCAN_VALUES)
            values[symbol] = np.array(
                draw(st.lists(row, min_size=size, max_size=size))
            )
        else:
            value = draw(st.sampled_from(_SCAN_VALUES))
            if kind == "numpy":
                value = (np.float64 if isinstance(value, float) else np.int64)(value)
            values[symbol] = value
    damage = draw(st.sampled_from([None, "missing", "nan"]))
    hit = draw(st.lists(st.sampled_from(symbols), min_size=1, unique=True))
    for symbol in hit if damage else ():
        if damage == "missing":
            del values[symbol]
        elif kind == "array":
            values[symbol] = values[symbol].astype(float)
            values[symbol][-1:] = math.nan
        else:
            values[symbol] = math.nan if kind == "python" else np.float64(math.nan)
    return game, values


def _scan_outcome(scan, game, values):
    try:
        return scan(game, values)
    except (UnknownSymbolError, ValidationError) as error:
        return type(error), str(error)


class TestScanMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(scan_inputs())
    def test_same_cells_mask_or_error(self, drawn):
        game, values = drawn
        got = _scan_outcome(numeric_pure_nash, game, values)
        want = _scan_outcome(reference_numeric_pure_nash, game, values)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.array_equal(got, want)
        else:
            assert got == want


class TestMissingSymbol:
    """A value map that lacks a game symbol raises what ``NumericOrder``
    raises for it, on every path that scans one."""

    def test_scalar_values(self, ipd_game):
        values = {symbol: 1.0 for symbol in ipd_game.symbol_ids()}
        del values["EM11"]
        with pytest.raises(UnknownSymbolError) as symbolic:
            pure_nash(ipd_game, NumericOrder(values))
        for partial in (values, {}):
            with pytest.raises(UnknownSymbolError) as numeric:
                numeric_pure_nash(ipd_game, partial)
            assert str(numeric.value) == str(symbolic.value)
            assert str(numeric.value) == "no numeric value for symbol 'EM11'"

    def test_array_values(self, ipd_game):
        values = {symbol: np.zeros(3) for symbol in ipd_game.symbol_ids()}
        del values["PF22"]
        with pytest.raises(
            UnknownSymbolError, match="^no numeric value for symbol 'PF22'$"
        ):
            numeric_pure_nash(ipd_game, values)

    def test_order_not_covering_the_game(self, ipd_game):
        with pytest.raises(
            UnknownSymbolError, match="^no numeric value for symbol 'EM11'$"
        ):
            verify_nash_numeric(ipd_game, ConstraintSet([]), 10, 0)
