"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS/FAIL lines as they happen). Every check pins the tolerance it claims.
"""
import math
import time

import numpy as np
import pytest

from splitgame import (
    EventSpace,
    Mode,
    NumericOrder,
    OrdinalGame,
    SimulationConfig,
    SurveyResponse,
    fixed_point_posterior,
    gaussian_tail,
    ipd_scenario,
    numeric_pure_nash,
    published_coefficient,
    pure_nash,
    score_factor,
    score_response,
    simulate_selection,
    solve,
    verify_nash_numeric,
)
from splitgame.solver import Case
from splitgame.survey import CHOICES, POSITIVE, canonical_instrument

from conftest import quad_tail


def _report(number: int, label: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"acceptance criterion {number} ({label}): FAIL", flush=True)
        raise
    print(f"acceptance criterion {number} ({label}): PASS", flush=True)


def test_criterion_1_equilibrium_reproduction():
    def check():
        scenario = ipd_scenario()
        game, order = scenario.game, scenario.constraints
        equilibria, undecided = pure_nash(game, order)  # warm path
        elapsed = min(
            _timed(lambda: pure_nash(game, order)) for _ in range(5)
        )
        assert equilibria == {(0, 0), (1, 1)}
        assert undecided == frozenset()
        assert elapsed < 1e-3, f"pure_nash took {elapsed:.2e}s"

    _report(1, "shipped-scenario equilibria", check)


def test_criterion_2_fixed_point_posterior():
    def check():
        start = time.perf_counter()
        uniform = EventSpace.uniform(("e1", "e2", "e3"))
        assert fixed_point_posterior(uniform, (1, 2)) == 1.0 / 3.0

        rng = np.random.default_rng(12021)
        for _ in range(1000):
            size = int(rng.integers(2, 7))
            prior = rng.dirichlet(np.ones(size))
            prior = (prior + 0.005) / (1.0 + 0.005 * size)
            space = EventSpace(
                tuple(f"e{k}" for k in range(size)),
                tuple(float(p) for p in prior),
            )
            star = int(rng.integers(0, size))
            rest = tuple(k for k in range(size) if k != star)
            alpha = fixed_point_posterior(space, rest)
            assert abs(alpha - space.prior[star]) <= 1e-12
        assert time.perf_counter() - start < 1.0

    _report(2, "evidence leaves the distinguished prior unchanged", check)


def test_criterion_3_published_mode_caps():
    def check():
        weights = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        for r in weights:
            for s in weights:
                weak = solve(ipd_scenario(r=r, s=s))
                assert abs(weak.p_em12 - 0.3090 * r) <= 1e-12
                assert abs(weak.p_pf21 - 0.2999 * s) <= 1e-12
                assert weak.p_em12 < 0.31
                assert weak.p_pf21 < 0.30
                assert weak.p_cell_11 <= 0.3090 + 1e-12
                assert weak.p_cell_22 <= 0.2999 + 1e-12

                strong = solve(ipd_scenario(case=Case.STRONG_EVIDENCE, r=r, s=s))
                assert strong.p_pf21 == 1.0
                assert abs(strong.p_cell_22 - (1.0 - 0.3090 * r)) <= 1e-12
                assert strong.p_cell_22 > 0.69

        bounds = solve(ipd_scenario()).bounds
        assert abs(bounds["p_em12_cap"] - 0.3090) <= 1e-12
        assert abs(bounds["p_pf21_weak_cap"] - 0.2999) <= 1e-12
        assert abs(bounds["p_cell_11_cap"] - 0.3090) <= 1e-12
        assert abs(bounds["p_cell_22_weak_cap"] - 0.2999) <= 1e-12
        assert abs(bounds["p_cell_22_strong_floor"] - 0.6910) <= 1e-12

    _report(3, "published-mode selection caps", check)


def test_criterion_4_computed_vs_published_divergence():
    def check():
        oracle_k34 = (1.0 - quad_tail(math.sqrt(3.4))) / 3.0
        oracle_k65 = (1.0 - quad_tail(math.sqrt(6.5))) / 3.0
        assert abs(score_factor(3.4) - 0.2400) <= 5e-4
        assert abs(score_factor(6.5) - 0.2633) <= 5e-4
        assert abs(score_factor(3.4) - oracle_k34) < 1e-9
        assert abs(score_factor(6.5) - oracle_k65) < 1e-9

        # computed mode must track the formula...
        computed = solve(ipd_scenario(mode=Mode.COMPUTED))
        assert abs(computed.p_em12 - 0.5 * oracle_k34) < 1e-9
        assert abs(computed.p_pf21 - 0.5 * oracle_k65) < 1e-9
        # ...published mode must reproduce the printed constants verbatim...
        assert published_coefficient("em12", Mode.PUBLISHED) == 0.3090
        assert published_coefficient("pf21", Mode.PUBLISHED) == 0.2999
        published = solve(ipd_scenario(mode=Mode.PUBLISHED))
        assert abs(published.p_em12 - 0.5 * 0.3090) <= 1e-12
        # ...and both reports must flag that the two disagree
        for report in (computed, published):
            assert sum("diverges" in note for note in report.notes) == 2

    _report(4, "published constants flagged as divergent", check)


def test_criterion_5_quadrature_fidelity():
    def check():
        start = time.perf_counter()
        worst = max(
            abs(gaussian_tail(float(lower), 10.0) - quad_tail(float(lower)))
            for lower in np.linspace(0.0, 10.0, 201)
        )
        assert worst < 1e-9, f"max quadrature error {worst:.2e}"

        scores = np.linspace(0.05, 15.0, 80)
        factors = [score_factor(float(s)) for s in scores]
        assert all(b > a for a, b in zip(factors, factors[1:]))
        assert all(1.0 / 6.0 < k < 1.0 / 3.0 for k in factors)
        assert abs(score_factor(1e-9) - 1.0 / 6.0) < 1e-4
        assert abs(score_factor(1e8) - 1.0 / 3.0) < 1e-12
        assert time.perf_counter() - start < 1.0

    _report(5, "quadrature matches the closed-form tail", check)


def test_criterion_6_symbolic_vs_numeric_equilibria():
    def check():
        start = time.perf_counter()
        scenario = ipd_scenario()
        verification = verify_nash_numeric(
            scenario.game, scenario.constraints, trials=10_000, seed=60451
        )
        assert verification.ok, verification.disagreements[:3]

        rng = np.random.default_rng(60452)
        cells = [[(f"R{i}{j}", f"C{i}{j}") for j in range(3)] for i in range(3)]
        game = OrdinalGame.from_ids(["a", "b", "c"], ["x", "y", "z"], cells)
        symbols = sorted(game.symbol_ids())
        for _ in range(10_000):
            draws = rng.random(len(symbols))
            values = dict(zip(symbols, draws))
            symbolic, undecided = pure_nash(game, NumericOrder(values))
            assert undecided == frozenset()
            assert set(symbolic) == numeric_pure_nash(game, values)
        assert time.perf_counter() - start < 10.0

    _report(6, "deviation scan agrees with the symbolic solver", check)


def test_criterion_7_selection_frequencies():
    def check():
        start = time.perf_counter()
        scenario = ipd_scenario()
        report = solve(scenario)
        config = SimulationConfig(
            trials=scenario.mc.trials,
            seed=scenario.mc.seed,
            p_em12=report.p_em12,
            p_pf21=report.p_pf21,
        )
        result = simulate_selection(config)
        checks = (
            (report.p_cell_11, result.freq_cell_11),
            (report.p_cell_22, result.freq_cell_22),
            (report.indeterminate, result.freq_indeterminate),
        )
        for expected, observed in checks:
            sigma = math.sqrt(expected * (1.0 - expected) / config.trials)
            assert abs(observed - expected) <= 3.0 * sigma
        assert time.perf_counter() - start < 5.0

    _report(7, "million-trial frequencies match the closed form", check)


def test_criterion_8_survey_scoring():
    def check():
        most = {1: "f", 2: "a", 3: "f", 4: "a", 5: "a", 6: "a", 7: "f"}
        least = {1: "a", 2: "f", 3: "a", 4: "f", 5: "f", 6: "f", 7: "a"}
        mixed = {1: "e", 2: "b", 3: "d", 4: "c", 5: "a", 6: "f", 7: "f"}
        assert score_response(SurveyResponse(most)).p_index == 10.0
        assert score_response(SurveyResponse(least)).p_index == 0.0
        assert abs(score_response(SurveyResponse(mixed)).p_index - 6.857) <= 1e-3

        instrument = canonical_instrument()
        rng = np.random.default_rng(808)
        for _ in range(100):
            answers = {
                i: CHOICES[int(rng.integers(0, 6))] for i in range(1, 8)
            }
            for item in instrument.items:
                for step in range(5):
                    lower, upper = dict(answers), dict(answers)
                    if item.polarity == POSITIVE:
                        lower[item.index] = CHOICES[step]
                        upper[item.index] = CHOICES[step + 1]
                    else:
                        lower[item.index] = CHOICES[5 - step]
                        upper[item.index] = CHOICES[4 - step]
                    assert (
                        score_response(SurveyResponse(upper)).p_index
                        >= score_response(SurveyResponse(lower)).p_index
                    )

    _report(8, "survey scoring endpoints and monotonicity", check)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
