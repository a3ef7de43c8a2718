import ast
import copy
import importlib
import warnings
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    reference_chain_p_pf21,
    reference_effective_constraints,
    reference_point,
    reference_structure_notes,
    reference_sweep,
)
import splitgame
from splitgame import (
    BOUND_LOWER,
    Case,
    CellCoord,
    ConstraintSet,
    DecisionReport,
    DominanceConstraint,
    DomainError,
    EventSpace,
    IndexParameters,
    Mode,
    OrdinalGame,
    SplitgameError,
    UnknownSymbolError,
    ValidationError,
    comparison_events,
    effective_constraints,
    ipd_scenario,
    score_factor,
    solve,
    sweep,
    with_parameters,
)
from splitgame import index_model, solver
from splitgame._record import replace
from splitgame.solver import SWEEP_METRICS

K34 = 0.240028463014  # formula value at score 3.4, frozen from quadrature
K65 = 0.263314553408  # formula value at score 6.5

# grid values of every kind: valid, on the boundary (warned scores 0.5, 1.0
# and 10.0; weights 0 and 1) and invalid; off-reference scores also fail the
# published-mode gate
_SWEEP_SCORES = (3.4, 6.5, 1.5, 5.0, 9.0, 0.5, 1.0, 10.0, 0.0, -1.0, 10.5)
_SWEEP_WEIGHTS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.0, 1.0, 1.5)
_EIGHT_SCORES = [1.5 + k for k in range(8)]
_EIGHT_WEIGHTS = [0.1 * k for k in range(1, 9)]


def _with_base(mode, base, case=Case.WEAK_EVIDENCE):
    """The IPD scenario in a mode, with some parameters moved off their
    defaults; a base score that warns is built without showing it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return with_parameters(ipd_scenario(case=case, mode=mode), base)


@st.composite
def sweep_inputs(draw):
    """A scenario and a grid on 1-4 of r, s, C, Q, with repeats allowed."""
    scenario = ipd_scenario(
        case=draw(st.sampled_from(list(Case))),
        mode=draw(st.sampled_from(list(Mode))),
    )
    # a base score that warns, or fails the published gate when not swept
    base = draw(st.sampled_from([{}, {"C": 0.8}, {"Q": 5.0}, {"C": 10.0}]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scenario = with_parameters(scenario, base)
    names = draw(
        st.lists(st.sampled_from("CQrs"), min_size=1, max_size=4, unique=True)
    )
    grid = {
        name: draw(
            st.lists(
                st.sampled_from(
                    _SWEEP_SCORES if name in "CQ" else _SWEEP_WEIGHTS
                ),
                min_size=1,
                max_size=4,
            )
        )
        for name in names
    }
    return scenario, grid


def _scores(reference):
    """Scores on, within 1e-12 of, just past and away from a reference."""
    return st.one_of(
        st.sampled_from([
            reference, reference + 1e-12, reference - 1e-12,
            reference + 2e-12, reference - 2e-12, 3.4, 6.5,
        ]),
        st.floats(reference - 1.5e-12, reference + 1.5e-12),
        st.floats(0.0, 10.0, exclude_min=True),
    )


_WEIGHTS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_IPD_SYMBOLS = sorted(ipd_scenario().constraints.universe)
# the game's eight ids in cell order, each row id before its column id: as
# shipped, or shuffled across cells and player slots
_LAYOUTS = st.one_of(
    st.just([sym for row in ipd_scenario().game.cells for pair in row for sym in pair]),
    st.permutations(_IPD_SYMBOLS),
)


def _laid_out(scenario, ids):
    """The scenario with its game's cells holding ``ids`` in cell order."""
    cells = [[ids[0:2], ids[2:4]], [ids[4:6], ids[6:8]]]
    return replace(scenario, game=replace(scenario.game, cells=cells))


@st.composite
def point_scenarios(draw):
    """The IPD scenario in any mode and case at one random valid point,
    with its ids laid out as shipped or shuffled."""
    variance = draw(st.one_of(st.just(10.0), st.floats(1e-3, 1e3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        em, pf = (
            IndexParameters(draw(_scores(ref)), draw(_WEIGHTS), variance)
            for ref in (3.4, 6.5)
        )
    scenario = replace(
        ipd_scenario(
            case=draw(st.sampled_from(list(Case))),
            mode=draw(st.sampled_from(list(Mode))),
        ),
        em_params=em,
        pf_params=pf,
    )
    return _laid_out(scenario, draw(_LAYOUTS))


def _strong_link(link, mode=Mode.PUBLISHED):
    """The IPD scenario under strong evidence with its one constraint on
    PF22 > PF12, certain as shipped, replaced by ``link`` (None: removed).
    The chain's other link, PF12 > PF11, is the case's certain swap."""
    shipped = ipd_scenario(case=Case.STRONG_EVIDENCE, mode=mode)
    kept = [
        c for c in shipped.constraints.constraints
        if (c.left, c.right) != ("PF22", "PF12")
    ]
    kept += [link] if link is not None else []
    order = ConstraintSet(kept, universe=shipped.constraints.universe)
    return replace(shipped, constraints=order)


# PF22 > PF12 certain, exact at 0.7, missing, and only a lower bound
_STRONG_LINKS = [
    DominanceConstraint("PF22", "PF12", 1.0),
    DominanceConstraint("PF22", "PF12", 0.7),
    None,
    DominanceConstraint("PF22", "PF12", 0.7, BOUND_LOWER),
]
_STRONG_GRID = {"C": [3.4, 5.0], "s": [0.5, 0.9]}


def _point_outcome(scenario, reference):
    """The metric values, bounds and notes of one point, or the exception:
    from ``solve``, or from the reference chain, point stage and notes."""
    try:
        if reference:
            chain_p_pf21 = reference_chain_p_pf21(scenario)
            values, bounds, notes = reference_point(scenario, chain_p_pf21)
            notes = tuple(notes) + reference_structure_notes(scenario)
        else:
            report = solve(scenario)
            values = tuple(getattr(report, m) for m in SWEEP_METRICS)
            bounds, notes = report.bounds, report.notes
    except Exception as error:
        return "error", type(error), str(error)
    return tuple(values), dict(bounds), notes


def _sweep_outcome(run, scenario, grid):
    """The rows or the exception, and the warning lines the default filter
    would show: each distinct message and location once, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = ("rows", run(scenario, grid))
        except Exception as error:
            outcome = ("error", type(error), str(error))
    shown = dict.fromkeys(
        (str(w.message), w.category, w.filename, w.lineno) for w in caught
    )
    return outcome, list(shown)


# the pairs best responses compare, either way round; the contested
# assumption PF11 > PF12 and the strong chain's PF22 > PF12 among them
_CASE_PAIRS = [
    pair
    for a, b in [("EM11", "EM21"), ("EM12", "EM22"), ("PF11", "PF12"),
                 ("PF21", "PF22"), ("PF22", "PF12")]
    for pair in [(a, b), (b, a)]
]


@st.composite
def case_scenarios(draw):
    """The IPD game in either case over a random constraint set: acyclic
    certain constraints, probable ones and lower bounds over its symbols,
    with an open universe or the game's symbols, and its ids laid out as
    shipped or shuffled."""
    ranked = draw(st.permutations(_IPD_SYMBOLS))
    pairs = st.one_of(
        st.sampled_from(_CASE_PAIRS),
        st.lists(
            st.sampled_from(_IPD_SYMBOLS), min_size=2, max_size=2, unique=True
        ).map(tuple),
    )
    constraints, exact = [], set()
    for left, right in draw(st.lists(pairs, max_size=16)):
        group = draw(st.sampled_from([None, "g"]))
        kind = draw(
            st.sampled_from(["certain", "certain", "probable", "lower"])
        )
        if kind == "lower":
            probability = draw(st.floats(0.0, 1.0))
            constraints.append(
                DominanceConstraint(left, right, probability, BOUND_LOWER, group)
            )
            continue
        if kind == "certain":
            # every certain constraint points down one ranking: no cycle
            if ranked.index(left) > ranked.index(right):
                left, right = right, left
            probability = 1.0
        else:
            probability = draw(st.floats(0.0, 1.0, exclude_max=True))
        if (left, right) in exact:
            continue  # one exact probability per pair
        exact.add((left, right))
        constraints.append(
            DominanceConstraint(left, right, probability, group=group)
        )
    universe = draw(st.sampled_from([None, _IPD_SYMBOLS]))
    scenario = replace(
        ipd_scenario(case=draw(st.sampled_from(list(Case)))),
        constraints=ConstraintSet(constraints, universe=universe),
    )
    return _laid_out(scenario, draw(_LAYOUTS))


def _solve_outcome(scenario):
    """The report, or the exception's class and message; only the
    package's own errors are expected."""
    try:
        return solve(scenario)
    except SplitgameError as error:
        return "error", type(error), str(error)


class TestComparisonEvents:
    def test_diagonal_events(self, ipd_game):
        em12, pf21 = comparison_events(ipd_game)
        assert (em12.label, em12.left, em12.right) == ("em12", "EM11", "EM22")
        assert (pf21.label, pf21.left, pf21.right) == ("pf21", "PF22", "PF11")

    def test_needs_2x2(self):
        wide = OrdinalGame.from_ids(
            ["a"], ["x", "y"], [[("R0", "C0"), ("R1", "C1")]]
        )
        with pytest.raises(ValidationError):
            comparison_events(wide)


class TestEffectiveConstraints:
    def test_weak_adds_invisible_lower_bound(self, ipd):
        effective = effective_constraints(ipd)
        assert effective is ipd.constraints
        # the certain order is untouched by the bound
        assert effective.implies("PF11", "PF12") is True  # shipped assumption
        assert effective.certain_order == ipd.constraints.certain_order

    @settings(max_examples=300, deadline=None)
    @given(case_scenarios())
    def test_structure_matches_the_lower_bound_rebuild(self, scenario):
        # the weak bound never entered the order, so dropping it changes
        # no Nash cell, undecided cell, chain probability, note or error
        with mock.patch.object(
            solver, "effective_constraints", reference_effective_constraints
        ):
            expected = _solve_outcome(scenario)
        assert _solve_outcome(scenario) == expected

    def test_weak_universe_without_a_case_symbol(self, ipd):
        # a set built in Python may leave PF12 out of its universe; the
        # scenario refuses it at construction, before any order query
        kept = [
            c
            for c in ipd.constraints.constraints
            if "PF12" not in (c.left, c.right)
        ]
        universe = ipd.constraints.universe - {"PF12"}
        order = ConstraintSet(kept, universe=universe)
        with pytest.raises(UnknownSymbolError) as exc:
            replace(ipd, constraints=order)
        assert str(exc.value) == "unknown payoff symbol 'PF12'"
        # an open set is not checked, and solves; without the contested
        # assumption the top-left cell is no longer a certain equilibrium
        report = solve(replace(ipd, constraints=ConstraintSet(kept)))
        assert report.nash_cells == (CellCoord(1, 1),)

    def test_strong_swaps_the_contested_assumption(self):
        scenario = ipd_scenario(case=Case.STRONG_EVIDENCE)
        effective = effective_constraints(scenario)
        assert effective.implies("PF12", "PF11") is True
        certain_pairs = {
            (c.left, c.right) for c in effective.constraints if c.certain
        }
        assert ("PF11", "PF12") not in certain_pairs
        added = [
            c for c in effective.constraints if c.group == "strong_evidence_case"
        ]
        assert len(added) == 1 and added[0].certain

    def test_strong_certainty_chain_multiplies_to_one(self):
        scenario = ipd_scenario(case=Case.STRONG_EVIDENCE)
        effective = effective_constraints(scenario)
        chain = [("PF22", "PF12"), ("PF12", "PF11")]
        assert effective.independent_chain_probability(chain) == 1.0


class TestModeGate:
    def test_published_requires_reference_scores(self, ipd):
        shifted = replace(ipd, em_params=IndexParameters(score=3.3, weight=0.5))
        with pytest.raises(ValidationError) as exc:
            solve(shifted)
        assert "C" in str(exc.value) and "computed" in str(exc.value)

    # SCORE_MATCH_TOLERANCE is 1e-12. Near 3.4 (C's reference) a score moves
    # in steps of 2**-51, near 6.5 (Q's) in steps of 2**-50; each distance
    # here is that many steps, exactly representable, the last within 1e-12
    # of the reference or the first past it
    TOLERANCE_EDGES = [
        ("C", 3.4, 2.0**-51, 2251, True), ("C", 3.4, 2.0**-51, 2252, False),
        ("C", 3.4, 2.0**-51, -2251, True), ("C", 3.4, 2.0**-51, -2252, False),
        ("Q", 6.5, 2.0**-50, 1125, True), ("Q", 6.5, 2.0**-50, 1126, False),
        ("Q", 6.5, 2.0**-50, -1125, True), ("Q", 6.5, 2.0**-50, -1126, False),
    ]

    @pytest.mark.parametrize("name, reference, step, steps, within", TOLERANCE_EDGES)
    def test_published_gate_at_the_score_tolerance(
        self, ipd, name, reference, step, steps, within
    ):
        score = reference + steps * step
        assert score - reference == steps * step  # exact
        if within:
            sweep(ipd, {name: [score]})
            return
        with pytest.raises(ValidationError) as exc:
            sweep(ipd, {name: [score]})
        assert str(exc.value) == (
            f"published mode requires {name} = {reference:g} (the score the "
            f"published constant refers to), got {score!r}; use computed mode "
            "for other scores"
        )

    @pytest.mark.parametrize("name, reference, step, steps, within", TOLERANCE_EDGES)
    def test_computed_note_at_the_score_tolerance(
        self, name, reference, step, steps, within
    ):
        # a computed report names the published constant only at its score
        score = reference + steps * step
        computed = with_parameters(ipd_scenario(mode=Mode.COMPUTED), {name: score})
        label = "em12" if name == "C" else "pf21"
        noted = [note for note in solve(computed).notes if note.startswith(label)]
        assert len(noted) == within

    def test_computed_accepts_any_score(self, ipd):
        moved = replace(
            ipd,
            mode=Mode.COMPUTED,
            em_params=IndexParameters(score=2.1, weight=0.5),
        )
        report = solve(moved)
        assert report.p_em12 == pytest.approx(0.5 * score_factor(2.1), abs=1e-15)


class TestSolve:
    def test_weak_published_midpoint(self, ipd):
        report = solve(ipd)
        assert report.p_em12 == pytest.approx(0.5 * 0.3090, abs=1e-12)
        assert report.p_pf21 == pytest.approx(0.5 * 0.2999, abs=1e-12)
        assert report.p_cell_11 == pytest.approx(
            report.p_em12 * (1 - report.p_pf21), abs=1e-15
        )
        assert report.p_cell_22 == pytest.approx(
            report.p_pf21 * (1 - report.p_em12), abs=1e-15
        )
        assert report.nash_cells == (CellCoord(0, 0), CellCoord(1, 1))
        assert report.undecided_cells == ()

    def test_strong_published_selects_strict_cell(self):
        report = solve(ipd_scenario(case=Case.STRONG_EVIDENCE))
        assert report.p_pf21 == 1.0
        assert report.p_cell_11 == 0.0
        assert report.p_cell_22 == pytest.approx(1 - 0.5 * 0.3090, abs=1e-12)
        assert report.nash_cells == (CellCoord(1, 1),)
        assert any("dropped" in note for note in report.notes)

    def test_strong_computed_midpoint(self):
        report = solve(ipd_scenario(case=Case.STRONG_EVIDENCE, mode=Mode.COMPUTED))
        assert report.p_em12 == pytest.approx(0.5 * K34, abs=1e-9)
        assert report.p_em12 == pytest.approx(0.1200, abs=5e-4)
        assert report.p_cell_22 == pytest.approx(1 - 0.5 * K34, abs=1e-9)
        assert report.p_cell_22 == pytest.approx(0.8800, abs=5e-4)

    def test_mass_balance(self):
        for case in Case:
            for mode in Mode:
                for r, s in ((0.1, 0.9), (0.5, 0.5), (0.99, 0.01)):
                    report = solve(ipd_scenario(case=case, mode=mode, r=r, s=s))
                    total = (
                        report.p_cell_11
                        + report.p_cell_22
                        + report.indeterminate
                    )
                    assert abs(total - 1.0) <= 1e-12
                    assert 0.0 <= report.indeterminate <= 1.0

    def test_published_bounds_fields(self, ipd):
        bounds = solve(ipd).bounds
        assert abs(bounds["p_em12_cap"] - 0.3090) <= 1e-12
        assert abs(bounds["p_pf21_weak_cap"] - 0.2999) <= 1e-12
        assert abs(bounds["p_cell_11_cap"] - 0.3090) <= 1e-12
        assert abs(bounds["p_cell_22_weak_cap"] - 0.2999) <= 1e-12
        assert abs(bounds["p_cell_22_strong_floor"] - 0.6910) <= 1e-12

    def test_computed_bounds_fields(self):
        bounds = solve(ipd_scenario(mode=Mode.COMPUTED)).bounds
        assert bounds["p_em12_cap"] == pytest.approx(K34, abs=1e-9)
        assert bounds["p_pf21_weak_cap"] == pytest.approx(K65, abs=1e-9)
        assert bounds["p_cell_22_strong_floor"] == pytest.approx(
            1 - K34, abs=1e-9
        )

    def test_caps_hold_across_weights(self):
        for r in (0.05, 0.3, 0.6, 0.95):
            for s in (0.05, 0.5, 0.95):
                weak = solve(ipd_scenario(r=r, s=s))
                assert weak.p_em12 < 0.31
                assert weak.p_pf21 < 0.30
                assert weak.p_cell_11 <= weak.bounds["p_cell_11_cap"] + 1e-12
                assert weak.p_cell_22 <= weak.bounds["p_cell_22_weak_cap"] + 1e-12
                strong = solve(ipd_scenario(case=Case.STRONG_EVIDENCE, r=r, s=s))
                assert (
                    strong.p_cell_22
                    >= strong.bounds["p_cell_22_strong_floor"] - 1e-12
                )

    def test_divergence_notes_in_both_modes(self, ipd):
        for mode in (Mode.PUBLISHED, Mode.COMPUTED):
            report = solve(ipd_scenario(mode=mode))
            divergence = [n for n in report.notes if "diverges" in n]
            assert len(divergence) == 2
            assert any("0.309" in n and "0.240028" in n for n in divergence)
            assert any("0.2999" in n and "0.263315" in n for n in divergence)

    def test_no_divergence_note_off_the_reference_scores(self):
        scenario = ipd_scenario(mode=Mode.COMPUTED)
        moved = replace(
            scenario,
            em_params=IndexParameters(score=5.0, weight=0.5),
            pf_params=IndexParameters(score=7.0, weight=0.5),
        )
        report = solve(moved)
        assert not any("diverges" in n for n in report.notes)

    def test_non_uniform_prior_flagged(self, ipd):
        skewed = replace(
            ipd,
            events=EventSpace(ipd.events.labels, (0.5, 0.25, 0.25)),
        )
        report = solve(skewed)
        assert any("uniform" in n for n in report.notes)

    def test_non_2x2_rejected(self, ipd):
        big = OrdinalGame.from_ids(
            ["a", "b", "c"],
            ["x", "y", "z"],
            [
                [(f"R{i}{j}", f"C{i}{j}") for j in range(3)]
                for i in range(3)
            ],
        )
        broken = replace(ipd, game=big, constraints=ConstraintSet([]))
        with pytest.raises(ValidationError):
            solve(broken)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("case", list(Case))
    def test_tail_evaluated_at_most_twice(self, monkeypatch, mode, case):
        calls = []
        tail = index_model._tail

        def counting_tail(*args, **kwargs):
            calls.append(args)
            return tail(*args, **kwargs)

        monkeypatch.setattr(index_model, "_tail", counting_tail)
        monkeypatch.setattr(solver, "_tail", counting_tail)
        solve(ipd_scenario(case=case, mode=mode))
        assert 0 < len(calls) <= 2

    @settings(max_examples=300, deadline=None)
    @given(point_scenarios())
    @example(replace(ipd_scenario(), em_params=IndexParameters(3.4 + 1e-12, 0.5)))
    @example(replace(
        ipd_scenario(mode=Mode.COMPUTED),
        pf_params=IndexParameters(6.5 - 2e-12, 0.5),
    ))
    @example(replace(
        ipd_scenario(case=Case.STRONG_EVIDENCE),
        pf_params=IndexParameters(5.0, 0.5),
    ))
    @example(_strong_link(_STRONG_LINKS[0]))
    @example(_strong_link(_STRONG_LINKS[1]))
    @example(_strong_link(_STRONG_LINKS[2]))
    @example(_strong_link(_STRONG_LINKS[3]))
    def test_matches_reference_point(self, scenario):
        assert _point_outcome(scenario, False) == _point_outcome(
            scenario, True
        )

    def test_report_round_trip(self, ipd):
        report = solve(ipd)
        clone = DecisionReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()


_REPORT = solve(ipd_scenario()).to_dict()
_REPORT_ORACLE = jsonschema.Draft202012Validator(
    splitgame._resource("report.schema.json")
)
_REPORT_KEYS = sorted({*_REPORT, *_REPORT["results"], "left", "right", "name"})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_REPORT_KEYS) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=8,
)


def _nodes(node, path=()):
    """The path of every value below ``node``, children before parents."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _nodes(child, path + (key,))
        yield path + (key,)


@st.composite
def mutated_reports(draw):
    """A solved report's document with one to three values replaced by any
    JSON value, or dropped."""
    doc = copy.deepcopy(_REPORT)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JSON)
        else:
            del parent[path[-1]]
        if not doc:  # nothing left to mutate
            break
    return doc


class TestReportDocuments:
    @settings(max_examples=300, deadline=None)
    @given(_JSON | mutated_reports())
    def test_reads_a_report_or_raises_a_splitgame_error(self, doc):
        try:
            report = DecisionReport.from_dict(doc)
        except SplitgameError:
            return
        assert isinstance(report, DecisionReport)

    @settings(max_examples=300, deadline=None)
    @given(_JSON | mutated_reports())
    def test_a_document_the_schema_accepts_round_trips(self, doc):
        if any(_REPORT_ORACLE.iter_errors(doc)):
            return
        try:
            report = DecisionReport.from_dict(doc)
        except ValidationError as exc:  # a check past the schema's
            assert not str(exc).startswith("<report>: ")
            return
        assert report.to_dict() == doc

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {},
             "<report>: <root>: 'scenario' is a required property"),
            (lambda doc: None, "<report>: <root>: None is not of type 'object'"),
            (lambda doc: {**doc, "results": {}},
             "<report>: results: 'p_em12' is a required property"),
            (lambda doc: {**doc, "scenario": []},
             "<report>: scenario: [] is not of type 'object'"),
            (lambda doc: {**doc, "bounds": [["lower", 0.5]]},
             "<report>: bounds: [['lower', 0.5]] is not of type 'object'"),
            (lambda doc: {**doc, "results": {**doc["results"], "nash_cells": [5]}},
             "<report>: results/nash_cells/0: 5 is not of type 'array'"),
            (lambda doc: {**doc, "comparison_events": {"em12": "x"}},
             "<report>: comparison_events: 'pf21' is a required property"),
        ],
        ids=["empty", "none", "no_metrics", "list_scenario", "list_bounds",
             "int_cell", "text_event"],
    )
    def test_malformed_document(self, edit, message):
        with pytest.raises(ValidationError) as exc:
            DecisionReport.from_dict(edit(copy.deepcopy(_REPORT)))
        assert str(exc.value) == message


class TestWithParameters:
    def test_override_weight(self, ipd):
        moved = with_parameters(ipd, {"r": 0.25})
        assert moved.em_params.weight == 0.25
        assert moved.pf_params == ipd.pf_params
        assert solve(moved).p_em12 == pytest.approx(0.25 * 0.3090, abs=1e-12)

    def test_unknown_parameter(self, ipd):
        with pytest.raises(ValidationError):
            with_parameters(ipd, {"z": 0.5})

    def test_domain_still_enforced(self, ipd):
        with pytest.raises(DomainError):
            with_parameters(ipd, {"r": 1.0})


class TestSweep:
    def test_weight_grid_is_affine_decreasing(self):
        scenario = ipd_scenario(case=Case.STRONG_EVIDENCE)
        grid = {"r": [round(0.1 * k, 1) for k in range(1, 10)]}
        columns, rows = sweep(scenario, grid)
        assert columns == [
            "r", "p_em12", "p_pf21", "p_cell_11", "p_cell_22", "indeterminate",
        ]
        assert len(rows) == 9
        cell22 = [row[columns.index("p_cell_22")] for row in rows]
        assert all(b < a for a, b in zip(cell22, cell22[1:]))
        for row, expected_r in zip(rows, grid["r"]):
            assert row[0] == expected_r
            assert row[columns.index("p_cell_22")] == pytest.approx(
                1 - 0.3090 * expected_r, abs=1e-12
            )

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("case", list(Case))
    @pytest.mark.parametrize("axes", ["rs", "CQ"])
    def test_rows_match_scalar_solve(self, mode, case, axes):
        scenario = ipd_scenario(case=case, mode=mode)
        if axes == "rs":
            grid = {"r": [0.1, 0.5, 0.9], "s": [0.2, 0.5, 0.8]}
        elif mode is Mode.PUBLISHED:
            grid = {"C": [3.4], "Q": [6.5]}
        else:
            grid = {"C": [1.5, 3.4, 5.0], "Q": [2.0, 6.5, 9.0]}
        columns, rows = sweep(scenario, grid)
        assert len(rows) == len(grid[columns[0]]) * len(grid[columns[1]])
        for row in rows:
            point = with_parameters(scenario, dict(zip(columns[:2], row)))
            report = solve(point)
            assert row[2:] == [getattr(report, m) for m in columns[2:]]

    def test_order_and_nash_built_once_per_sweep(self, ipd, monkeypatch):
        calls = {"pure_nash": 0, "ConstraintSet": 0}
        nash, init = solver.pure_nash, ConstraintSet.__init__

        def counting_nash(*args, **kwargs):
            calls["pure_nash"] += 1
            return nash(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            calls["ConstraintSet"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(solver, "pure_nash", counting_nash)
        monkeypatch.setattr(ConstraintSet, "__init__", counting_init)
        values = [0.1, 0.3, 0.5, 0.7, 0.9]
        _, rows = sweep(ipd, {"r": values, "s": values})
        assert len(rows) == 25
        # weak evidence sweeps the scenario's own order; no sweep finds a
        # Nash set, which only the report shows
        assert calls == {"pure_nash": 0, "ConstraintSet": 0}
        strong = replace(ipd, case=Case.STRONG_EVIDENCE)
        _, rows = sweep(strong, {"r": values, "s": values})
        assert len(rows) == 25
        assert calls == {"pure_nash": 0, "ConstraintSet": 1}
        # the counter sees the calls ``solve`` makes
        solve(strong)
        assert calls == {"pure_nash": 1, "ConstraintSet": 2}

    def test_published_gate_fires_at_first_off_reference_point(self, ipd):
        with pytest.raises(ValidationError) as exc:
            sweep(ipd, {"C": [3.4, 5.0]})
        assert str(exc.value) == (
            "published mode requires C = 3.4 (the score the published "
            "constant refers to), got 5.0; use computed mode for other scores"
        )

    def test_two_parameter_grid_lexicographic(self, ipd):
        grid = {"s": [0.2, 0.5, 0.8], "r": [0.1, 0.4, 0.7]}
        columns, rows = sweep(ipd, grid)
        assert columns[:2] == ["r", "s"]
        assert len(rows) == 9
        combos = [(row[0], row[1]) for row in rows]
        assert combos == [
            (r, s) for r in (0.1, 0.4, 0.7) for s in (0.2, 0.5, 0.8)
        ]

    def test_score_grid_monotone_in_computed_mode(self):
        scenario = ipd_scenario(mode=Mode.COMPUTED)
        columns, rows = sweep(scenario, {"C": [1.5, 3.0, 4.5, 6.0, 7.5]})
        em = [row[columns.index("p_em12")] for row in rows]
        assert all(b > a for a, b in zip(em, em[1:]))

    @settings(max_examples=300, deadline=None)
    @given(sweep_inputs())
    # a bad s after a warned first C
    @example((_with_base(Mode.COMPUTED, {}), {"C": [0.5, 3.4], "s": [0.5, 1.5]}))
    # Q sorts before r, so pf (score 10.0) is rebuilt before em (base 0.8)
    @example((
        _with_base(Mode.COMPUTED, {"C": 0.8}),
        {"Q": [10.0, 0.5], "r": [0.5, 0.0]},
    ))
    # the first point warns about the base C, then fails its gate
    @example((_with_base(Mode.PUBLISHED, {"C": 0.8}), {"r": [0.1, 0.5]}))
    # one bad value on two axes: the last axis's line is met first
    @example((
        _with_base(Mode.PUBLISHED, {}, Case.STRONG_EVIDENCE),
        {"C": [3.4, 5.0, 5.0], "Q": [6.5, 5.0]},
    ))
    @example((
        _with_base(Mode.COMPUTED, {}),
        {"C": [0.5, 0.0, 10.0], "Q": [1.0, 0.0, 10.0]},
    ))
    @example((_strong_link(_STRONG_LINKS[0], Mode.COMPUTED), _STRONG_GRID))
    @example((_strong_link(_STRONG_LINKS[1], Mode.COMPUTED), _STRONG_GRID))
    @example((_strong_link(_STRONG_LINKS[2], Mode.COMPUTED), _STRONG_GRID))
    @example((_strong_link(_STRONG_LINKS[3], Mode.COMPUTED), _STRONG_GRID))
    def test_matches_point_by_point_reference(self, inputs):
        scenario, grid = inputs
        assert _sweep_outcome(sweep, scenario, grid) == _sweep_outcome(
            reference_sweep, scenario, grid
        )

    def test_warnings_follow_the_rebuild_order(self):
        # Q sorts before r, so each point rebuilds the pf parameters (score
        # 0.5, then 1.0) before the em ones (base score 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scenario = with_parameters(
                ipd_scenario(mode=Mode.COMPUTED), {"C": 0.8}
            )
        grid = {"Q": [0.5, 1.0], "r": [0.1, 0.2]}
        outcome, shown = _sweep_outcome(sweep, scenario, grid)
        assert [line[0].split(" is ")[0] for line in shown] == [
            "score 0.5", "score 0.8", "score 1.0",
        ]
        assert (outcome, shown) == _sweep_outcome(reference_sweep, scenario, grid)

    def test_two_axis_error_is_the_first_failing_point(self):
        # checked axis by axis, C = -1.0 would be reported; the first point
        # (C = 3.0, s = 1.5) fails on its weight before any point reaches it
        scenario = ipd_scenario(mode=Mode.COMPUTED)
        with pytest.raises(DomainError) as exc:
            sweep(scenario, {"C": [3.0, -1.0], "s": [1.5, 0.5]})
        assert str(exc.value) == (
            "weight must lie strictly inside (0, 1), got 1.5; boundary "
            "values appear only in reported bounds"
        )

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"r": [0.5, "0.6"]}, "weight must be a number, got '0.6'"),
            ({"C": ["3", 3.4]}, "score must be a number, got '3'"),
            ({"s": [None]}, "weight must be a number, got None"),
        ],
    )
    def test_non_number_grid_value_is_a_validation_error(self, grid, message):
        with pytest.raises(ValidationError) as exc:
            sweep(ipd_scenario(mode=Mode.COMPUTED), grid)
        assert str(exc.value) == message

    def test_bad_grid_solves_no_point(self, monkeypatch):
        # solving the points one by one up to C = -1.0 would rebuild 900
        grid = {
            "C": [1.5 + 0.25 * k for k in range(30)] + [-1.0],
            "s": [0.01 + 0.03 * k for k in range(30)],
        }
        scenario = ipd_scenario(mode=Mode.COMPUTED)
        expected = _sweep_outcome(reference_sweep, scenario, grid)
        calls = 0

        def counting(function):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(
            "splitgame.scenario.with_parameters", counting(with_parameters)
        )
        assert _sweep_outcome(sweep, scenario, grid) == expected
        assert calls == 0
        assert expected[0][2] == "score must be positive, got -1.0"

    @pytest.mark.parametrize(
        "grid, calls",
        [
            ({"C": _EIGHT_SCORES, "Q": _EIGHT_SCORES}, 16),
            ({"r": _EIGHT_WEIGHTS, "s": _EIGHT_WEIGHTS}, 2),
            ({"C": [2.0, 3.0, 2.0], "r": [0.2, 0.4]}, 3),
        ],
        ids=["CQ", "rs", "repeated_C"],
    )
    def test_score_factor_once_per_distinct_score(
        self, grid, calls, monkeypatch
    ):
        # a point-by-point sweep makes two calls per point: 128 on 8x8
        count = 0
        tail = solver._tail

        def counting_tail(*args):
            nonlocal count
            count += 1
            return tail(*args)

        monkeypatch.setattr(solver, "_tail", counting_tail)
        sweep(ipd_scenario(mode=Mode.COMPUTED), grid)
        assert count == calls

    def test_each_grid_value_checked_once(self, monkeypatch):
        # one check per grid value, plus the first point's two weights; the
        # tail behind k(C) and k(Q) checks nothing again
        scenario = ipd_scenario(mode=Mode.COMPUTED)
        count = 0
        check = index_model.check_number

        def counting_check(*args):
            nonlocal count
            count += 1
            return check(*args)

        monkeypatch.setattr(index_model, "check_number", counting_check)
        sweep(scenario, {"C": _EIGHT_SCORES, "Q": _EIGHT_SCORES})
        assert count == 8 + 8 + 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["CQ", "rs"]),
        st.data(),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(
            lambda v: v != index_model.DEFAULT_VARIANCE
        ),
    )
    def test_computed_caps_are_score_factor_bit_for_bit(self, axes, data, variance):
        score = st.floats(0.0, 10.0, exclude_min=True)
        values = score if axes == "CQ" else _WEIGHTS
        grid = {
            name: data.draw(st.lists(values, min_size=1, max_size=4), label=name)
            for name in axes
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            em, pf = (
                IndexParameters(data.draw(score), data.draw(_WEIGHTS), variance)
                for _ in range(2)
            )
            scenario = replace(
                ipd_scenario(mode=Mode.COMPUTED), em_params=em, pf_params=pf
            )
            columns, rows = sweep(scenario, grid)
        for row in rows:
            point = {"C": em.score, "Q": pf.score, "r": em.weight, "s": pf.weight}
            point.update(zip(columns, row))
            assert point["p_em12"] == point["r"] * score_factor(point["C"], variance)
            assert point["p_pf21"] == point["s"] * score_factor(point["Q"], variance)

    def test_out_of_interior_score_axis_still_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(ipd_scenario(mode=Mode.COMPUTED), {"C": [0.5, 1.0, 1.5]})
        assert [str(w.message) for w in caught] == [
            "score 0.5 is outside the scale interior (1, 10)",
            "score 1.0 is outside the scale interior (1, 10)",
        ]

    def test_empty_grid_rejected(self, ipd):
        with pytest.raises(ValidationError):
            sweep(ipd, {})
        with pytest.raises(ValidationError):
            sweep(ipd, {"r": []})

    def test_unknown_parameter_rejected(self, ipd):
        with pytest.raises(ValidationError):
            sweep(ipd, {"w": [0.5]})

    def test_an_axis_is_any_non_string_sequence(self, ipd):
        rows = sweep(ipd, {"r": [0.5], "s": [0.25, 0.75]})
        assert sweep(ipd, {"r": (0.5,), "s": (0.25, 0.75)}) == rows
        computed = replace(ipd, mode=Mode.COMPUTED)
        scores = sweep(computed, {"C": [2, 3, 4]})
        assert sweep(computed, {"C": range(2, 5)}) == scores
        # a set has no order to sweep in
        with pytest.raises(
            ValidationError,
            match="^parameter 's' needs a list or tuple of values, got set$",
        ):
            sweep(ipd, {"s": {0.25, 0.75}})

    def test_parameters_checked_one_at_a_time_in_name_order(self, ipd):
        # "C" sorts before "x", so its empty grid is reported first
        with pytest.raises(
            ValidationError, match="^parameter 'C' has no grid values$"
        ):
            sweep(ipd, {"C": [], "x": [1.0]})
        with pytest.raises(ValidationError, match="^unknown parameter 'a'"):
            sweep(ipd, {"a": [1.0], "r": []})


def _imported_modules(name):
    """Every module name an import statement in module ``name``'s source
    names, with ``from a import b`` counted as both ``a`` and ``a.b``."""
    with open(importlib.import_module(name).__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["splitgame.solver", "splitgame.scenario"])
def test_solving_imports_nothing_from_montecarlo(module):
    # solve and sweep never sample, so the modules behind them must load
    # without the Monte Carlo layer
    assert not [
        name for name in _imported_modules(module)
        if "montecarlo" in name.split(".")
    ]
