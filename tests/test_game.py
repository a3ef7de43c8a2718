import itertools
import math
import random

import pytest

from conftest import reference_pure_nash
from splitgame import (
    CellCoord,
    ConstraintSet,
    DominanceConstraint,
    NumericOrder,
    OrdinalGame,
    PLAYER_COL,
    PLAYER_ROW,
    UnknownSymbolError,
    ValidationError,
    pure_nash,
    verify_nash_numeric,
)


def grid_game(n_rows: int, n_cols: int) -> OrdinalGame:
    cells = [
        [(f"R{i}{j}", f"C{i}{j}") for j in range(n_cols)]
        for i in range(n_rows)
    ]
    return OrdinalGame.from_ids(
        [f"row{i}" for i in range(n_rows)],
        [f"col{j}" for j in range(n_cols)],
        cells,
    )


def random_values(game: OrdinalGame, rng: random.Random) -> dict:
    return {sym: rng.random() for sym in game.symbol_ids()}


class TestStructure:
    def test_grid_dimensions_checked(self):
        with pytest.raises(ValidationError):
            OrdinalGame.from_ids(
                ["a", "b"], ["x"], [[("R0", "C0")]]
            )

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValidationError):
            OrdinalGame.from_ids(
                ["a"], ["x", "y"], [[("R0", "C0"), ("R0", "C1")]]
            )

    def test_duplicate_strategy_names_rejected(self):
        with pytest.raises(ValidationError):
            grid = [[("R00", "C00"), ("R01", "C01")]]
            OrdinalGame.from_ids(["a"], ["x", "x"], grid)

    # "RC" would read as the ids "R" and "C"; 5 and None are not iterable
    @pytest.mark.parametrize(
        "pair",
        [("R",), ("R", "C", "X"), ("R", 5), ("", "C"), (None, "C"), "RC", 5,
         None],
    )
    def test_cell_must_hold_two_string_ids(self, pair):
        messages = set()
        for build in (OrdinalGame, OrdinalGame.from_ids):
            with pytest.raises(ValidationError, match=r"cell \(0, 0\)") as caught:
                build(["a"], ["x"], [[pair]])
            messages.add(str(caught.value))
        assert len(messages) == 1

    @pytest.mark.parametrize(
        "rows, cols, grid, message",
        [
            (["a"], ["x"], None,
             "payoff grid must be a list or tuple of rows, got None"),
            (["a"], ["x"], "RC",
             "payoff grid must be a list or tuple of rows, got 'RC'"),
            (["a"], ["x"], [5],
             "payoff row 0 must be a list or tuple of cells, got 5"),
            (["a"], ["x"], [[("R0", "C0")], "RC"],
             "payoff row 1 must be a list or tuple of cells, got 'RC'"),
            ("ab", ["x"], [[("R0", "C0")], [("R1", "C1")]],
             "row strategies must be a list or tuple of names, got 'ab'"),
            (["a"], {"x"}, [[("R0", "C0")]],
             "column strategies must be a list or tuple of names, got {'x'}"),
            ([1], ["x"], [[("R0", "C0")]],
             "row strategy names must be non-empty strings, got 1"),
            (["a"], [""], [[("R0", "C0")]],
             "column strategy names must be non-empty strings, got ''"),
        ],
        ids=["grid-none", "grid-str", "row-int", "row-str", "names-str",
             "names-set", "name-int", "name-empty"],
    )
    def test_grid_rows_and_names_must_be_lists_of_the_right_kind(
        self, rows, cols, grid, message
    ):
        for build in (OrdinalGame, OrdinalGame.from_ids):
            with pytest.raises(ValidationError) as caught:
                build(rows, cols, grid)
            assert str(caught.value) == message

    @pytest.mark.parametrize("rows, cols", [((), ("x",)), (("a",), ())])
    def test_each_player_needs_a_strategy(self, rows, cols):
        with pytest.raises(
            ValidationError, match="^both players need at least one strategy$"
        ):
            OrdinalGame(rows, cols, [])

    def test_a_grid_of_lists_is_stored_as_tuples(self, ipd_game, ipd_constraints):
        lists = OrdinalGame(
            list(ipd_game.row_strategies),
            list(ipd_game.col_strategies),
            [[list(pair) for pair in row] for row in ipd_game.cells],
        )
        assert lists == ipd_game
        assert hash(lists) == hash(ipd_game)
        assert verify_nash_numeric(lists, ipd_constraints, 200, 0).ok

    def test_payoff_accessor(self, ipd_game):
        assert ipd_game.payoff(0, 0, PLAYER_ROW) == "EM11"
        assert ipd_game.payoff(1, 0, PLAYER_COL) == "PF21"
        assert ipd_game.cells[1][0] == ("EM21", "PF21")
        assert ipd_game.n_rows == 2 and ipd_game.n_cols == 2

    @pytest.mark.parametrize("player", [2, -1, "0"])
    def test_bad_player_is_a_validation_error(self, ipd_game, player):
        message = f"^player must be 0 or 1, got {player!r}$"
        with pytest.raises(ValidationError, match=message):
            ipd_game.payoff(0, 0, player)


class TestNumericOrder:
    def test_unknown_symbol(self):
        order = NumericOrder({"A": 1.0})
        with pytest.raises(UnknownSymbolError):
            order.implies("A", "B")

    def test_normalizes_numpy_scalars(self):
        # the three-valued protocol is identity-checked, so implies() must
        # hand back plain bools even when the values came from numpy
        import numpy as np

        draws = np.random.default_rng(7).random(2)
        order = NumericOrder({"A": draws[0], "B": draws[1]})
        hi, lo = ("A", "B") if draws[0] > draws[1] else ("B", "A")
        assert order.implies(hi, lo) is True
        assert order.implies(lo, hi) is False


class TestPureNash:
    def test_single_strategy_game(self):
        game = grid_game(1, 1)
        assert pure_nash(game, ConstraintSet([])) == (
            frozenset({CellCoord(0, 0)}),
            frozenset(),
        )

    def test_tie_keeps_both_cells_equilibria(self):
        game = grid_game(2, 1)
        order = NumericOrder(
            {"R00": 1.0, "R10": 1.0, "C00": 0.0, "C10": 1.0}
        )
        assert pure_nash(game, order) == (
            frozenset({CellCoord(0, 0), CellCoord(1, 0)}),
            frozenset(),
        )

    def test_shipped_game_equilibria(self, ipd_game, ipd_constraints):
        equilibria, undecided = pure_nash(ipd_game, ipd_constraints)
        assert equilibria == {CellCoord(0, 0), CellCoord(1, 1)}
        assert undecided == frozenset()

    def test_partial_order_leaves_cells_undecided(
        self, ipd_game, ipd_base_constraints
    ):
        equilibria, undecided = pure_nash(ipd_game, ipd_base_constraints)
        assert equilibria == frozenset()
        # row play is fully decided; only the column gaps remain
        assert undecided == {CellCoord(0, 0), CellCoord(1, 1)}

    def test_matching_pennies_has_no_pure_equilibria(self):
        game = grid_game(2, 2)
        order = NumericOrder(
            {
                "R00": 1.0, "R01": 0.0, "R10": 0.0, "R11": 1.0,
                "C00": 0.0, "C01": 1.0, "C10": 1.0, "C11": 0.0,
            }
        )
        assert pure_nash(game, order) == (frozenset(), frozenset())

    def test_certain_deviation_decides_despite_other_gaps(self):
        # the row payoff comparison in column 0 is known, everything else
        # is unknown: (1,0) is settled as not an equilibrium anyway
        game = grid_game(2, 2)
        known = ConstraintSet([DominanceConstraint("R00", "R10", 1.0)])
        equilibria, undecided = pure_nash(game, known)
        assert equilibria == frozenset()
        assert CellCoord(1, 0) not in undecided
        assert undecided == {
            CellCoord(0, 0),
            CellCoord(0, 1),
            CellCoord(1, 1),
        }

    def test_sets_disjoint_on_random_partial_orders(self):
        rng = random.Random(2024)
        for _ in range(50):
            game = grid_game(rng.randint(1, 3), rng.randint(1, 3))
            values = random_values(game, rng)
            constraints = ConstraintSet(
                [
                    DominanceConstraint(a, b, 1.0)
                    for a, b in comparable_pairs(game)
                    if values[a] > values[b] and rng.random() < 0.5
                ]
            )
            equilibria, undecided = pure_nash(game, constraints)
            assert not (equilibria & undecided)

    def test_adding_knowledge_never_undoes_a_decision(self):
        rng = random.Random(99)
        for _ in range(50):
            game = grid_game(3, 3)
            values = random_values(game, rng)
            ordered = [
                (a, b) if values[a] > values[b] else (b, a)
                for a, b in comparable_pairs(game)
            ]
            partial = ConstraintSet(
                [
                    DominanceConstraint(a, b, 1.0)
                    for a, b in ordered
                    if rng.random() < 0.5
                ]
            )
            total = ConstraintSet(
                [DominanceConstraint(a, b, 1.0) for a, b in ordered]
            )
            eq_partial, und_partial = pure_nash(game, partial)
            eq_total, und_total = pure_nash(game, total)
            assert und_total == frozenset()
            assert eq_partial <= eq_total
            all_cells = {
                CellCoord(r, c)
                for r in range(game.n_rows)
                for c in range(game.n_cols)
            }
            decided_out = all_cells - eq_partial - und_partial
            assert decided_out & eq_total == frozenset()

    def test_relabeling_permutes_equilibria(self):
        rng = random.Random(5)
        for _ in range(25):
            game = grid_game(3, 3)
            values = random_values(game, rng)
            order = NumericOrder(values)
            equilibria, _ = pure_nash(game, order)

            sigma = list(range(3))
            tau = list(range(3))
            rng.shuffle(sigma)
            rng.shuffle(tau)
            permuted = OrdinalGame.from_ids(
                [game.row_strategies[i] for i in sigma],
                [game.col_strategies[j] for j in tau],
                [
                    [
                        (
                            game.payoff(sigma[i], tau[j], PLAYER_ROW),
                            game.payoff(sigma[i], tau[j], PLAYER_COL),
                        )
                        for j in range(3)
                    ]
                    for i in range(3)
                ],
            )
            permuted_eq, _ = pure_nash(permuted, order)
            expected = {
                CellCoord(sigma.index(r), tau.index(c))
                for r, c in equilibria
            }
            assert permuted_eq == expected

    def test_matches_status_reference(self):
        # open and universe-bound random certain orders leave gaps; integer
        # numeric payoffs in 0..2 force ties
        rng = random.Random(707)
        for _ in range(300):
            game = grid_game(rng.randint(1, 3), rng.randint(1, 3))
            ids = sorted(game.symbol_ids())
            rank = {sym: rng.random() for sym in ids}
            density = rng.random()
            certain = [
                DominanceConstraint(a, b, 1.0)
                for a in ids
                for b in ids
                if rank[a] > rank[b] and rng.random() < density
            ]
            orders = (
                ConstraintSet(certain),
                ConstraintSet(certain, universe=ids),
                NumericOrder({sym: rng.randint(0, 2) for sym in ids}),
            )
            for order in orders:
                new, reference = CallLog(order), CallLog(order)
                assert pure_nash(game, new) == reference_pure_nash(game, reference)
                # the same queries, early exits included; only the order differs
                assert sorted(new.calls) == sorted(reference.calls)

    def test_needed_comparisons_that_close_a_cycle_rule_a_cell_out(self):
        # (0,0) needs R00 > R10 and C00 > C01, which with the certain
        # C01 > R00 and R10 > C00 close R00 > R10 > C00 > C01 > R00; no
        # comparison it needs is certainly lost, yet no order makes it one
        game = grid_game(2, 2)
        names = sorted(game.symbol_ids())
        edges = [("C01", "R00"), ("R10", "C00")]
        order = ConstraintSet(
            [DominanceConstraint(a, b, 1.0) for a, b in edges], universe=names
        )
        assert count_extensions(names, edges) == math.factorial(8) // 4
        assert count_extensions(names, edges + needed_comparisons(game, 0, 0)) == 0
        assert pure_nash(game, order) == (
            frozenset(),
            frozenset({CellCoord(0, 1), CellCoord(1, 0), CellCoord(1, 1)}),
        )

    def test_undecided_means_an_equilibrium_in_some_orders_only(self):
        # exact: among the linear extensions of a random certain order over
        # a 2x2 game's 8 symbols, a cell is an equilibrium in those that
        # also extend the comparisons it needs; an equilibrium must be one
        # in all of them, an undecided cell in some but not all
        game = grid_game(2, 2)
        names = sorted(game.symbol_ids())
        rng = random.Random(2121)
        for _ in range(300):
            rank = {name: rng.random() for name in names}
            density = rng.choice((0.1, 0.2, 0.3))
            edges = [
                (a, b)
                for a in names
                for b in names
                if rank[a] > rank[b] and rng.random() < density
            ]
            order = ConstraintSet(
                [DominanceConstraint(a, b, 1.0) for a, b in edges],
                universe=names,
            )
            equilibria, undecided = pure_nash(game, order)
            total = count_extensions(names, edges)
            for r, c in itertools.product(range(2), repeat=2):
                held = count_extensions(
                    names, edges + needed_comparisons(game, r, c)
                )
                cell = CellCoord(r, c)
                assert (cell in equilibria) == (held == total), (edges, cell)
                assert (cell in undecided) == (0 < held < total), (edges, cell)


class CallLog:
    """Dominance oracle that records every query it forwards."""

    def __init__(self, order):
        self.order = order
        self.calls = []

    def implies(self, left, right):
        self.calls.append((left, right))
        return self.order.implies(left, right)


def comparable_pairs(game: OrdinalGame):
    """Unordered same-owner symbol pairs a best response could compare."""
    pairs = []
    for j in range(game.n_cols):
        col = [game.payoff(i, j, PLAYER_ROW) for i in range(game.n_rows)]
        pairs.extend(
            (col[a], col[b])
            for a in range(len(col))
            for b in range(a + 1, len(col))
        )
    for i in range(game.n_rows):
        row = [game.payoff(i, j, PLAYER_COL) for j in range(game.n_cols)]
        pairs.extend(
            (row[a], row[b])
            for a in range(len(row))
            for b in range(a + 1, len(row))
        )
    return pairs


def needed_comparisons(game: OrdinalGame, r: int, c: int):
    """The (greater, lesser) pairs that make cell (r, c) an equilibrium of
    a linear order: each player's payoff above its rivals on its own axis."""
    row_payoff, col_payoff = game.cells[r][c]
    return [
        (row_payoff, game.payoff(i, c, PLAYER_ROW))
        for i in range(game.n_rows)
        if i != r
    ] + [
        (col_payoff, game.payoff(r, j, PLAYER_COL))
        for j in range(game.n_cols)
        if j != c
    ]


def count_extensions(names, edges) -> int:
    """The number of linear orders of ``names`` that put each (greater,
    lesser) pair of ``edges`` in that order, 0 when the edges close a
    cycle. Places symbols from the top, counting the ways on from every
    set already placed instead of listing each order."""
    bit = {name: 1 << i for i, name in enumerate(names)}
    above = dict.fromkeys(bit.values(), 0)
    for greater, lesser in edges:
        above[bit[lesser]] |= bit[greater]
    full = (1 << len(names)) - 1
    # ways[placed]: the orders of the rest below the set ``placed``; a
    # superset is a larger integer, so it is filled first
    ways = [0] * (full + 1)
    ways[full] = 1
    for placed in range(full - 1, -1, -1):
        ways[placed] = sum(
            ways[placed | one]
            for one, need in above.items()
            if not placed & one and not need & ~placed
        )
    return ways[0]
