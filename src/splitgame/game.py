"""Ordinal normal-form games over opaque payoff ids.

Payoffs carry no numeric values; all the engine may ask is "is this payoff
greater than that one?" through a dominance oracle. Pure Nash cells are
therefore three-valued: present, absent, or undecided when the cell is an
equilibrium in some but not all orders the oracle's answers allow.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence

from ._record import Record
from .errors import (
    UnknownSymbolError, ValidationError, _sequence, _shown, check_integer, check_kind,
)

PLAYER_ROW = 0
PLAYER_COL = 1


CellCoord = namedtuple("CellCoord", "row col")
CellCoord.__doc__ = "Zero-indexed cell coordinate (row strategy, column strategy)."


class OrdinalGame(Record):
    """A two-player game whose cells hold one payoff id per player.

    ``cells[r][c]`` is the (row id, column id) pair for row strategy r
    against column strategy c. Every id is unique across the grid.
    """

    row_strategies: tuple[str, ...]
    col_strategies: tuple[str, ...]
    cells: tuple[tuple[tuple[str, str], ...], ...]

    def __post_init__(self):
        # one pass ahead of the other checks, so a malformed grid, row or
        # pair is named first; the stored tuples make every game hashable
        rows = _sequence("payoff grid", self.cells, "rows")
        cells = tuple(
            tuple(
                tuple(_sequence(f"cell ({r}, {c})", pair, "two ids"))
                for c, pair in enumerate(_sequence(f"payoff row {r}", row, "cells"))
            )
            for r, row in enumerate(rows)
        )
        object.__setattr__(self, "cells", cells)
        for attr, side in (("row_strategies", "row"), ("col_strategies", "column")):
            names = _sequence(f"{side} strategies", getattr(self, attr), "names")
            bad = [name for name in names if not (isinstance(name, str) and name)]
            if bad:
                raise ValidationError(
                    f"{side} strategy names must be non-empty strings, got {bad[0]!r}"
                )
            object.__setattr__(self, attr, tuple(names))
        if not self.row_strategies or not self.col_strategies:
            raise ValidationError("both players need at least one strategy")
        for names, side in ((self.row_strategies, "row"), (self.col_strategies, "column")):
            if len(set(names)) != len(names):
                raise ValidationError(f"duplicate {side} strategy names")
        if len(self.cells) != len(self.row_strategies):
            raise ValidationError(
                f"payoff grid has {len(self.cells)} rows, expected "
                f"{len(self.row_strategies)}"
            )
        seen: set[str] = set()
        for r, row in enumerate(self.cells):
            if len(row) != len(self.col_strategies):
                raise ValidationError(
                    f"payoff row {r} has {len(row)} cells, expected "
                    f"{len(self.col_strategies)}"
                )
            for c, pair in enumerate(row):
                if len(pair) != 2 or not all(
                    isinstance(sym, str) and sym for sym in pair
                ):
                    raise ValidationError(
                        f"cell ({r}, {c}) must hold exactly two non-empty "
                        f"string ids, got {pair!r}"
                    )
                for sym in pair:
                    if sym in seen:
                        raise ValidationError(
                            f"payoff symbol {sym!r} appears in two cells"
                        )
                    seen.add(sym)

    @classmethod
    def from_ids(
        cls,
        row_strategies: Sequence[str],
        col_strategies: Sequence[str],
        grid: Sequence[Sequence[tuple[str, str]]],
    ) -> "OrdinalGame":
        """Build from a grid of (row symbol id, column symbol id) pairs, as
        the constructor does: names, grid, rows and pairs each a list or a
        tuple, so a string such as "RC" is not read as two ids.
        """
        return cls(row_strategies, col_strategies, grid)

    @property
    def n_rows(self) -> int:
        return len(self.row_strategies)

    @property
    def n_cols(self) -> int:
        return len(self.col_strategies)

    def payoff(self, row: int, col: int, player: int) -> str:
        check_integer("row", row, 0, self.n_rows - 1)
        check_integer("column", col, 0, self.n_cols - 1)
        try:
            check_integer("player", player, PLAYER_ROW, PLAYER_COL)
        except ValidationError:
            raise ValidationError(
                f"player must be 0 or 1, got {_shown(player)}"
            ) from None
        return self.cells[row][col][player]

    def symbol_ids(self) -> frozenset:
        return frozenset(sym for row in self.cells for pair in row for sym in pair)


class NumericOrder:
    """Dominance oracle backed by concrete numeric payoffs.

    Every comparison is decided; equal values answer False both ways, so
    tied payoffs never beat each other and ``pure_nash`` keeps both cells.
    Values are read by ``_floats``, as ``montecarlo.numeric_pure_nash``
    reads scalars: anything else, or a NaN, which compares False both ways
    too, raises ValidationError.
    """

    def __init__(self, values: Mapping[str, float]):
        self._values = _floats(values, values)

    def implies(self, left: str, right: str) -> bool | None:
        try:
            return self._values[left] > self._values[right]
        except KeyError as missing:
            raise UnknownSymbolError(
                f"no numeric value for symbol {missing.args[0]!r}"
            ) from None


def _as_float(value) -> float | None:
    """``value`` as a float if it is a bool, int or float scalar, numpy's
    included, within float range; None otherwise."""
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    if not isinstance(value, (int, float)) and (
        kind not in ("b", "i", "u", "f") or getattr(value, "shape", None) != ()
    ):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _floats(values: Mapping, symbols) -> dict[str, float]:
    """The values of ``symbols`` as floats, so numpy scalars cannot leak
    np.bool_ out of a comparison and a Python int past int64 compares as a
    float. A value ``_as_float`` refuses, and then a NaN, raises
    ValidationError naming the smallest such symbol."""
    floats = {symbol: _as_float(values[symbol]) for symbol in symbols}
    for fault, bad in (("is not a real number", lambda v: v is None),
                       ("is NaN", math.isnan)):
        odd = [symbol for symbol, value in floats.items() if bad(value)]
        if odd:
            raise ValidationError(f"numeric value for symbol {min(odd)!r} {fault}")
    return floats


def _unbeaten(order, axis: Sequence[str], i: int) -> bool | None:
    """Whether payoff ``axis[i]`` survives its rivals on the same axis.

    ``axis`` holds one player's payoffs across its own strategies, with the
    opponent's strategy fixed. False when some rival is certainly better
    (the first one found ends the scan), True when every rival is known not
    better (ties survive), None when some comparison is unknown.
    """
    mine = axis[i]
    gap = False
    for j, rival in enumerate(axis):
        if j == i:
            continue
        better = order.implies(rival, mine)
        if better is True:
            return False
        if better is None:
            gap = True
    return None if gap else True


def _crossed(order, row_axis, r: int, col_axis, c: int) -> bool:
    """Whether some row rival of cell (r, c) is certainly above the cell's
    column payoff and some column rival certainly above its row payoff.

    With x, u the cell's payoffs and x', u' those rivals, the cell needs
    x > x' and u > u', which close the cycle x > x' > u > u' > x: no order
    the oracle allows makes it an equilibrium.
    """
    return any(
        order.implies(rival, col_axis[c]) is True
        for j, rival in enumerate(row_axis) if j != r
    ) and any(
        order.implies(rival, row_axis[r]) is True
        for k, rival in enumerate(col_axis) if k != c
    )


def pure_nash(game: OrdinalGame, order) -> tuple[frozenset, frozenset]:
    """Pure Nash cells under a (possibly partial) dominance oracle.

    ``order`` answers ``order.implies(left, right)``: True if payoff id
    ``left`` is certainly above ``right``, False if that is known false,
    None if unknown. ``NumericOrder`` and ``ConstraintSet`` both do.

    Returns (equilibria, undecided_cells), disjoint. A cell is an equilibrium
    when neither player's payoff can be beaten by a unilateral deviation in
    any order the oracle allows, and undecided when it is an equilibrium in
    some but not all of those orders. A single certain profitable deviation
    settles a cell as not an equilibrium regardless of other gaps, and so
    do needed comparisons that cannot all hold together. A wrong-kind
    game or order raises ValidationError.
    """
    check_kind("game", game, OrdinalGame)
    check_kind("order.implies", getattr(order, "implies", None), Callable)
    # the row player's payoffs down each column; the column player's lie
    # along each row
    row_axes = [[pair[PLAYER_ROW] for pair in col] for col in zip(*game.cells)]
    equilibria = set()
    undecided = set()
    for r, row in enumerate(game.cells):
        col_axis = [pair[PLAYER_COL] for pair in row]
        for c in range(len(row)):
            row_ok = _unbeaten(order, row_axes[c], r)
            col_ok = _unbeaten(order, col_axis, c)
            if row_ok is False or col_ok is False:
                continue
            if row_ok and col_ok:
                equilibria.add(CellCoord(r, c))
            elif not _crossed(order, row_axes[c], r, col_axis, c):
                undecided.add(CellCoord(r, c))
    return frozenset(equilibria), frozenset(undecided)
