"""Monte Carlo verification: selection frequencies and numeric Nash checks.

Everything here is an independent check on the closed-form machinery, so the
implementations deliberately avoid reusing it: equilibrium verification scans
payoff matrices by brute force, and selection frequencies come from raw
Bernoulli draws. All randomness flows through numpy's PCG64 generator; the
algorithm identifier is recorded in every result so runs stay reproducible
across environments.

numpy is imported inside the functions that draw or scan, not at module
level, so that using this module's records does not pay its import. The
CLI runs this module only for ``simulate``.
"""
from __future__ import annotations

import math
from collections.abc import Mapping

from ._record import Record
from .constraints import ConstraintSet
from .errors import ValidationError, check_kind
from .errors import check_probability, check_seed, check_trials
from .game import CellCoord, OrdinalGame, pure_nash
from .game import _floats, _name_faulty, _no_value

RNG_ALGORITHM = "pcg64"
# trials per sampler call in verify_nash_numeric; bounds its memory
VERIFY_BLOCK = 4096
# draws per event and block in simulate_selection, its whole working set
# however many trials run: one event's 128 KB of uniforms at a time, and the
# two events' 16 KB masks (about 180 KB traced at its peak)
SIMULATE_BLOCK = 1 << 14


class SimulationConfig(Record):
    """Inputs for a selection-frequency run."""

    trials: int
    seed: int
    p_em12: float
    p_pf21: float

    def __post_init__(self):
        check_trials(self.trials)
        check_seed(self.seed)
        check_probability("p_em12", self.p_em12)
        check_probability("p_pf21", self.p_pf21)


class SimulationResult(Record):
    """Empirical selection frequencies; they sum to one to within rounding.

    ``standard_error`` is the worst-case binomial standard error
    0.5 / sqrt(trials); per-cell errors are at most this.
    """

    freq_cell_11: float
    freq_cell_22: float
    freq_indeterminate: float
    standard_error: float
    trials: int
    seed: int
    algorithm: str = RNG_ALGORITHM


def simulate_selection(config: SimulationConfig) -> SimulationResult:
    """Draw the two comparison events independently and tally selections.

    The top-left cell is selected when em12 fires alone, the bottom-right
    cell when pf21 fires alone; both-or-neither draws are indeterminate.
    Deterministic for a given seed: the em draws are the first ``trials``
    uniforms of PCG64(seed) and the pf draws the next ``trials``, tallied
    in blocks of SIMULATE_BLOCK so memory stays bounded.
    """
    check_kind("config", config, SimulationConfig)
    import numpy as np

    trials = config.trials
    em_rng = np.random.Generator(np.random.PCG64(config.seed))
    pf_bits = np.random.PCG64(config.seed)
    pf_bits.advance(trials)  # one 64-bit step per uniform double
    pf_rng = np.random.Generator(pf_bits)
    n11 = n22 = 0
    for start in range(0, trials, SIMULATE_BLOCK):
        size = min(SIMULATE_BLOCK, trials - start)
        em = em_rng.random(size) < config.p_em12
        pf = pf_rng.random(size) < config.p_pf21
        both = np.count_nonzero(em & pf)
        n11 += int(np.count_nonzero(em) - both)
        n22 += int(np.count_nonzero(pf) - both)
    return SimulationResult(
        freq_cell_11=n11 / trials,
        freq_cell_22=n22 / trials,
        freq_indeterminate=(trials - n11 - n22) / trials,
        standard_error=0.5 / math.sqrt(trials),
        trials=trials,
        seed=config.seed,
    )


def numeric_pure_nash(
    game: OrdinalGame, values: Mapping[str, float]
) -> frozenset | np.ndarray:
    """Pure Nash cells of a numeric payoff assignment, by exhaustive scan.

    Intentionally independent of the symbolic machinery: a cell is an
    equilibrium when its row payoff is >= the max of its column and its
    column payoff is >= the max of its row, i.e. no player has a strictly
    better unilateral deviation. Scalar values give a frozenset of cells;
    values that are arrays of shape (size,) give a (size, n_rows, n_cols)
    bool mask, one scan per row. Scalars are read as ``NumericOrder`` reads
    them, bool, int and float, numpy's included, a Python int past int64 as
    a float. A NaN value raises ValidationError and a missing symbol
    UnknownSymbolError, as ``NumericOrder`` does; values of mixed shapes, or
    not bool, integer or float, raise ValidationError.
    """
    import numpy as np

    check_kind("game", game, OrdinalGame)
    check_kind("values", values, Mapping)
    try:
        payoffs = np.array(game._payoffs(values))  # (player, row, col) order
    except KeyError as missing:
        raise _no_value(missing) from None
    except ValueError:  # numpy refuses values of mixed shapes
        raise ValidationError(
            "numeric values must be all scalars or all arrays of one shape"
        ) from None
    # ``np.count_nonzero`` here and ``np.maximum.reduce`` below, not the
    # ``.any`` and ``.max`` methods, which go through numpy's Python wrappers
    if payoffs.dtype.kind not in "biuf" or np.count_nonzero(np.isnan(payoffs)):
        if payoffs.ndim == 1:
            # scalars, read as ``NumericOrder`` reads them: once they pass,
            # a Python int past int64, gathered as an object, is a float
            _floats(values, game.symbol_ids())
            payoffs = payoffs.astype(float)
        else:
            _name_faulty(values, game.symbol_ids(),
                         lambda v: np.asarray(v).dtype.kind not in "biuf",
                         lambda v: np.isnan(v).any())
    # read flat in (player, row, col) order, any trial axis last; the mask
    # is scanned on that layout and returned as a view, trial axis first
    rows, cols = payoffs.reshape((2, game.n_rows, game.n_cols) + payoffs.shape[1:])
    best = np.maximum.reduce
    mask = (rows >= best(rows, axis=0)) & (cols >= best(cols, axis=1, keepdims=True))
    if mask.ndim == 2:
        return frozenset(CellCoord(int(r), int(c)) for r, c in zip(*np.nonzero(mask)))
    return mask.transpose(*range(2, mask.ndim), 0, 1)


class Disagreement(Record):
    """One symbolic claim a numeric realization contradicted."""

    trial: int
    cell: CellCoord
    kind: str  # "equilibrium_failed" or "non_equilibrium_appeared"


class NashVerification(Record):
    """Outcome of cross-checking symbolic Nash cells against realizations."""

    trials: int
    seed: int
    symbolic_equilibria: tuple[CellCoord, ...]
    symbolic_undecided: tuple[CellCoord, ...]
    checked_cells: int
    disagreements: tuple[Disagreement, ...]
    algorithm: str = RNG_ALGORITHM

    @property
    def ok(self) -> bool:
        return not self.disagreements


def verify_nash_numeric(
    game: OrdinalGame,
    constraints: ConstraintSet,
    trials: int,
    seed: int,
) -> NashVerification:
    """Check symbolic Nash statements against sampled numeric realizations.

    Every realization honors the certain order, so a symbolically decided
    cell must come out the same way numerically: decided equilibria must
    survive the brute-force scan and decided non-equilibria must not appear
    in it. Undecided cells may fall either way and are skipped. Trials run
    in blocks of ``VERIFY_BLOCK``; block b draws its realizations in one
    call seeded with (seed, b). Disagreements are listed by trial, then
    equilibria, then decided non-equilibria, each in cell order. The
    symbolic side (Nash sets, checked cells, their flat indices and
    expected mask) is kept on the set, beside its sampling tables, for the
    last game verified against it: verifying that game again skips
    ``pure_nash``, and another game replaces it, so the set keeps one check
    plan however many games it meets.
    """
    import numpy as np

    check_kind("game", game, OrdinalGame)
    check_kind("constraints", constraints, ConstraintSet)
    check_trials(trials)
    check_seed(seed)
    kept = constraints._check  # read once: a concurrent call swaps it whole
    if kept is not None and (kept[0] is game or kept[0] == game):
        plan = kept[1]
    else:
        found, undecided = pure_nash(game, constraints)
        all_cells = {
            CellCoord(r, c) for r in range(game.n_rows) for c in range(game.n_cols)
        }
        equilibria = tuple(sorted(found))
        checked = equilibria + tuple(sorted(all_cells - found - undecided))
        flat = np.array([r * game.n_cols + c for r, c in checked], dtype=np.intp)
        expected = (np.arange(len(checked)) < len(equilibria))[:, None]
        plan = equilibria, tuple(sorted(undecided)), checked, flat, expected
        object.__setattr__(constraints, "_check", (game, plan))
    equilibria, undecided, checked, cells, expected = plan
    found = []
    for block, first in enumerate(range(0, trials, VERIFY_BLOCK)):
        size = min(VERIFY_BLOCK, trials - first)
        values = constraints.sample_realization([seed, block], size=size)
        # the checked cells, taken from the scan's contiguous (cells, trials)
        # layout: one row of trials per cell
        scan = numeric_pure_nash(game, values).transpose(1, 2, 0)
        wrong = scan.reshape(-1, size).take(cells, axis=0) != expected
        if not np.count_nonzero(wrong):
            continue
        for trial, k in zip(*np.nonzero(wrong.T)):
            kind = (
                "equilibrium_failed" if k < len(equilibria)
                else "non_equilibrium_appeared"
            )
            found.append(Disagreement(first + int(trial), checked[k], kind))
    # every field by position: a record's keyword path costs microseconds
    return NashVerification(
        trials, seed, equilibria, undecided, len(checked) * trials,
        tuple(found), RNG_ALGORITHM,
    )
