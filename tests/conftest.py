import itertools
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from splitgame import (
    BOUND_EXACT,
    BOUND_LOWER,
    PLAYER_COL,
    PLAYER_ROW,
    Case,
    CellCoord,
    ConstraintSet,
    DominanceConstraint,
    InconsistentOrderError,
    MissingProbabilityError,
    SAMPLING_DOWNSET_CAP,
    SamplingExhaustedError,
    UnknownSymbolError,
    ValidationError,
    Scenario,
    ipd_scenario,
    with_parameters,
)
from splitgame import solver
from splitgame.constraints import MAX_TRIALS, _components, check_integer
from splitgame.index_model import PUBLISHED_TABLE, Mode, score_factor
from splitgame.solver import SWEEP_METRICS, _on_reference, _require_2x2
from splitgame.survey import (
    INDEX_MAX,
    SCALE_STEPS,
    PIndexScore,
    canonical_instrument,
    score_item,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# quadrature contract: absolute tolerance 1e-10 on a truncated domain
# reaching 12 standard deviations past the lower limit
TAIL_ABS_TOL = 1e-10
_TAIL_SPAN_SIGMAS = 12.0


def erfc_tail(lower: float, variance: float = 10.0) -> float:
    """Closed-form upper Gaussian tail, the formula the package evaluates."""
    return 0.5 * math.erfc(lower / math.sqrt(2.0 * variance))


def quad_tail(lower: float, variance: float = 10.0) -> float:
    """Independent oracle: P(X > lower) for X ~ Normal(0, variance) by
    adaptive quadrature.

    The integrand is truncated 12 standard deviations past max(lower, 0);
    the discarded mass is below 1e-30. For lower >= 0 the result lies in
    [0, 0.5].
    """
    if math.isinf(lower):
        return 0.0 if lower > 0 else 1.0
    sigma = math.sqrt(variance)
    norm = 1.0 / math.sqrt(2.0 * math.pi * variance)

    def density(x):
        return norm * math.exp(-(x * x) / (2.0 * variance))

    upper = max(lower, 0.0) + _TAIL_SPAN_SIGMAS * sigma
    value, _ = integrate.quad(
        density, lower, upper, epsabs=TAIL_ABS_TOL * 1e-2, limit=200
    )
    return value


def posterior_update_map(q: float, alpha: float) -> float:
    """Independent oracle: one round trip of the fixed-point construction.

    Maps a candidate posterior alpha of an event with prior q through the
    Bayes setup (every other event's conditional pinned to the marginal)
    back to the implied posterior, alpha * (1 - q) / (1 - alpha). Its fixed
    point is what ``fixed_point_posterior`` returns.
    """
    return alpha * (1.0 - q) / (1.0 - alpha)


# rejection-sampling contract: proposals drawn in batches, at most this
# many per realization
SAMPLING_ATTEMPT_CAP = 1_000_000
_SAMPLING_BATCH = 256


def rejection_realization(constraints: ConstraintSet, seed) -> dict:
    """Independent oracle: one realization uniform on the certain order, by
    rejection.

    Uniform [0, 1] proposals are rejection-sampled until every certain
    constraint holds strictly. Accepts e(P)/n! of proposals, so it is only
    usable on small orders. Deterministic for a given seed (numpy PCG64).
    """
    names = sorted(constraints.symbols)
    if not names:
        return {}
    index = {name: i for i, name in enumerate(names)}
    pairs = [
        (index[c.left], index[c.right])
        for c in constraints.constraints
        if c.certain
    ]
    rng = np.random.default_rng(seed)
    attempts = 0
    while attempts < SAMPLING_ATTEMPT_CAP:
        batch = min(_SAMPLING_BATCH, SAMPLING_ATTEMPT_CAP - attempts)
        draws = rng.random((batch, len(names)))
        keep = np.ones(batch, dtype=bool)
        for li, ri in pairs:
            keep &= draws[:, li] > draws[:, ri]
        hits = np.flatnonzero(keep)
        if hits.size:
            row = draws[hits[0]]
            return {name: float(row[index[name]]) for name in names}
        attempts += batch
    raise SamplingExhaustedError(
        f"no admissible draw within {SAMPLING_ATTEMPT_CAP} attempts"
    )


def reference_bfs_path(adjacency, start, goal):
    """Reference: the path search ``ConstraintSet`` named a cycle with
    before one breadth-first search served the whole certain order.

    Shortest directed path start -> goal (two distinct nodes) as a node
    list; the caller knows one exists."""
    seen = {start}
    queue = deque([start])
    parents = {}
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt in seen:
                continue
            parents[nxt] = node
            if nxt == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            seen.add(nxt)
            queue.append(nxt)


def reference_reach(constraints, universe=None) -> dict:
    """Reference: the closure ``ConstraintSet`` kept as ``_reach`` when it
    grew the certain order edge by edge, or the InconsistentOrderError it
    raised.

    below[x] holds every symbol x certainly dominates, so a constraint
    closes a directed cycle exactly when its left is below its right, and
    the first such constraint is the one reported. The digraph only spells
    out that cycle; it keeps successors in insertion order (dict keys), so
    the path named does not depend on the string hash seed."""
    adjacency: dict[str, dict[str, None]] = {}
    below: dict[str, set] = {sym: set() for sym in universe or ()}
    for c in constraints:
        if not c.certain:
            continue
        lesser = below.setdefault(c.right, set())
        if c.left in lesser:
            # the path right -> ... -> left, with left prepended, is the
            # full dominance cycle
            back = reference_bfs_path(adjacency, c.right, c.left)
            raise InconsistentOrderError([c.left] + back)
        adjacency.setdefault(c.left, {})[c.right] = None
        below.setdefault(c.left, set())
        for greater, dominated in below.items():
            if greater == c.left or c.left in dominated:
                dominated.add(c.right)
                dominated |= lesser
    return {sym: frozenset(d) for sym, d in below.items()}


def reference_components(names, reach) -> list[list[int]]:
    """Reference: ``_components`` as a union-find with path halving.

    Connected components of the certain order over ``names``, as lists of
    indices, ordered by their smallest index."""
    index = {name: i for i, name in enumerate(names)}
    root = list(range(len(names)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for name in names:
        for lesser in reach[name]:
            root[find(index[lesser])] = find(index[name])
    groups: dict[int, list[int]] = {}
    for i in range(len(names)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def reference_linear_extensions(above, rows, rng) -> np.ndarray:
    """Reference: the sampler's linear-extension walk as it was when every
    call enumerated the downset lattice again.

    Uniformly random linear extensions of one connected order.

    ``above[j]`` is the bitmask of the symbols that must precede symbol j.
    The downsets (bitmasks of the symbols already placed from the top) are
    enumerated breadth first; counting the completions of each one
    backwards gives the exact probability of every next symbol, and all
    rows walk the lattice together, one array step per position. Returns a
    (rows, k) array of symbol positions from the top.
    """
    k = len(above)
    symbols = [(j, above[j], above[j] | 1 << j) for j in range(k)]
    downsets, index = [0], {0: 0}
    source, symbol, target = [], [], []  # the moves, grouped by source
    for at, placed in enumerate(downsets):  # grows while it is walked
        for j, before, needs in symbols:
            if placed & needs == before:
                grown = placed | 1 << j
                to = index.get(grown)
                if to is None:
                    to = index[grown] = len(downsets)
                    if to >= SAMPLING_DOWNSET_CAP:
                        raise SamplingExhaustedError(
                            f"a connected component of {k} symbols in the "
                            f"certain order has more than "
                            f"{SAMPLING_DOWNSET_CAP} downsets"
                        )
                    downsets.append(grown)
                source.append(at)
                symbol.append(j)
                target.append(to)

    # exact completion counts, backwards (Python ints never overflow), then
    # per downset the cumulative share of each next symbol, ending in
    # exactly 1; the full downset, the last, has no next symbol
    completions = [0] * (len(downsets) - 1) + [1]
    for at, to in zip(reversed(source), reversed(target)):
        completions[at] += completions[to]
    follow = np.zeros((len(downsets) - 1, k), dtype=np.intp)
    follow[source, symbol] = target
    cumulative = np.zeros((len(downsets) - 1, k))
    cumulative[source, symbol] = [
        completions[to] / completions[at] for at, to in zip(source, target)
    ]
    np.cumsum(cumulative, axis=1, out=cumulative)
    cumulative /= cumulative[:, -1:]

    # u < 1, so the first entry above it is a move with positive share
    u = rng.random((k, rows, 1))
    state = np.zeros(rows, dtype=np.intp)
    order = np.empty((k, rows), dtype=np.intp)
    for depth in range(k):
        order[depth] = pick = (cumulative[state] > u[depth]).argmax(axis=1)
        state = follow[state, pick]
    return order.T


def python_walk(follow, cumulative, u) -> np.ndarray:
    """Reference: ``_linear_extensions`` one row at a time in pure Python,
    over the same ``_lattice`` tables and (k, rows, 1) uniforms. At every
    depth, the last included, a row places the first symbol whose
    cumulative share is above its uniform, then moves to the downset that
    placing it reaches."""
    k, rows = u.shape[:2]
    order = np.empty((k, rows), dtype=np.intp)
    for r in range(rows):
        state = 0
        for depth in range(k):
            shares = cumulative[state].tolist()
            pick = next(j for j, share in enumerate(shares) if share > u[depth, r, 0])
            order[depth, r] = pick
            state = int(follow[state, pick])
    return order


def reference_sample_realization(constraints: ConstraintSet, seed, size=None):
    """Reference: ``ConstraintSet.sample_realization`` as it was when every
    call rebuilt the components and their lattices; the kept plan must draw
    bit-identical values. Reads the set's closure (``_reach``)."""
    if size is not None:
        check_integer("size", size, 0, MAX_TRIALS)

    rows = 1 if size is None else int(size)
    names = sorted(constraints.symbols)
    rng = np.random.default_rng(seed)
    values = np.empty((len(names), rows))
    components = _components(names, constraints._reach)
    free = [members[0] for members in components if len(members) == 1]
    values[free] = rng.random((len(free), rows))
    for members in components:
        if len(members) == 1:
            continue
        local = {names[i]: bit for bit, i in enumerate(members)}
        above = [0] * len(members)
        for name, bit in local.items():
            for lesser in constraints._reach[name]:
                above[local[lesser]] |= 1 << bit
        order = reference_linear_extensions(above, rows, rng)
        draws = np.sort(rng.random((rows, len(members))), axis=1)
        values[np.asarray(members)[order], np.arange(rows)[:, None]] = (
            draws[:, ::-1]
        )
    if size is None:
        return {name: float(v[0]) for name, v in zip(names, values)}
    return dict(zip(names, values))


def loop_pure_nash(game, values) -> frozenset:
    """Independent oracle: pure Nash cells of one numeric payoff assignment
    by a Python loop over each cell's unilateral deviations."""
    cells = game.cells
    result = set()
    for r in range(game.n_rows):
        for c in range(game.n_cols):
            row_value = values[cells[r][c][0]]
            if any(
                values[cells[alt][c][0]] > row_value
                for alt in range(game.n_rows)
            ):
                continue
            col_value = values[cells[r][c][1]]
            if any(
                values[cells[r][alt][1]] > col_value
                for alt in range(game.n_cols)
            ):
                continue
            result.add(CellCoord(r, c))
    return frozenset(result)


def reference_numeric_pure_nash(game, values):
    """Reference: ``numeric_pure_nash`` as it was when it built a nested
    list per player and moved the grid axes last with ``np.moveaxis``."""
    try:
        payoffs = np.array(
            [
                [[values[cell[player]] for cell in row] for row in game.cells]
                for player in (PLAYER_ROW, PLAYER_COL)
            ]
        )
    except KeyError as missing:
        raise UnknownSymbolError(
            f"no numeric value for symbol {missing.args[0]!r}"
        ) from None
    if np.isnan(payoffs).any():
        symbol = min(s for s in game.symbol_ids() if np.isnan(values[s]).any())
        raise ValidationError(f"numeric value for symbol {symbol!r} is NaN")
    rows, cols = np.moveaxis(payoffs, (1, 2), (-2, -1))
    mask = (rows >= rows.max(axis=-2, keepdims=True)) & (
        cols >= cols.max(axis=-1, keepdims=True)
    )
    if mask.ndim == 2:
        return frozenset(CellCoord(int(r), int(c)) for r, c in zip(*np.nonzero(mask)))
    return mask


_BEST = "best"
_NOT_BEST = "not_best"
_UNKNOWN = "unknown"


def _own_symbol(game, player, own, opponent):
    if player == PLAYER_ROW:
        return game.cells[own][opponent][PLAYER_ROW]
    return game.cells[opponent][own][PLAYER_COL]


def _strategy_statuses(game, player, opponent_strategy, order):
    """Per-strategy best-response status against a fixed opponent strategy.

    A strategy is best when no rival is known strictly better (ties count as
    best), not best when some rival certainly beats it, unknown otherwise.
    The player compares its own payoffs along its own axis; the opponent's
    choice only fixes which slice is compared.
    """
    own_count = game.n_rows if player == PLAYER_ROW else game.n_cols
    statuses = []
    for i in range(own_count):
        mine = _own_symbol(game, player, i, opponent_strategy)
        beaten = False
        gap = False
        for j in range(own_count):
            if j == i:
                continue
            rival_better = order.implies(
                _own_symbol(game, player, j, opponent_strategy), mine
            )
            if rival_better is True:
                beaten = True
                break
            if rival_better is None:
                gap = True
        if beaten:
            statuses.append(_NOT_BEST)
        elif gap:
            statuses.append(_UNKNOWN)
        else:
            statuses.append(_BEST)
    return statuses


def reference_pure_nash(game, order):
    """Reference: the status-based three-valued solver ``pure_nash`` replaced.

    Computes every strategy's best-response status against every opponent
    strategy first, then combines the two statuses of each cell; a cell
    neither status rules out is undecided unless its needed comparisons
    close a cycle. Returns (equilibria, undecided_cells) exactly as
    ``pure_nash`` must.
    """
    row_statuses = [
        _strategy_statuses(game, PLAYER_ROW, c, order) for c in range(game.n_cols)
    ]
    col_statuses = [
        _strategy_statuses(game, PLAYER_COL, r, order) for r in range(game.n_rows)
    ]
    equilibria = set()
    undecided = set()
    for r in range(game.n_rows):
        for c in range(game.n_cols):
            row_status = row_statuses[c][r]
            col_status = col_statuses[r][c]
            if row_status == _BEST and col_status == _BEST:
                equilibria.add(CellCoord(r, c))
            elif row_status == _NOT_BEST or col_status == _NOT_BEST:
                continue
            elif not _needs_a_cycle(game, r, c, order):
                undecided.add(CellCoord(r, c))
    return frozenset(equilibria), frozenset(undecided)


def _needs_a_cycle(game, r, c, order):
    """Whether cell (r, c), with payoffs x and u, has a row rival x'
    certainly above u and a column rival u' certainly above x: it needs
    x > x' and u > u', so no order makes it an equilibrium. Each scan stops
    at its first certain answer, and the column scan runs only after one."""
    x, u = game.cells[r][c]
    row_rivals = [game.cells[i][c][PLAYER_ROW] for i in range(game.n_rows) if i != r]
    col_rivals = [game.cells[r][j][PLAYER_COL] for j in range(game.n_cols) if j != c]
    for rival in row_rivals:
        if order.implies(rival, u) is True:
            break
    else:
        return False
    for rival in col_rivals:
        if order.implies(rival, x) is True:
            return True
    return False


def reference_chain_p_pf21(scenario):
    """p(pf21) as the strong-evidence certainty chain PF22 > PF12 > PF11
    fixes it over ``reference_effective_constraints``, or None under weak
    evidence, where the weight times the cap sets it. Each link counts 1
    when the certain order decides it and its stored exact probability
    otherwise; a link with neither raises."""
    order = reference_effective_constraints(scenario)
    if scenario.case is not Case.STRONG_EVIDENCE:
        return None
    game = scenario.game
    pf11, pf12, pf22 = (
        game.payoff(r, c, PLAYER_COL) for r, c in ((0, 0), (0, 1), (1, 1))
    )
    exact = {
        (c.left, c.right): c.probability
        for c in order.constraints
        if c.bound == BOUND_EXACT
    }
    product = 1.0
    for left, right in ((pf22, pf12), (pf12, pf11)):
        if order.implies(left, right) is True:
            continue
        if (left, right) not in exact:
            raise MissingProbabilityError(
                f"no stored probability for {left} > {right}"
            )
        product *= exact[(left, right)]
    return product


def reference_structure_notes(scenario):
    """The notes a report adds after the divergence notes: the case, a
    non-uniform event space, and an equilibrium set other than the
    diagonal under ``reference_effective_constraints``."""
    game = scenario.game
    pf11, pf12 = game.payoff(0, 0, PLAYER_COL), game.payoff(0, 1, PLAYER_COL)
    if scenario.case is Case.STRONG_EVIDENCE:
        notes = [
            f"strong evidence: certain {pf12} > {pf11} applied; any certain "
            f"{pf11} > {pf12} assumption is dropped for consistency"
        ]
    else:
        notes = [
            f"weak evidence: p({pf11} > {pf12}) > 0.5 recorded as a lower "
            "bound; lower bounds never enter the dominance order"
        ]
    prior = scenario.events.prior
    if len(prior) != 3 or len(set(prior)) != 1:
        notes.append(
            "selection coefficients assume a uniform three-event "
            "environment; this scenario's event space deviates from it"
        )
    nash, _ = reference_pure_nash(game, reference_effective_constraints(scenario))
    if nash != {CellCoord(0, 0), CellCoord(1, 1)}:
        notes.append(
            "p_cell_11 and p_cell_22 refer to the diagonal cells (0,0) and "
            f"(1,1); this order's equilibrium set is {sorted(map(tuple, nash))}"
        )
    return tuple(notes)


def reference_point(scenario, chain_p_pf21):
    """The scalar point stage ``solve`` ran before it became the sweep
    walk's zero-axis case: the SWEEP_METRICS values in order, the bounds
    and the divergence notes. ``chain_p_pf21`` is
    ``reference_chain_p_pf21`` of the scenario. Any score the
    published-mode gate rejects raises here."""
    published = scenario.mode is Mode.PUBLISHED
    caps = {}
    notes = []
    for label, params, param_name in (
        ("em12", scenario.em_params, "C"),
        ("pf21", scenario.pf_params, "Q"),
    ):
        ref_score, constant = PUBLISHED_TABLE[label]
        on_reference = _on_reference(label, param_name, params.score, published)
        # the formula value k(score), one tail evaluation per label, shared
        # by the cap and the divergence note
        factor = score_factor(params.score, params.variance)
        caps[label] = constant if published else factor
        if on_reference:
            if published:
                used, other = "the published constant", "the formula value"
            else:
                used, other = "the formula value", "the published constant"
            notes.append(
                f"{label}: published constant {constant:.6g} at score "
                f"{ref_score:g} diverges from the formula value "
                f"{factor:.6g}; this report uses {used}, not {other}"
            )

    em_cap, pf_cap = caps["em12"], caps["pf21"]
    p_em12 = scenario.em_params.weight * em_cap
    p_pf21 = chain_p_pf21
    if p_pf21 is None:
        p_pf21 = scenario.pf_params.weight * pf_cap
    p_cell_11 = p_em12 * (1.0 - p_pf21)
    p_cell_22 = p_pf21 * (1.0 - p_em12)
    indeterminate = 1.0 - p_cell_11 - p_cell_22
    bounds = {
        "p_em12_cap": em_cap,
        "p_pf21_weak_cap": pf_cap,
        "p_cell_11_cap": em_cap,
        "p_cell_22_weak_cap": pf_cap,
        "p_cell_22_strong_floor": 1.0 - em_cap,
    }
    values = (p_em12, p_pf21, p_cell_11, p_cell_22, indeterminate)
    return values, bounds, notes


def reference_sweep(scenario, grid):
    """The point-by-point sweep ``solver.sweep`` replaced: each point
    rebuilds the scenario through ``with_parameters`` and runs the scalar
    point stage, so it validates, gates, warns and raises exactly as
    solving that point alone would."""
    if not grid:
        raise ValidationError("sweep grid is empty")
    names = sorted(grid)
    for name in names:
        solver._param_target(name)
        if not grid[name]:
            raise ValidationError(f"parameter {name!r} has no grid values")
    columns = names + list(SWEEP_METRICS)
    chain_p_pf21 = reference_chain_p_pf21(scenario)
    rows = []
    for combo in itertools.product(*(grid[name] for name in names)):
        point = with_parameters(scenario, dict(zip(names, combo)))
        values, _, _ = reference_point(point, chain_p_pf21)
        rows.append(list(combo) + list(values))
    return columns, rows


def reference_effective_constraints(scenario: Scenario) -> ConstraintSet:
    """Reference: ``solver.effective_constraints`` as it was when weak
    evidence still appended its lower bound to a rebuilt set.

    The scenario's constraint set with the evidential case applied.

    Strong evidence asserts the certain reverse of the top-row column
    assumption (the column player certainly prefers the strict course even
    against the dutiful row), so any certain constraint contradicting it is
    dropped first. Weak evidence only records a lower bound, invisible to
    the dominance order.
    """
    _require_2x2(scenario.game)
    pf11 = scenario.game.payoff(0, 0, 1)
    pf12 = scenario.game.payoff(0, 1, 1)
    base = scenario.constraints
    if scenario.case is Case.STRONG_EVIDENCE:
        kept = [
            c
            for c in base.constraints
            if not (c.certain and c.left == pf11 and c.right == pf12)
        ]
        kept.append(
            DominanceConstraint(pf12, pf11, 1.0, group="strong_evidence_case")
        )
        return ConstraintSet(kept, universe=base.universe)
    lower = DominanceConstraint(
        pf11, pf12, 0.5, bound=BOUND_LOWER, group="weak_evidence_case"
    )
    return base.add_constraint(lower)


def reference_score(response):
    """``score_response`` as it was before its per-instrument plan: one
    ``score_item`` per item and a new record per response."""
    instrument = canonical_instrument()
    expected = {item.index for item in instrument.items}
    answered = set(response.answers)
    missing = sorted(expected - answered)
    if missing:
        raise ValidationError(f"unanswered items: {missing}")
    extra = sorted(answered - expected)
    if extra:
        raise ValidationError(f"answers for unknown items: {extra}")
    raw = sum(
        score_item(item, response.answers[item.index])
        for item in instrument.items
    )
    n = len(instrument)
    p_index = INDEX_MAX * (raw - n) / ((SCALE_STEPS - 1) * n)
    return PIndexScore(raw, p_index, n)


@pytest.fixture(scope="session")
def ipd_path() -> str:
    return str(REPO_ROOT / "scenarios" / "ipd.json")


@pytest.fixture
def ipd():
    return ipd_scenario()


@pytest.fixture
def ipd_game(ipd):
    return ipd.game


@pytest.fixture
def ipd_constraints(ipd) -> ConstraintSet:
    """All eight shipped constraints (six relations + two assumptions)."""
    return ipd.constraints


@pytest.fixture
def ipd_base_constraints(ipd) -> ConstraintSet:
    """Only the six ungrouped relations that follow from the matrix."""
    base = [c for c in ipd.constraints.constraints if c.group is None]
    assert len(base) == 6
    return ConstraintSet(base, universe=ipd.constraints.universe)
