"""Probabilistic dominance constraints over payoff symbols.

A constraint asserts p(left > right) for two payoff symbols. Constraints that
are exact with probability 1 ("certain") induce a strict partial order used by
the dominance oracle; everything below probability 1 is soft information
reserved for the probability calculus and never answers an order query.
Lower-bound constraints are stored and echoed back (``constraints``,
``Scenario.to_dict``) but never read: no order query, chain probability or
sample uses them.

What is derived from the order, the sampling plan (or the error its build
raised) and ``montecarlo.verify_nash_numeric``'s check plans per game, is
built on first use, kept on the set and dropped with it; a set from
``add_constraint`` builds its own.

numpy is imported inside the sampling functions, not at module level: only
sampling needs it, and the order queries behind ``solve`` and ``sweep``
would otherwise pay its import, which is most of a cold ``import splitgame``.
"""
from __future__ import annotations

from collections.abc import Sequence

from ._record import Record, replace
from .errors import (
    InconsistentOrderError,
    MissingProbabilityError,
    SamplingExhaustedError,
    UnknownSymbolError,
    ValidationError,
    _sequence,
    _shown,
    check_integer,
    check_kind,
    check_number,
)

BOUND_EXACT = "exact"
BOUND_LOWER = "lower"

# most trials one Monte Carlo run takes (10^8), and most values (rows
# times symbols) one ``sample_realization`` call draws: 800 MB of float64
MAX_TRIALS = 10**8

# most values (rows times symbols) one batch of components with one local
# order draws and places in ``sample_realization``; bounds its memory, as
# ``SIMULATE_BLOCK`` does in ``simulate_selection``. A component larger
# than this is a batch of its own
_SAMPLE_BATCH = 1 << 16

# most downsets the exact sampler enumerates for one connected component of
# the certain order; every component of a game up to 3x3 (18 symbols) fits,
# the widest (one symbol above 17 others) having 2**17 + 1 downsets; a chain
# builds no lattice, so no chain reaches the cap
SAMPLING_DOWNSET_CAP = 1 << 18


class DominanceConstraint(Record):
    """One assertion about payoff order: p(left > right) = probability.

    ``bound`` distinguishes a point probability ("exact") from an exclusive
    lower bound ("lower"). Only exact probability-1 constraints are certain.
    """

    left: str
    right: str
    probability: float
    bound: str = BOUND_EXACT
    group: str | None = None

    def __post_init__(self):
        if not all(isinstance(sym, str) and sym for sym in (self.left, self.right)):
            raise ValidationError("constraint symbols must be non-empty ids")
        if self.left == self.right:
            raise ValidationError(
                f"constraint compares {self.left!r} with itself"
            )
        check_number(f"p({self.left} > {self.right})", self.probability)
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"p({self.left} > {self.right}) = {self.probability!r} "
                "is outside [0, 1]"
            )
        if self.bound not in (BOUND_EXACT, BOUND_LOWER):
            raise ValidationError(f"unknown bound kind {self.bound!r}")
        if self.group is not None and not (isinstance(self.group, str) and self.group):
            raise ValidationError(
                "constraint group must be None or a non-empty id, "
                f"got {_shown(self.group)}"
            )

    @property
    def certain(self) -> bool:
        return self.bound == BOUND_EXACT and self.probability == 1.0


def check_trials(trials) -> None:
    """Reject a trial count that is not an integer in [1, MAX_TRIALS]."""
    check_integer("trials", trials, 1, MAX_TRIALS)


def check_seed(seed) -> None:
    """Reject a generator seed that is not an integer >= 0."""
    check_integer("seed", seed, 0)


def _search(edges, start) -> dict:
    """Breadth first over ``edges`` (node -> successors, in insertion
    order) from ``start``: every node reached, ``start`` included, mapped to
    the node it was first reached from (``start`` to None)."""
    parent = {start: None}
    queue = [start]
    for node in queue:  # grows while it is walked
        for nxt in edges.get(node, ()):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return parent


def _components(names, reach) -> list[list[int]]:
    """Connected components of the certain order over ``names``, as sorted
    lists of indices, ordered by their smallest index."""
    index = {name: i for i, name in enumerate(names)}
    links = {name: set(reach[name]) for name in names}
    for name in names:
        for lesser in reach[name]:
            links[lesser].add(name)
    groups, seen = [], set()
    for name in names:
        if name not in seen:
            found = _search(links, name)
            seen.update(found)
            groups.append(sorted(map(index.__getitem__, found)))
    return groups


def _lattice(above):
    """The downset lattice of one connected order, as sampling tables.

    ``above[j]`` is the bitmask of the symbols that must precede symbol j.
    The downsets (bitmasks of the symbols already placed from the top) are
    enumerated breadth first; counting the completions of each one
    backwards gives the exact probability of every next symbol (Brightwell
    & Winkler, Order 8, 1991). Returns
    ``(follow, cumulative)``: per downset but the full one, the downset
    reached by placing each symbol next, and the cumulative share of each
    next symbol, ending in exactly 1.
    """
    import numpy as np

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

    # exact completion counts, backwards (Python ints never overflow); the
    # full downset, the last, has no next symbol
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
    return follow, cumulative


def _linear_extensions(follow, cumulative, u) -> np.ndarray:
    """Uniformly random linear extensions of one connected order, from its
    ``_lattice`` tables and a (k, rows, 1) array of uniforms.

    All rows walk the lattice together, one array step per position.
    Returns a (k, rows) array: each row's symbol at each depth from the top.
    """
    import numpy as np

    k, rows = u.shape[:2]
    moves = follow.ravel()
    # u < 1, so the first entry above it is a move with positive share; at
    # the last depth, the one symbol left
    state = np.zeros(rows, dtype=np.intp)
    order = np.empty((k, rows), dtype=np.intp)
    for depth in range(k):
        shares = cumulative.take(state, axis=0)
        order[depth] = pick = (shares > u[depth]).argmax(axis=1)
        state = moves.take(state * k + pick)
    return order


def _extension_picker(follow, cumulative):
    """``_linear_extensions`` as a placement: a function of its uniforms
    giving, per row, each symbol's column in that row's ascending draws.
    With at most 64 extensions, its picks come from a table: per depth but
    the last, the uint64 mask of the extensions whose ``cum[j-1] <= u <
    cum[j]`` holds each gap, and per extension its columns."""
    import numpy as np

    def columns(order):  # (k, n) symbols from the top -> (n, k) columns
        cols = np.empty(order.shape[::-1], dtype=np.intp)
        cols[np.arange(len(cols)), order] = np.arange(len(order))[::-1, None]
        return cols

    padded = np.pad(cumulative, ((0, 0), (1, 0)))  # cum[j-1] at j, cum[j] at j + 1
    at, placed = np.zeros((1, 1), dtype=np.intp), np.zeros((0, 1), dtype=np.intp)
    for _ in range(follow.shape[1]):  # per prefix its downsets, then its symbols
        prefix, j = np.nonzero(padded[at[-1], 1:] > padded[at[-1], :-1])
        if len(prefix) > 64:  # every prefix ends in an extension
            return lambda u: columns(_linear_extensions(follow, cumulative, u))
        at = np.vstack([at[:, prefix], follow[at[-1, prefix], j]])
        placed = np.vstack([placed[:, prefix], j])
    los, his = (padded[at[:-2], placed[:-1] + end] for end in (0, 1))  # (k - 1, n)
    low = np.array(sorted({0.0, *his.ravel().tolist()}))[:, None]  # gap starts
    bits = np.uint64(1) << np.arange(placed.shape[1], dtype=np.uint64)
    masks = np.array([((lo <= low) & (low < hi)) @ bits for lo, hi in zip(los, his)])
    offsets = np.arange(0, masks.size, len(low))[:, None]
    cols = columns(placed)

    def pick(u):  # the last depth's uniform is not read; the AND leaves one bit
        gaps = low[1:, 0].searchsorted(u[:-1, :, 0], "right") + offsets
        found = np.bitwise_and.reduce(masks.take(gaps), axis=0)
        return cols.take(bits.searchsorted(found), axis=0)

    return pick


def _place(values, block, pick, rng, rows):
    """Draw and place one batch: the components of one local order whose
    member indices are the (n, k) ``block``. Reads, per component, its
    (k, rows) walk uniforms, then its (rows, k) draws, the stream n reads of
    one component would take; one pick places every row of the batch, one
    sort orders each row's draws in place, and one gather from the read
    puts them in the picked columns of ``values``."""
    import numpy as np

    n, k = block.shape
    read = rng.random((n, 2, k * rows))
    walk = read[:, 0].reshape(n, k, rows).transpose(1, 0, 2)
    cols = pick(walk.reshape(k, n * rows, 1)).reshape(n, rows, k)
    read[:, 1].reshape(n, rows, k).sort(axis=2)
    # columns to flat indices into ``read``: a row's draws start every k
    # values in the second half of its component's part
    cols += np.arange(0, read.size, k).reshape(n, 2 * rows)[:, rows:, None]
    values[block] = read.take(cols).transpose(0, 2, 1)


class ConstraintSet(Record):
    """An immutable collection of dominance constraints.

    The certain constraints must form a DAG; the induced strict partial order
    (their transitive closure) is what ``implies`` answers from.

    If ``universe`` is given, every constraint must stay inside it and order
    queries on ids outside it raise ``UnknownSymbolError``. Without a
    universe the set is open: any id may be queried and unseen ids simply
    compare as unknown.

    Construction checks the container and the universe's kind first, then
    each constraint in input order (its kind, its symbols against the
    universe, a conflicting exact probability, a cycle); the first faulty
    constraint is the one named.
    """

    constraints: tuple[DominanceConstraint, ...] = ()
    universe: frozenset[str] | None = None

    def __post_init__(self):
        try:
            entries = iter(self.constraints)
        except TypeError:
            raise ValidationError(
                "constraints must be an iterable of DominanceConstraint, "
                f"got {_shown(self.constraints)}"
            ) from None
        constraints = tuple(entries)
        if self.universe is not None and not (
            isinstance(self.universe, (list, tuple, set, frozenset))
            and all(isinstance(sym, str) and sym for sym in self.universe)
        ):
            raise ValidationError(
                "universe must be a list, tuple or set of non-empty ids, "
                f"got {_shown(self.universe)}"
            )
        universe = None if self.universe is None else frozenset(self.universe)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "universe", universe)

        # one pass in input order, so the first faulty constraint is named:
        # ``exact`` holds each ordered pair's exact probability, ``edges``
        # the certain edges, successors in insertion order (dict keys), so no
        # search depends on the string hash seed. A constraint closes a cycle
        # when its right reaches its left (so has successors, and its left
        # predecessors); it is named with the shortest path back
        exact: dict[tuple[str, str], float] = {}
        edges: dict[str, dict[str, None]] = {}
        indegree: dict[str, int] = {}  # how many symbols are just above each
        for at, c in enumerate(constraints):
            if not isinstance(c, DominanceConstraint):
                check_kind(f"constraint {at}", c, DominanceConstraint)
            left, right = c.left, c.right
            if universe is not None and not (left in universe and right in universe):
                sym = right if left in universe else left
                raise ValidationError(
                    f"constraint p({left} > {right}) uses symbol "
                    f"{sym!r} outside the bound universe"
                )
            if c.bound != BOUND_EXACT:
                continue
            if exact.setdefault((left, right), c.probability) != c.probability:
                raise ValidationError(
                    f"conflicting probabilities for {left} > {right}: "
                    f"{exact[left, right]!r} and {c.probability!r}"
                )
            if c.probability != 1.0:  # not certain
                continue
            if right in edges and left in indegree:
                parent = _search(edges, right)
                if left in parent:
                    path = [left]
                    while path[-1] != right:
                        path.append(parent[path[-1]])
                    raise InconsistentOrderError([left] + path[::-1])
            if right not in edges.setdefault(left, {}):
                edges[left][right] = None
                indegree[right] = indegree.get(right, 0) + 1
        reach = dict.fromkeys([*indegree, *edges, *(universe or ())], frozenset())
        ranked = [sym for sym in edges if sym not in indegree]  # the sources
        for sym in ranked:  # Kahn's order, grown while it is walked
            for lesser in edges[sym]:
                indegree[lesser] -= 1
                if not indegree[lesser] and lesser in edges:
                    ranked.append(lesser)
        for sym in reversed(ranked):  # the closure, sinks first: one union per edge
            reach[sym] = frozenset(edges[sym]).union(*map(reach.get, edges[sym]))
        # per-instance state, never in equality or hash: the tables above,
        # then, built on first use, the sampling plan (or the error its
        # build raised) and the check plans per game
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_reach", reach)
        object.__setattr__(self, "_plan", None)
        object.__setattr__(self, "_checks", {})

    @property
    def symbols(self) -> frozenset[str]:
        """Every id the set knows about: its universe when bound; an open
        set knows only the symbols of its certain constraints."""
        if self.universe is not None:
            return self.universe
        return frozenset(self._reach)

    @property
    def certain_order(self) -> frozenset[tuple[str, str]]:
        """The induced strict partial order as closed (greater, lesser) pairs."""
        return frozenset(
            (a, b) for a, descendants in self._reach.items() for b in descendants
        )

    def add_constraint(self, constraint: DominanceConstraint) -> "ConstraintSet":
        """A new set with one more constraint; self is left untouched."""
        return replace(self, constraints=self.constraints + (constraint,))

    def _check_known(self, *ids: str):
        for sym in ids:
            check_kind("payoff symbol", sym, str)
            if self.universe is not None and sym not in self.universe:
                raise UnknownSymbolError(f"unknown payoff symbol {sym!r}")

    def implies(self, left: str, right: str) -> bool | None:
        """Does the certain order decide left > right?

        True when the closure contains left > right, False when it contains
        the reverse, None when neither. Sub-certain probabilities never
        contribute.
        """
        self._check_known(left, right)
        if left == right:
            return False
        if right in self._reach.get(left, ()):
            return True
        if left in self._reach.get(right, ()):
            return False
        return None

    def independent_chain_probability(
        self, chain: Sequence[tuple[str, str]]
    ) -> float:
        """Product of p(a > b) over the chain, assuming independence.

        A pair decided by the certain closure contributes factor 1; otherwise
        the stored exact probability is used. An empty chain is vacuous (1.0).
        """
        product = 1.0
        for pair in _sequence("chain", chain, "(greater, lesser) pairs"):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValidationError(
                    "chain entry must be a (greater, lesser) pair, "
                    f"got {_shown(pair)}"
                )
            left, right = pair
            self._check_known(left, right)
            if right in self._reach.get(left, ()):
                continue
            try:
                product *= self._exact[(left, right)]
            except KeyError:
                raise MissingProbabilityError(
                    f"no stored probability for {left} > {right}"
                ) from None
        return product

    def _sampling_plan(self):
        """What sampling needs of the order, built on first use and kept:
        the sorted names, the indices of the unconstrained ones, and per run
        of adjacent components of two or more symbols with one local order
        (equal ``above``) a (g, k) block of their member indices with one
        ``_extension_picker``, which gives each member's column in a row's
        sorted draws; a chain, read off the closure, keeps its members in
        its one linear extension, from the top, and None, builds no lattice
        and ends a run. A component over ``SAMPLING_DOWNSET_CAP`` raises
        SamplingExhaustedError; the error is kept, so every later call
        raises the same class and message without building again."""
        if self._plan is None:
            import numpy as np

            names = sorted(self.symbols)
            components = _components(names, self._reach)
            free = [members[0] for members in components if len(members) == 1]
            walks, last = [], None  # ``last``: the local order of walks[-1]
            try:
                for members in components:
                    if len(members) == 1:
                        continue
                    # a component's symbols dominate only one another, so it
                    # is a chain exactly when all k(k - 1)/2 of its pairs are
                    # ordered, and the more a symbol dominates the higher it is
                    below = {i: len(self._reach[names[i]]) for i in members}
                    k = len(members)
                    if sum(below.values()) == k * (k - 1) // 2:
                        ranked = sorted(members, key=below.__getitem__, reverse=True)
                        walks.append((np.asarray(ranked), None))
                        last = None
                        continue
                    local = {names[i]: bit for bit, i in enumerate(members)}
                    above = [0] * k
                    for name, bit in local.items():
                        for lesser in self._reach[name]:
                            above[local[lesser]] |= 1 << bit
                    if above == last:
                        block, pick = walks[-1]
                        walks[-1] = (np.vstack([block, members]), pick)
                        continue
                    pick = _extension_picker(*_lattice(above))
                    walks.append((np.asarray([members]), pick))
                    last = above
                object.__setattr__(self, "_plan", (names, free, walks))
            except SamplingExhaustedError as failed:
                # no traceback: its frames hold the enumeration's lists
                object.__setattr__(self, "_plan", failed.with_traceback(None))
        if isinstance(self._plan, SamplingExhaustedError):
            raise SamplingExhaustedError(*self._plan.args)
        return self._plan

    def sample_realization(self, seed, size=None):
        """Numeric realizations of the symbols, uniform on the certain order.

        The values are iid uniform on [0, 1] conditioned on every certain
        constraint holding strictly (ties have measure zero), drawn exactly,
        without rejection. ``size=None`` gives one ``{name: float}``; an
        integer ``size`` gives ``{name: array}`` of that many independent
        rows, at most ``MAX_TRIALS`` values (rows times symbols) in all.
        Deterministic for a given seed, an integer >= 0 or a list or tuple
        of them (numpy PCG64). The plan the draws follow is built on the
        first call and kept with the set. A component of the order with more
        than ``SAMPLING_DOWNSET_CAP`` downsets raises SamplingExhaustedError;
        the failure is kept too, so later calls raise it again at once.
        """
        for part in seed if isinstance(seed, (list, tuple)) else (seed,):
            check_seed(part)
        if size is not None:
            check_integer("size", size, 0, MAX_TRIALS)
            # checked before anything is built: the values alone take 8
            # bytes each
            width = len(self.symbols)
            if size * width > MAX_TRIALS:
                raise ValidationError(
                    f"size * symbols must be <= {MAX_TRIALS}, "
                    f"got {size} * {width}"
                )
        import numpy as np

        names, free, walks = self._sampling_plan()
        rows = 1 if size is None else int(size)
        rng = np.random.default_rng(seed)
        values = np.empty((len(names), rows))
        if free:
            values[free] = rng.random((len(free), rows))
        for members, pick in walks:
            if pick is None:  # a chain skips its walk uniforms unallocated
                k = len(members)
                rng.bit_generator.advance(k * rows)
                draws = rng.random((rows, k))
                draws.sort(axis=1)
                values[members] = draws.T[::-1]
                continue
            g, k = members.shape
            per = max(1, _SAMPLE_BATCH // (k * rows or 1))  # components per batch
            for start in range(0, g, per):
                # a call, so the batch's read and columns go before the next
                _place(values, members[start:start + per], pick, rng, rows)
        if size is None:
            return {name: float(v[0]) for name, v in zip(names, values)}
        return dict(zip(names, values))

    def __repr__(self):
        scope = "open" if self.universe is None else f"{len(self.universe)} symbols"
        return f"ConstraintSet({len(self.constraints)} constraints, {scope})"
