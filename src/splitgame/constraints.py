"""Probabilistic dominance constraints over payoff symbols.

A constraint asserts p(left > right) for two payoff symbols. Constraints that
are exact with probability 1 ("certain") induce a strict partial order used by
the dominance oracle; everything below probability 1 is soft information
reserved for the probability calculus and never answers an order query.
Lower-bound constraints are stored and echoed back (``constraints``,
``Scenario.to_dict``) but never read: no order query, chain probability or
sample uses them.

What is derived from the order (the sampling plan or its build's error, and
``montecarlo.verify_nash_numeric``'s check plans per game) is built on first
use, kept on the set and dropped with it; a set from ``add_constraint``
builds its own. The sampler, ``sampling``, is imported only when drawing, so
``solve`` and ``sweep`` load no numpy, most of a cold ``import splitgame``.
"""
from __future__ import annotations

from collections.abc import Sequence

from ._record import Record, replace
from .errors import (
    MAX_TRIALS,
    InconsistentOrderError,
    MissingProbabilityError,
    SamplingExhaustedError,
    UnknownSymbolError,
    ValidationError,
    _sequence,
    _shown,
    check_integer,
    check_kind,
    check_probability,
    check_seed,
)

BOUND_EXACT = "exact"
BOUND_LOWER = "lower"


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
            raise ValidationError(f"constraint compares {self.left!r} with itself")
        check_probability(f"p({self.left} > {self.right})", self.probability)
        if not isinstance(self.bound, str) or self.bound not in (BOUND_EXACT, BOUND_LOWER):
            raise ValidationError(f"unknown bound kind {_shown(self.bound)}")
        if self.group is not None and not (isinstance(self.group, str) and self.group):
            raise ValidationError(
                "constraint group must be None or a non-empty id, "
                f"got {_shown(self.group)}"
            )

    @property
    def certain(self) -> bool:
        return self.bound == BOUND_EXACT and self.probability == 1.0


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


class ConstraintSet(Record):
    """An immutable collection of dominance constraints.

    The certain constraints must form a DAG; the induced strict partial order
    (their transitive closure) is what ``implies`` answers from.

    If ``universe`` is given, every constraint must stay inside it and order
    queries on ids outside it raise ``UnknownSymbolError``; without one the
    set is open, and unseen ids compare as unknown.

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

        # one pass in input order: ``exact`` holds each ordered pair's exact
        # probability, ``edges`` the certain edges, successors in insertion
        # order (dict keys), so no search depends on the string hash seed. A
        # constraint closes a cycle when its right reaches its left (so has
        # successors, and its left predecessors); it is named with the
        # shortest path back
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
        # then the sampling plan and the check plans, built on first use
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
        """``sampling.plan`` of the order, or the error it raised, kept."""
        if self._plan is None:
            from . import sampling
            try:
                plan = sampling.plan(sorted(self.symbols), self._reach)
            except SamplingExhaustedError as failed:
                plan = failed.with_traceback(None)  # its frames hold the lattice
            object.__setattr__(self, "_plan", plan)
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
        Deterministic for a given seed, an integer >= 0 or a list or tuple of
        them (numpy PCG64). The plan the draws follow is built on the first
        call and kept, as is the SamplingExhaustedError of a component over
        ``sampling.SAMPLING_DOWNSET_CAP`` downsets.
        """
        for part in seed if isinstance(seed, (list, tuple)) else (seed,):
            check_seed(part)
        if size is not None:
            check_integer("size", size, 0, MAX_TRIALS)
            # checked before anything is built: each value takes 8 bytes
            width = len(self.symbols)
            if size * width > MAX_TRIALS:
                raise ValidationError(
                    f"size * symbols must be <= {MAX_TRIALS}, "
                    f"got {size} * {width}"
                )
        plan = self._sampling_plan()  # draws itself: no import per call
        values = plan.draw(seed, 1 if size is None else int(size))
        if size is None:
            return {name: float(v[0]) for name, v in zip(plan[0], values)}
        return dict(zip(plan[0], values))

    def __repr__(self):
        scope = "open" if self.universe is None else f"{len(self.universe)} symbols"
        return f"ConstraintSet({len(self.constraints)} constraints, {scope})"
