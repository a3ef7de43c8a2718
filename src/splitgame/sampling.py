"""Values iid uniform on [0, 1] conditioned on a certain order, drawn exactly.

``plan(names, reach)`` builds what drawing needs of an order, a ``Plan``
whose ``draw(seed, rows)`` draws. Each connected component picks a linear
extension by a walk of its downset lattice with the counted share of each
next symbol (Brightwell & Winkler, Order 8, 1991), tabulated when the table
takes at most ``_TABLE_ROWS`` rows, and places its sorted draws in it.

A draw reads its generator in one order: the free symbols' (free, rows)
values, then per component in turn its (k, rows) walk uniforms and its
(rows, k) draws. A chain's walk uniforms are read and left unused, or skipped
unallocated; a double is one 64-bit step, so the stream is the same.
"""
import numpy as np

from .constraints import _search
from .errors import SamplingExhaustedError

# most values (rows times symbols) one batch of components with one local
# order draws and places; bounds its memory, as ``SIMULATE_BLOCK`` does in
# ``simulate_selection``. A component larger than this is a batch of its own
_SAMPLE_BATCH = 1 << 16

# most downsets enumerated for one connected component of the certain order:
# every component of a game up to 3x3 (18 symbols) fits, the widest (one
# symbol above 17 others) having 2**17 + 1; a chain builds no lattice
SAMPLING_DOWNSET_CAP = 1 << 18

# most rows of a component's tabulated walk; a larger one walks per draw
_TABLE_ROWS = 1 << 12


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
    The downsets (bitmasks of the symbols placed from the top) are enumerated
    breadth first, and their completions counted backwards. Returns
    ``(follow, cumulative)``: per downset but the full one, the downset each
    next symbol reaches and its cumulative share, ending in exactly 1.
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
    ``_lattice`` tables and (k, rows, 1) uniforms, all rows walking together:
    a (k, rows) array of each row's symbol at each depth from the top."""
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

    At a depth the walk compares its uniform only with the shares of the
    downsets it can reach there, so a uniform picks as the start of its gap
    between them does: the walk is tabulated, a row per combination of
    per-depth gaps, and a pick sums each uniform's gap code into a row.
    """
    def walk(u):  # the walk's (k, n) symbols from the top as (n, k) columns
        order = _linear_extensions(follow, cumulative, u)
        cols = np.empty(order.shape[::-1], dtype=np.intp)
        cols[np.arange(len(cols)), order] = np.arange(len(order))[::-1, None]
        return cols

    starts, strides, rows = [], [], 1
    states = np.zeros(1, dtype=np.intp)
    for _ in range(follow.shape[1] - 1):  # the last depth has one symbol left
        shares = cumulative[states]
        # the gaps' starts: 0 and each share below 1, which u never reaches
        starts.append(np.array(sorted({0.0, *shares[shares < 1.0].tolist()})))
        strides.append(rows)
        rows *= len(starts[-1])
        if rows > _TABLE_ROWS:
            return walk
        at, j = np.nonzero(np.diff(shares, prepend=0.0) > 0)  # the moves
        states = np.flatnonzero(np.bincount(follow[states[at], j]))
    u = np.zeros((follow.shape[1], rows, 1))
    for depth, (gaps, stride) in enumerate(zip(starts, strides)):
        u[depth, :, 0] = gaps[np.arange(rows) // stride % len(gaps)]
    cols = walk(u)
    # one search finds a uniform's gap among every depth's starts, ``low``;
    # ``codes`` gives each such gap, per depth, as its own gap times its stride
    low = np.array(sorted({gap for gaps in starts for gap in gaps.tolist()}))
    codes = np.array([(gaps.searchsorted(low, "right") - 1) * stride
                      for gaps, stride in zip(starts, strides)])
    offsets = np.arange(0, codes.size, len(low))[:, None]

    def pick(u):  # the last depth's uniform is not read
        gaps = low[1:].searchsorted(u[:-1, :, 0], "right")
        gaps += offsets
        return cols.take(codes.take(gaps).sum(axis=0), axis=0)

    return pick


def plan(names, reach):
    """What drawing needs of the order over the sorted ``names``, each mapped
    by ``reach`` to its lesser names: the names, the free ones' indices, and
    per run of adjacent components with one local order (equal ``above``)
    their (g, k) indices and one ``_extension_picker``; a chain's members
    from the top and None, ending a run. A component over
    ``SAMPLING_DOWNSET_CAP`` downsets raises SamplingExhaustedError."""
    free, walks, last = [], [], None  # ``last``: the local order of walks[-1]
    for members in _components(names, reach):
        if len(members) == 1:
            free.append(members[0])
            continue
        # its symbols dominate only one another, so it is a chain exactly when
        # all k(k - 1)/2 of its pairs are ordered, the higher dominating more
        below = {i: len(reach[names[i]]) for i in members}
        k = len(members)
        if sum(below.values()) == k * (k - 1) // 2:
            ranked = sorted(members, key=below.__getitem__, reverse=True)
            walks.append((np.asarray(ranked), None))
            last = None
            continue
        local = {names[i]: bit for bit, i in enumerate(members)}
        above = [0] * k
        for name, bit in local.items():
            for lesser in reach[name]:
                above[local[lesser]] |= 1 << bit
        if above == last:
            block, pick = walks[-1]
            walks[-1] = (np.vstack([block, members]), pick)
            continue
        walks.append((np.asarray([members]), _extension_picker(*_lattice(above))))
        last = above
    kept = Plan((names, free, walks))
    if all(pick is None for _, pick in walks):  # free symbols and chains only
        kept.stream = len(free) + 2 * sum(len(members) for members, _ in walks)
    return kept


def _place(values, block, pick, rng, rows):
    """Draw and place the components of one local order whose indices are
    the (n, k) ``block``, reading per component its (k, rows) walk uniforms
    then its (rows, k) draws: one pick, one sort of each row's draws in
    place, and one gather into the picked columns of ``values``."""
    n, k = block.shape
    read = rng.random((n, 2, k * rows))
    walk = read[:, 0].reshape(n, k, rows).transpose(1, 0, 2)
    cols = pick(walk.reshape(k, n * rows, 1)).reshape(n, rows, k)
    read[:, 1].reshape(n, rows, k).sort(axis=2)
    # columns to flat indices into ``read``: a row's draws start every k
    # values in the second half of its component's part
    cols += np.arange(0, read.size, k).reshape(n, 2 * rows)[:, rows:, None]
    values[block] = read.take(cols).transpose(0, 2, 1)


class Plan(tuple):
    """``(names, free, walks)`` from ``plan``, with ``stream``, the values a
    row reads (None if a run walks), and ``layout``, the last (rows, gather)."""

    stream = layout = None

    def draw(self, seed, rows) -> np.ndarray:
        """(symbols, rows) values from numpy's PCG64 seeded with ``seed``; a
        stream of free symbols and chains within ``_SAMPLE_BATCH`` values is
        one read, a sort per chain and one gather through the kept layout."""
        names, free, walks = self
        rng = np.random.default_rng(seed)
        if self.stream is not None and rows * self.stream <= _SAMPLE_BATCH:
            stream = rng.random(rows * self.stream)
            kept = self.layout  # read once: a concurrent draw swaps it whole
            if kept is None or kept[0] != rows:  # each value's stream index
                layout = np.empty((len(names), rows), dtype=np.intp)
                at = len(free) * rows
                layout[free] = np.arange(at).reshape(len(free), rows)
                for members, _ in walks:  # a chain's top: a row's last draw
                    k = len(members)
                    at += 2 * k * rows
                    layout[members] = np.arange(at - k * rows, at).reshape(rows, k).T[::-1]
                kept = self.layout = rows, layout
            at = len(free) * rows
            for members, _ in walks:
                k = len(members)
                at += 2 * k * rows
                stream[at - k * rows:at].reshape(rows, k).sort(axis=1)
            return stream.take(kept[1])
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
        return values
