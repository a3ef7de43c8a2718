"""Exact linear-extension counts for the sampler's acceptance rate.

Rejection sampling draws n iid uniforms and keeps the draw when it honours
every certain relation, which happens with probability e(P) / n!, where
e(P) is the number of linear extensions of the certain order. e(P) is
counted by dynamic programming over the order's downsets, each a bitmask
of the symbols already placed from the top, so posets up to
``MAX_SYMBOLS`` symbols stay cheap.

Run ``python3 perfbench/linext.py`` to check the DP against brute force on
the shipped 8-symbol IPD order, where the acceptance is 1/36.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

MAX_SYMBOLS = 18


def count_linear_extensions(symbols, pairs) -> int:
    """e(P) for the strict order given by (greater, lesser) pairs."""
    symbols = sorted(symbols)
    n = len(symbols)
    if n > MAX_SYMBOLS:
        raise ValueError(f"{n} symbols exceed the {MAX_SYMBOLS}-symbol cap")
    index = {name: i for i, name in enumerate(symbols)}
    above = [0] * n  # bitmask of the symbols that must be placed first
    for greater, lesser in pairs:
        above[index[lesser]] |= 1 << index[greater]
    counts = {0: 1}
    for _ in range(n):
        layer = {}
        for placed, ways in counts.items():
            for i in range(n):
                bit = 1 << i
                if not placed & bit and not above[i] & ~placed:
                    layer[placed | bit] = layer.get(placed | bit, 0) + ways
        counts = layer
    return counts[(1 << n) - 1]


def count_by_brute_force(symbols, pairs) -> int:
    symbols = sorted(symbols)
    total = 0
    for order in itertools.permutations(symbols):
        rank = {name: i for i, name in enumerate(order)}
        total += all(rank[a] < rank[b] for a, b in pairs)
    return total


def acceptance(symbols, pairs) -> Fraction:
    return Fraction(count_linear_extensions(symbols, pairs), math.factorial(len(symbols)))


if __name__ == "__main__":
    from gen import IPD_ASSUMPTIONS, IPD_RELATIONS

    pairs = IPD_RELATIONS + IPD_ASSUMPTIONS
    symbols = {s for pair in pairs for s in pair}
    dp, brute = count_linear_extensions(symbols, pairs), count_by_brute_force(symbols, pairs)
    print(f"IPD order: e(P) = {dp} (DP), {brute} (brute force); acceptance {acceptance(symbols, pairs)}")
    if dp != brute or acceptance(symbols, pairs) != Fraction(1, 36):
        raise SystemExit(1)
