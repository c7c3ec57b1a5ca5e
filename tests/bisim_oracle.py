"""Bounded bisimilarity by partition refinement, independent of uext's games.

The two models are put side by side as one disjoint union.  Round 0 colours
each world by the letters true at it; round i + 1 colours it by its round-i
colour and the set of round-i colours of its successors.  Two worlds are
n-bisimilar exactly when they share their round-n colour.  Imports nothing
from uext: a model is a successor map and a valuation map of plain sets.
"""

from __future__ import annotations


def n_bisimilar(model1, w1, model2, w2, n: int, letters) -> bool:
    """model = (succ, val): succ maps each world to its successors, val each letter to its worlds."""
    worlds, succ, colour = [], {}, {}
    for side, (s, val) in enumerate((model1, model2)):
        for w, vs in s.items():
            worlds.append((side, w))
            succ[(side, w)] = [(side, v) for v in vs]
            colour[(side, w)] = tuple(w in val.get(p, ()) for p in sorted(letters))
    for _ in range(n):
        signature = {x: (colour[x], frozenset(colour[y] for y in succ[x])) for x in worlds}
        ids: dict = {}
        colour = {x: ids.setdefault(signature[x], len(ids)) for x in worlds}
    return colour[(0, w1)] == colour[(1, w2)]
