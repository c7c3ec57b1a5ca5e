"""Slow reference for the ultrafilter-extension relation.

Each pair (u, v) and each definitional mode runs its own enumeration of
frozenset subsets, with every image computed from the edge set.  It imports
nothing from uext, so it stays independent of the bitmask kernel it checks.
Ultrafilters over a finite carrier are principal and are given by their points.
"""

import itertools


def subsets(vertices, must_contain=None):
    rest = [v for v in vertices if v != must_contain]
    base = frozenset() if must_contain is None else frozenset([must_contain])
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            yield base | frozenset(combo)


def forward(edges, xs):
    return frozenset(b for a, b in edges if a in xs)


def backward(edges, xs):
    return frozenset(a for a, b in edges if b in xs)


def box(vertices, edges, xs):
    return frozenset(w for w in vertices if all(b in xs for a, b in edges if a == w))


def related(vertices, edges, u, v, mode):
    """R^ue between the principal ultrafilters of points u and v.

    mode A: for every X in v, R-(X) in u
    mode B: {Y : l_R(Y) in u} is a subset of v
    mode C: {R+(X) : X in u} is a subset of v
    """
    if mode == "A":
        return all(u in backward(edges, x) for x in subsets(vertices, v))
    if mode == "B":
        return all(v in y for y in subsets(vertices) if u in box(vertices, edges, y))
    if mode == "C":
        return all(v in forward(edges, x) for x in subsets(vertices, u))
    raise ValueError(f"unknown mode {mode!r}")


def relation(vertices, edges, mode):
    """All pairs (u, v) of points whose principal ultrafilters are related."""
    return frozenset(
        (u, v) for u in vertices for v in vertices if related(vertices, edges, u, v, mode)
    )
