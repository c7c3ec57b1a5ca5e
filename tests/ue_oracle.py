"""Slow references for the ultrafilter-extension relation.

`related` runs, for each pair (u, v) and each definitional mode, its own
enumeration of frozenset subsets, with every image computed from the edge set.
`sweep_rows` is the subset sweep over int bitmasks, fast enough for frames of
a dozen points.  The module imports nothing from uext, so both stay
independent of the bit-sliced kernel they check.  Ultrafilters over a finite
carrier are principal and are given by their points.
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


def sweep_rows(vertices, edges):
    """R^ue under modes A, B and C as one target bitmask per source point.

    The prefix-DP sweep the extension kernel used before it was bit-sliced:
    one pass over every subset X of the points (an int bitmask over the order
    of `vertices`) folds all three modes, with the images of X following
    img[X] = img[X - {i}] | R(i) for the lowest point i of X.

    mode A: the sources of v are the intersection of R-(X) over all X containing v
    mode B: the targets of u are the intersection of all Y with u in l_R(Y)
    mode C: the targets of u are the intersection of R+(X) over all X containing u
    """
    n = len(vertices)
    index = {w: i for i, w in enumerate(vertices)}
    succ, pred = [0] * n, [0] * n
    for a, b in edges:
        succ[index[a]] |= 1 << index[b]
        pred[index[b]] |= 1 << index[a]
    full = (1 << n) - 1
    sources_a, targets_b, targets_c = [full] * n, [full] * n, [full] * n
    for w in range(n):
        if not succ[w]:  # w in l_R(empty set)
            targets_b[w] = 0
    fwd, bwd = [0] * (1 << n), [0] * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        i = low.bit_length() - 1
        f = fwd[x] = fwd[x ^ low] | succ[i]
        b = bwd[x] = bwd[x ^ low] | pred[i]
        for w in range(n):
            if x >> w & 1:
                sources_a[w] &= b
                targets_c[w] &= f
            if succ[w] & x == succ[w]:
                targets_b[w] &= x
    targets_a = [sum(1 << v for v in range(n) if sources_a[v] >> u & 1) for u in range(n)]
    return {"A": targets_a, "B": targets_b, "C": targets_c}
