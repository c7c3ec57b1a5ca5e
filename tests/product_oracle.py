"""Slow reference for a finite ultraproduct under a principal index ultrafilter.

`ultraproduct` enumerates every choice function with itertools.product,
groups them by their value at the principal index, keeps the first of each
class, and joins two classes when the set of indices whose factor has the edge
between their values contains the principal index.  The module imports
nothing from uext.
"""

import itertools


def ultraproduct(factors, i0):
    """(class ids in order, edges between them, representatives) for factors given
    as (vertices, edges) pairs and the ultrafilter principal at index i0."""
    classes = {}
    for func in itertools.product(*(vertices for vertices, _ in factors)):
        classes.setdefault(func[i0], []).append(func)
    order = [w for w in factors[i0][0] if w in classes]
    reps = [classes[w][0] for w in order]
    edges = {(fa[i0], fb[i0]) for fa in reps for fb in reps
             if i0 in {i for i, (_, es) in enumerate(factors) if (fa[i], fb[i]) in es}}
    return order, edges, reps
