"""Slow references for rooted digraph isomorphism and hull certificates.

A rooted graph here is (vertices, edges, root): a vertex sequence in load
order, a set of (a, b) edge pairs and the root.  `rooted_iso` is a
refinement-pruned backtracker that maps vertices in BFS order from the root;
`certificate` is the individualisation-refinement labeller that branches on
every vertex of the first non-singleton cell, so its least leaf is the byte
string a hull certificate must be.  Both run their own colour refinement over
index lists and import nothing from uext, so they stay independent of the
labelling they check.
"""

CERT_VERSION = b"HT1"


def _adjacency(vertices, edges):
    index = {v: i for i, v in enumerate(vertices)}
    succ, pred = [[] for _ in vertices], [[] for _ in vertices]
    for a, b in sorted((index[a], index[b]) for a, b in edges):
        succ[a].append(b)
        pred[b].append(a)
    return index, succ, pred


def _ranks(signatures):
    table = {s: c for c, s in enumerate(sorted(set(signatures)))}
    return [table[s] for s in signatures]


def _refined(succ, pred, root, colors=None):
    """Equitable colours, seeded by (is root, out-degree, in-degree, loop) unless colors is given."""
    if colors is None:
        colors = _ranks([(i == root, len(succ[i]), len(pred[i]), i in succ[i]) for i in range(len(succ))])
    while True:
        new = _ranks([(colors[i], tuple(sorted(colors[j] for j in succ[i])),
                       tuple(sorted(colors[j] for j in pred[i]))) for i in range(len(succ))])
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def certificate(rooted) -> bytes:
    """The least leaf certificate over the full individualisation tree."""
    vertices, edges, root = rooted
    index, succ, pred = _adjacency(vertices, edges)
    r = index[root]

    def least(colors):
        cell = min((c for c in set(colors) if colors.count(c) > 1), default=None)
        if cell is None:
            pairs = sorted((colors[a], colors[b]) for a in range(len(succ)) for b in succ[a])
            return CERT_VERSION + f"|n={len(colors)};root={colors[r]};edges={pairs}".encode()
        fresh = max(colors) + 1
        return min(least(_refined(succ, pred, r, [fresh if j == i else c for j, c in enumerate(colors)]))
                   for i in range(len(colors)) if colors[i] == cell)

    return least(_refined(succ, pred, r))


def _bfs_order(succ, pred, root):
    order, seen = [root], {root}
    for i in order:
        for j in sorted(set(succ[i]) | set(pred[i])):
            if j not in seen:
                seen.add(j)
                order.append(j)
    return order + [i for i in range(len(succ)) if i not in seen]


def rooted_iso(rooted1, rooted2):
    """(True, witness) for a root-preserving isomorphism, else (False, None)."""
    (v1, e1, root1), (v2, e2, root2) = rooted1, rooted2
    if len(v1) != len(v2) or len(e1) != len(e2):
        return False, None
    (x1, s1, p1), (x2, s2, p2) = _adjacency(v1, e1), _adjacency(v2, e2)
    r1, r2 = x1[root1], x2[root2]
    c1, c2 = _refined(s1, p1, r1), _refined(s2, p2, r2)
    if sorted(c1) != sorted(c2):
        return False, None
    edges1 = {(x1[a], x1[b]) for a, b in e1}
    edges2 = {(x2[a], x2[b]) for a, b in e2}
    order = _bfs_order(s1, p1, r1)

    def fits(a, b, mapping):
        return ((a, a) in edges1) == ((b, b) in edges2) and all(
            ((a, a2) in edges1) == ((b, b2) in edges2) and ((a2, a) in edges1) == ((b2, b) in edges2)
            for a2, b2 in mapping.items())

    def extend(k, mapping, used):
        if k == len(order):
            return dict(mapping)
        a = order[k]
        candidates = [r2] if a == r1 else [b for b in range(len(v2)) if c2[b] == c1[a] and b != r2]
        for b in candidates:
            if b not in used and fits(a, b, mapping):
                mapping[a] = b
                found = extend(k + 1, mapping, used | {b})
                if found is not None:
                    return found
                del mapping[a]
        return None

    found = extend(0, {}, frozenset())
    if found is None:
        return False, None
    return True, {v1[a]: v2[b] for a, b in found.items()}
