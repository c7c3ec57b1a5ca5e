"""The load-order hull path, kept as the oracle for `uext.hulls`.

A frame here is (vertices, succ): the vertex names in load order and one
successor bitmask per vertex (bit j of succ[i] is set iff vertices[i] R
vertices[j]), as `Frame.vertices` and `Frame.succ_mask` hold them.  The path
is the one hulls took before a hull became its host's rows in BFS order:

1. a BFS over the host finds the points within n steps;
2. `restrict` builds the induced subframe in load order;
3. a second BFS over that subframe gives the layers and the BFS order;
4. the subframe's rows are renumbered in that order (`shape`);
5. the labelling runs in load order over the subframe's adjacency lists;
6. the formula asks for each edge by vertex name.

Nothing here imports uext: `formula_text` prints the formula in `format_fo`'s
syntax, so an agreement test compares uext's output with this module's.
"""

from __future__ import annotations

CERT_VERSION = b"HT1"


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows) -> list[int]:
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


def rings(succ, root: int, n: int) -> list[int]:
    """Undirected BFS from root for at most n steps, one bitmask per distance."""
    pred = transpose(succ)
    seen = frontier = 1 << root
    out = [frontier]
    for _ in range(n):
        step = 0
        for i in bits(frontier):
            step |= succ[i] | pred[i]
        frontier = step & ~seen
        if not frontier:
            break
        seen |= frontier
        out.append(frontier)
    return out


def restrict(vertices, succ, mask: int):
    """The subframe induced by a bitmask, its vertices in load order."""
    keep = list(bits(mask))
    place = {i: k for k, i in enumerate(keep)}
    rows = [sum(1 << place[j] for j in bits(succ[i] & mask)) for i in keep]
    return tuple(vertices[i] for i in keep), rows


class Rooted:
    """A load-order subframe with its root and depth, and what the old path read off it."""

    def __init__(self, vertices, succ, root: str, depth: int):
        self.vertices, self.succ, self.root, self.depth = tuple(vertices), list(succ), root, depth
        r = self.vertices.index(root)
        by_distance = rings(self.succ, r, len(self.vertices))
        self.layers = {self.vertices[i]: d for d, ring in enumerate(by_distance) for i in bits(ring)}
        unreached = (1 << len(self.vertices)) - 1 - sum(by_distance)
        self.order = [i for ring in by_distance + [unreached] for i in bits(ring)]
        place = {i: k for k, i in enumerate(self.order)}
        self.shape = tuple(sum(1 << place[j] for j in bits(self.succ[i])) for i in self.order)

    @property
    def edges(self) -> set[tuple[str, str]]:
        return {(self.vertices[i], self.vertices[j]) for i, row in enumerate(self.succ) for j in bits(row)}

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.succ[self.vertices.index(a)] >> self.vertices.index(b) & 1)


def hull(vertices, succ, w: str, n: int) -> Rooted:
    """The n-hull of w: BFS over the host, the load-order subframe, and a second BFS inside it."""
    return Rooted(*restrict(vertices, succ, sum(rings(succ, vertices.index(w), n))), w, n)


def endpoints(h: Rooted) -> set[str]:
    return {v for v, d in h.layers.items() if d == h.depth}


def _refine(colors, signatures):
    split = True
    while split:
        sig = signatures(colors)
        ranks = {s: c for c, s in enumerate(sorted(set(sig)))}
        split, colors = len(ranks) > len(set(colors)), [ranks[s] for s in sig]
    return colors


def labelling(h: Rooted) -> tuple[bytes, list[int]]:
    """The certificate and the labelling (load-order index -> rank) of the least leaf, searched in
    load order with one branch per twin class, the first reached of equal leaves kept."""
    pred = transpose(h.succ)
    adj = [list(bits(row)) for row in h.succ], [list(bits(row)) for row in pred]
    root = h.vertices.index(h.root)
    twins = []
    for i, (s, p) in enumerate(zip(h.succ, pred)):
        own, loop = 1 << i, s >> i & 1
        twins.append(((s & ~own, p & ~own, loop), (s | own, p | own, loop)))

    def counting(c):
        return [(c[i], tuple(sorted([c[j] for j in s])), tuple(sorted([c[j] for j in p])))
                for i, (s, p) in enumerate(zip(*adj))]

    best = None
    todo = [[(i == root, len(s), len(p), i in s) for i, (s, p) in enumerate(zip(*adj))]]
    while todo:
        colors = _refine(todo.pop(), counting)
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            edges = sorted((colors[a], colors[b]) for a, row in enumerate(adj[0]) for b in row)
            cert = CERT_VERSION + f"|n={len(colors)};root={colors[root]};edges={edges}".encode()
            if best is None or cert < best[0]:
                best = cert, colors
            continue
        children, branched = [], set()
        fresh = max(colors) + 1
        for i in target:
            if not branched.isdisjoint(twins[i]):
                continue
            branched.update(twins[i])
            child = list(colors)
            child[i] = fresh
            children.append(child)
        todo.extend(reversed(children))
    return best


def certificate(h: Rooted) -> bytes:
    return labelling(h)[0]


def rooted_iso(h1: Rooted, h2: Rooted):
    """Root-preserving isomorphism and its witness, each vertex of h1 to h2's vertex of equal label."""
    (cert1, labels1), (cert2, labels2) = labelling(h1), labelling(h2)
    if cert1 != cert2:
        return False, None
    by_label = {c: h2.vertices[b] for b, c in enumerate(labels2)}
    return True, {v: by_label[c] for v, c in zip(h1.vertices, labels1)}


# formulas as tuples: (kind, ...) with kind one of and, or, imp, not, rel, eq, exists, forall

def _fold(kind: str, parts: list):
    out = parts[0]
    for p in parts[1:]:
        out = (kind, out, p)
    return out


def hull_formula(h: Rooted):
    """The old formula builder: vertex names in BFS order, each edge asked of the subframe by name."""
    ordered = [h.vertices[i] for i in h.order]
    names = {v: f"y{i}" if i else "x" for i, v in enumerate(ordered)}

    def literals_for(v, prior):
        lits = []
        for u in prior:
            if h.has_edge(u, v):
                lits.append(("rel", names[u], names[v]))
            if h.has_edge(v, u):
                lits.append(("rel", names[v], names[u]))
        loop = ("rel", names[v], names[v])
        lits.append(loop if h.has_edge(v, v) else ("not", loop))
        for u in prior:
            lits.append(("not", ("eq", names[u], names[v])))
            if not h.has_edge(u, v):
                lits.append(("not", ("rel", names[u], names[v])))
            if not h.has_edge(v, u):
                lits.append(("not", ("rel", names[v], names[u])))
        return lits

    inside = _fold("or", [("eq", "z", names[v]) for v in ordered])
    closure = [("forall", "z", ("imp", edge, inside)) for v in ordered if h.layers[v] < h.depth
               for edge in (("rel", names[v], "z"), ("rel", "z", names[v]))]
    phi = _fold("and", closure + [("eq", "x", "x")])
    for i in reversed(range(len(ordered))):
        v = ordered[i]
        body = _fold("and", literals_for(v, ordered[:i]) + [phi])
        phi = body if v == h.root else ("exists", names[v], body)
    return phi


SYMBOLS = {"and": " & ", "or": " | ", "imp": " -> "}


def formula_text(phi) -> str:
    """phi printed as `format_fo` prints it: a quantifier under ~ or left of a connective is
    parenthesised, every binary connective is."""
    kind = phi[0]
    quantified = lambda sub: f"({formula_text(sub)})" if sub[0] in ("exists", "forall") else formula_text(sub)  # noqa: E731
    if kind in SYMBOLS:
        return f"({quantified(phi[1])}{SYMBOLS[kind]}{formula_text(phi[2])})"
    if kind == "not":
        return "~" + quantified(phi[1])
    if kind == "rel":
        return f"R({phi[1]},{phi[2]})"
    if kind == "eq":
        return f"{phi[1]}={phi[2]}"
    return f"{kind} {phi[1]}. {formula_text(phi[2])}"
