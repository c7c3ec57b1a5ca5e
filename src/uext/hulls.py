"""n-Hulls: rooted neighborhood subframes, exact rooted isomorphism, canonical
certificates, and the first-order formulas pinning a hull's rooted type.

Certificates come from root-seeded color refinement (`frame.refine`, counting
neighbours' colours both ways) with individualization backtracking: the least
leaf of the search tree is the certificate, so certificate equality is exactly
rooted isomorphism, and that leaf's labelling gives `rooted_iso` its witness.
Each twin class (vertices with the same neighbours, adjacent or not) is
branched on once, so stars and K_mm-like hulls cost a linear number of
refinements; other symmetry is still searched in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, ResourceError
from .fo import Eq, Exists, FOFormula, Forall, Rel
from .frame import Frame, bits, refine, relabel
from .syntax import MAX_DEPTH, And, Imp, Not, Or, depth, fold

CERT_VERSION = b"HT1"


def rings(g: Frame, root: int, n: int) -> list[int]:
    """Undirected BFS from vertex index root for at most n steps, as one bitmask per
    distance from 0 up; it stops as soon as a step reaches nothing new."""
    seen = frontier = 1 << root
    out = [frontier]
    for _ in range(n):
        frontier = (g.image(frontier, True) | g.image(frontier, False)) & ~seen
        if not frontier:
            break
        seen |= frontier
        out.append(frontier)
    return out


@dataclass(frozen=True)
class RootedGraph:
    """An induced subframe with a distinguished root and the radius it came from."""

    graph: Frame
    root: str
    depth: int

    def __post_init__(self):
        self.graph.check_vertices([self.root])

    @cached_property
    def layers(self) -> dict[str, int]:
        """Undirected BFS distance from the root within the hull."""
        g = self.graph
        by_distance = rings(g, g.index[self.root], len(g.vertices))
        return {v: d for d, ring in enumerate(by_distance) for v in g.names(ring)}

    @cached_property
    def order(self) -> list[int]:
        """Vertex indices by distance from the root, then load order; unreached vertices last."""
        g = self.graph
        by_distance = rings(g, g.index[self.root], len(g.vertices))
        return [i for ring in by_distance + [(1 << len(g.vertices)) - 1 - sum(by_distance)] for i in bits(ring)]

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """The successor rows renumbered in `order`, the root first.  Two rooted graphs of equal
        shape are rooted-isomorphic through their positions, so their certificates are equal."""
        place = [0] * len(self.order)
        for k, i in enumerate(self.order):
            place[i] = 1 << k
        return tuple(relabel(self.graph.succ_mask[i], place) for i in self.order)


@dataclass(frozen=True)
class HullType:
    certificate: bytes
    size: int
    depth: int

    @property
    def hex(self) -> str:
        return self.certificate.hex()


def hull(frame: Frame, w: str, n: int) -> RootedGraph:
    """The n-Hull of w: the points within n undirected steps of w, and the edges among them."""
    root = frame.position(w)
    if n < 0:
        raise InputError("hull depth must be nonnegative")
    return RootedGraph(frame.restrict(sum(rings(frame, root, n))), w, n)  # the rings are disjoint


def endpoints(h: RootedGraph) -> frozenset[str]:
    """Vertices first reached at layer exactly depth; empty if the hull saturated."""
    if h.depth < 1:
        raise InputError("endpoints need depth >= 1")
    return frozenset(v for v, d in h.layers.items() if d == h.depth)


def _canonical_bytes(h: RootedGraph, adj, twins, colors: list) -> tuple[bytes, list[int]]:
    """The least leaf below this colouring, the first reached of equal ones: its certificate and
    its labelling.  The search keeps its own stack, so a star of any size searches one path."""
    def counting(c: list) -> list:
        return [(c[i], tuple(sorted([c[j] for j in s])), tuple(sorted([c[j] for j in p])))
                for i, (s, p) in enumerate(zip(*adj))]

    best, todo = None, [colors]
    while todo:
        *_, colors = refine(todo.pop(), counting)
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            # refined colours are ranks 0..n-1, so a discrete colouring is the vertex order
            edges = sorted((colors[a], colors[b]) for a, row in enumerate(adj[0]) for b in row)
            body = f"n={len(colors)};root={colors[h.graph.index[h.root]]};edges={edges}"
            cert = CERT_VERSION + b"|" + body.encode()
            if best is None or cert < best[0]:
                best = cert, colors
            continue
        children, branched_keys = [], set()
        fresh = max(colors) + 1
        for i in target:
            # swapping i with a twin already branched on fixes the root and every individualised
            # vertex, so that branch's subtree has the same least leaf
            if not branched_keys.isdisjoint(twins[i]):
                continue
            branched_keys.update(twins[i])
            branched = list(colors)
            branched[i] = fresh
            children.append(branched)
        todo.extend(reversed(children))  # the first child is searched first
    return best


def _labelling(h: RootedGraph) -> tuple[bytes, list[int]]:
    """The certificate of h and the labelling (vertex index -> rank) of the leaf it was read off."""
    g, root = h.graph, h.graph.index[h.root]
    adj = [list(bits(row)) for row in g.succ_mask], [list(bits(row)) for row in g.pred_mask]
    # two vertices share the first key when they are non-adjacent twins and the second when
    # they are adjacent ones (a key of one kind never equals one of the other); the loop bit
    # is kept apart because the own bit is overwritten
    twins = []
    for i, (s, p) in enumerate(zip(g.succ_mask, g.pred_mask)):
        own, loop = 1 << i, s >> i & 1
        twins.append(((s & ~own, p & ~own, loop), (s | own, p | own, loop)))
    keys = [(i == root, len(s), len(p), i in s) for i, (s, p) in enumerate(zip(*adj))]
    return _canonical_bytes(h, adj, twins, keys)


def canonical_form(h: RootedGraph) -> HullType:
    """Deterministic certificate; equal certificates iff rooted isomorphism."""
    return HullType(_labelling(h)[0], len(h.graph.vertices), h.depth)


def _size(g: Frame) -> int:
    """The number of edges."""
    return sum(map(int.bit_count, g.succ_mask))


def rooted_iso(h1: RootedGraph, h2: RootedGraph) -> tuple[bool, dict[str, str] | None]:
    """Exact root-preserving digraph isomorphism; the witness maps each vertex of h1 to the
    vertex of h2 with the same canonical label."""
    g1, g2 = h1.graph, h2.graph
    if len(g1.vertices) != len(g2.vertices) or _size(g1) != _size(g2):
        return False, None
    (cert1, labels1), (cert2, labels2) = _labelling(h1), _labelling(h2)
    if cert1 != cert2:
        return False, None
    by_label = {c: g2.vertices[b] for b, c in enumerate(labels2)}
    return True, {v: by_label[c] for v, c in zip(g1.vertices, labels1)}


def hull_formula(h: RootedGraph) -> FOFormula:
    """The one-free-variable formula whose truth at v says hull(F, v, n) is
    rooted-isomorphic to h.

    One existential per non-root vertex (nested in BFS order so evaluation
    prunes early), pairwise distinctness, every edge, every non-edge, and a
    closure clause pinning all neighbors of sub-maximal-layer vertices inside
    the quantified set; outside-neighbors of layer-n vertices stay free.  It
    nests about five levels per vertex, past syntax.MAX_DEPTH from about 20
    vertices on: such a hull raises ResourceError, so every formula returned
    parses back.
    """
    g = h.graph
    ordered = [g.vertices[i] for i in h.order]  # the root first
    too_deep = ResourceError(f"the formula of a {len(ordered)}-vertex hull would nest deeper than "
                             f"the {MAX_DEPTH} levels a formula may nest")
    if 2 * (len(ordered) - 1) > MAX_DEPTH:  # an exists and a conjunction per non-root vertex
        raise too_deep
    names = {v: f"y{i}" if i else "x" for i, v in enumerate(ordered)}

    def literals_for(v: str, prior: list[str]) -> list[FOFormula]:
        lits: list[FOFormula] = []
        # connecting edge literals first: they prune the assignment search
        for u in prior:
            if g.has_edge(u, v):
                lits.append(Rel(names[u], names[v]))
            if g.has_edge(v, u):
                lits.append(Rel(names[v], names[u]))
        lits.append(Rel(names[v], names[v]) if g.has_edge(v, v) else Not(Rel(names[v], names[v])))
        for u in prior:
            lits.append(Not(Eq(names[u], names[v])))
            if not g.has_edge(u, v):
                lits.append(Not(Rel(names[u], names[v])))
            if not g.has_edge(v, u):
                lits.append(Not(Rel(names[v], names[u])))
        return lits

    inside = fold(Or, [Eq("z", names[v]) for v in ordered])
    closure = [Forall("z", Imp(edge, inside)) for v in ordered if h.layers[v] < h.depth
               for edge in (Rel(names[v], "z"), Rel("z", names[v]))]
    phi = fold(And, closure + [Eq("x", "x")])
    for i in reversed(range(len(ordered))):  # innermost vertex first
        v = ordered[i]
        body = fold(And, literals_for(v, ordered[:i]) + [phi])
        phi = body if v == h.root else Exists(names[v], body)
    # vertex i adds an exists, a conjunction and 3i + 1 literals of depth <= 2, and the closure
    # nests at most 3V + 2 deep, so only a hull of V >= 20 vertices needs the walk
    if 5 * len(ordered) + 1 > MAX_DEPTH and depth(phi) > MAX_DEPTH:
        raise too_deep
    return phi

