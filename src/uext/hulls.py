"""n-Hulls: rooted neighborhood subframes, exact rooted isomorphism, canonical
certificates, and the first-order formulas pinning a hull's rooted type.

Certificates come from root-seeded color refinement with full
individualization backtracking, so certificate equality is exactly rooted
isomorphism.  Hulls are small by construction (bounded degree, small depth),
so no attempt is made to compete with general-purpose canonical labelers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .fo import Conj, Disj, Eq, Exists, FOFormula, Forall, Impl, Neg, Rel
from .frame import Frame, bits
from .syntax import fold

CERT_VERSION = b"HT1"


def rings(g: Frame, root: int, n: int) -> list[int]:
    """Undirected BFS from vertex index root for at most n steps, as one bitmask per
    distance from 0 up; it stops as soon as a step reaches nothing new."""
    succ, pred = g.succ_mask, g.pred_mask
    seen = frontier = 1 << root
    out = [frontier]
    for _ in range(n):
        nxt = 0
        for i in bits(frontier):
            nxt |= succ[i] | pred[i]
        frontier = nxt & ~seen
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
        n = len(self.graph.vertices)
        return sorted(range(n), key=lambda i: (self.layers.get(self.graph.vertices[i], n), i))


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


def _adjacency(g: Frame) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor index lists, read once per labelling."""
    return [list(bits(row)) for row in g.succ_mask], [list(bits(row)) for row in g.pred_mask]


def _initial_colors(h: RootedGraph, adj) -> list[int]:
    (succ, pred), root = adj, h.graph.index[h.root]
    sig = [(i == root, len(succ[i]), len(pred[i]), i in succ[i]) for i in range(len(succ))]
    ranks = {s: c for c, s in enumerate(sorted(set(sig)))}
    return [ranks[s] for s in sig]


def _refine(adj, colors: list[int]) -> list[int]:
    succ, pred = adj
    while True:
        sig = [(colors[i], tuple(sorted([colors[j] for j in s])), tuple(sorted([colors[j] for j in p])))
               for i, (s, p) in enumerate(zip(succ, pred))]
        ranks = {s: c for c, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if len(ranks) == len(set(colors)):
            return new
        colors = new


def _canonical_bytes(h: RootedGraph, adj, colors: list[int]) -> bytes:
    cells: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, []).append(i)
    target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
    if target is None:
        # refined colours are ranks 0..n-1, so a discrete colouring is the vertex order
        edges = sorted((colors[a], colors[b]) for a, row in enumerate(adj[0]) for b in row)
        body = f"n={len(colors)};root={colors[h.graph.index[h.root]]};edges={edges}"
        return CERT_VERSION + b"|" + body.encode()
    best = None
    fresh = max(colors) + 1
    for i in target:
        branched = list(colors)
        branched[i] = fresh
        cert = _canonical_bytes(h, adj, _refine(adj, branched))
        if best is None or cert < best:
            best = cert
    return best


def canonical_form(h: RootedGraph) -> HullType:
    """Deterministic certificate; equal certificates iff rooted isomorphism."""
    adj = _adjacency(h.graph)
    colors = _refine(adj, _initial_colors(h, adj))
    return HullType(_canonical_bytes(h, adj, colors), len(h.graph.vertices), h.depth)


def rooted_iso(h1: RootedGraph, h2: RootedGraph) -> tuple[bool, dict[str, str] | None]:
    """Exact root-preserving digraph isomorphism with a witness mapping."""
    g1, g2 = h1.graph, h2.graph
    n = len(g1.vertices)
    if n != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False, None
    a1, a2 = _adjacency(g1), _adjacency(g2)
    c1, c2 = _refine(a1, _initial_colors(h1, a1)), _refine(a2, _initial_colors(h2, a2))
    if sorted(c1) != sorted(c2):
        return False, None
    s1, s2, r1, r2 = g1.succ_mask, g2.succ_mask, g1.index[h1.root], g2.index[h2.root]

    def fits(a: int, b: int, mapping: dict[int, int]) -> bool:
        """Whether a -> b keeps every edge to, from and between the mapped vertices."""
        return (s1[a] >> a & 1) == (s2[b] >> b & 1) and all(
            (s1[a] >> a2 & 1) == (s2[b] >> b2 & 1) and (s1[a2] >> a & 1) == (s2[b2] >> b & 1)
            for a2, b2 in mapping.items())

    def backtrack(i: int, mapping: dict[int, int], used: int):
        if i == n:
            return dict(mapping)
        a = h1.order[i]  # BFS from the root, so each new vertex is constrained at once
        candidates = [r2] if a == r1 else [b for b in range(n) if c2[b] == c1[a] and b != r2]
        for b in candidates:
            if not used >> b & 1 and fits(a, b, mapping):
                mapping[a] = b
                res = backtrack(i + 1, mapping, used | 1 << b)
                if res is not None:
                    return res
                del mapping[a]
        return None

    witness = backtrack(0, {}, 0)
    if witness is None:
        return False, None
    return True, {g1.vertices[a]: g2.vertices[b] for a, b in witness.items()}


def hull_formula(h: RootedGraph) -> FOFormula:
    """The one-free-variable formula whose truth at v says hull(F, v, n) is
    rooted-isomorphic to h.

    One existential per non-root vertex (nested in BFS order so evaluation
    prunes early), pairwise distinctness, every edge, every non-edge, and a
    closure clause pinning all neighbors of sub-maximal-layer vertices inside
    the quantified set; outside-neighbors of layer-n vertices stay free.
    """
    g = h.graph
    ordered = [g.vertices[i] for i in h.order]  # the root first
    names = {v: f"y{i}" if i else "x" for i, v in enumerate(ordered)}

    def literals_for(v: str, prior: list[str]) -> list[FOFormula]:
        lits: list[FOFormula] = []
        # connecting edge literals first: they prune the assignment search
        for u in prior:
            if g.has_edge(u, v):
                lits.append(Rel(names[u], names[v]))
            if g.has_edge(v, u):
                lits.append(Rel(names[v], names[u]))
        lits.append(Rel(names[v], names[v]) if g.has_edge(v, v) else Neg(Rel(names[v], names[v])))
        for u in prior:
            lits.append(Neg(Eq(names[u], names[v])))
            if not g.has_edge(u, v):
                lits.append(Neg(Rel(names[u], names[v])))
            if not g.has_edge(v, u):
                lits.append(Neg(Rel(names[v], names[u])))
        return lits

    def closure() -> list[FOFormula]:
        clauses: list[FOFormula] = []
        inside = fold(Disj, [Eq("z", names[v]) for v in ordered])
        for v in ordered:
            if h.layers[v] < h.depth:
                clauses.append(Forall("z", Impl(Rel(names[v], "z"), inside)))
                clauses.append(Forall("z", Impl(Rel("z", names[v]), inside)))
        return clauses

    def build(i: int) -> FOFormula:
        if i == len(ordered):
            return fold(Conj, closure() + [Eq("x", "x")])
        v = ordered[i]
        lits = literals_for(v, ordered[:i])
        body = fold(Conj, lits + [build(i + 1)])
        return body if v == h.root else Exists(names[v], body)

    return build(0)

