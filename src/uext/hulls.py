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
from .frame import Frame, induced_subframe, relation_image
from .syntax import fold

CERT_VERSION = b"HT1"


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
        dist = {self.root: 0}
        frontier = [self.root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.graph.succ[v] | self.graph.pred[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist


@dataclass(frozen=True)
class HullType:
    certificate: bytes
    size: int
    depth: int

    @property
    def hex(self) -> str:
        return self.certificate.hex()


def hull(frame: Frame, w: str, n: int) -> RootedGraph:
    """The n-Hull of w: iterate the both-direction neighborhood n times from {w}."""
    frame.check_vertices([w])
    if n < 0:
        raise InputError("hull depth must be nonnegative")
    reach = frozenset([w])
    for _ in range(n):
        reach = reach | relation_image(frame, reach, "both")
    return RootedGraph(induced_subframe(frame, reach), w, n)


def endpoints(h: RootedGraph) -> frozenset[str]:
    """Vertices first reached at layer exactly depth; empty if the hull saturated."""
    if h.depth < 1:
        raise InputError("endpoints need depth >= 1")
    return frozenset(v for v, d in h.layers.items() if d == h.depth)


def _initial_colors(h: RootedGraph) -> dict[str, int]:
    g = h.graph
    sig = {
        v: (v == h.root, len(g.succ[v]), len(g.pred[v]), g.has_edge(v, v))
        for v in g.vertices
    }
    ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
    return {v: ranks[sig[v]] for v in g.vertices}


def _refine(g: Frame, colors: dict[str, int]) -> dict[str, int]:
    while True:
        sig = {
            v: (
                colors[v],
                tuple(sorted(colors[w] for w in g.succ[v])),
                tuple(sorted(colors[w] for w in g.pred[v])),
            )
            for v in g.vertices
        }
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: ranks[sig[v]] for v in g.vertices}
        if len(set(new.values())) == len(set(colors.values())):
            return new
        colors = new


def _canonical_bytes(h: RootedGraph, colors: dict[str, int]) -> bytes:
    g = h.graph
    cells: dict[int, list[str]] = {}
    for v in g.vertices:
        cells.setdefault(colors[v], []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        order = sorted(g.vertices, key=colors.__getitem__)
        pos = {v: i for i, v in enumerate(order)}
        edges = sorted((pos[a], pos[b]) for a, b in g.edges)
        body = f"n={len(order)};root={pos[h.root]};edges={edges}"
        return CERT_VERSION + b"|" + body.encode()
    best = None
    fresh = max(colors.values()) + 1
    for v in target:
        branched = dict(colors)
        branched[v] = fresh
        cert = _canonical_bytes(h, _refine(g, branched))
        if best is None or cert < best:
            best = cert
    return best


def canonical_form(h: RootedGraph) -> HullType:
    """Deterministic certificate; equal certificates iff rooted isomorphism."""
    colors = _refine(h.graph, _initial_colors(h))
    return HullType(_canonical_bytes(h, colors), len(h.graph.vertices), h.depth)


def rooted_iso(h1: RootedGraph, h2: RootedGraph) -> tuple[bool, dict[str, str] | None]:
    """Exact root-preserving digraph isomorphism with a witness mapping."""
    g1, g2 = h1.graph, h2.graph
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False, None
    c1 = _refine(g1, _initial_colors(h1))
    c2 = _refine(g2, _initial_colors(h2))
    if sorted(c1.values()) != sorted(c2.values()):
        return False, None

    # map in BFS-from-root order so each new vertex is constrained immediately
    order = sorted(g1.vertices, key=lambda v: (h1.layers.get(v, len(g1.vertices)), g1.index[v]))

    def backtrack(i: int, mapping: dict[str, str], used: set[str]):
        if i == len(order):
            return dict(mapping)
        a = order[i]
        candidates = [h2.root] if a == h1.root else [
            b for b in g2.vertices if b not in used and c2[b] == c1[a] and (b == h2.root) == (a == h1.root)
        ]
        for b in candidates:
            if b in used:
                continue
            ok = True
            for a2, b2 in mapping.items():
                if g1.has_edge(a, a2) != g2.has_edge(b, b2) or g1.has_edge(a2, a) != g2.has_edge(b2, b):
                    ok = False
                    break
            if ok and g1.has_edge(a, a) == g2.has_edge(b, b):
                mapping[a] = b
                used.add(b)
                res = backtrack(i + 1, mapping, used)
                if res is not None:
                    return res
                del mapping[a]
                used.discard(b)
        return None

    witness = backtrack(0, {}, set())
    return (witness is not None), witness


def hull_formula(h: RootedGraph) -> FOFormula:
    """The one-free-variable formula whose truth at v says hull(F, v, n) is
    rooted-isomorphic to h.

    One existential per non-root vertex (nested in BFS order so evaluation
    prunes early), pairwise distinctness, every edge, every non-edge, and a
    closure clause pinning all neighbors of sub-maximal-layer vertices inside
    the quantified set; outside-neighbors of layer-n vertices stay free.
    """
    g = h.graph
    others = sorted(
        (v for v in g.vertices if v != h.root),
        key=lambda v: (h.layers.get(v, len(g.vertices)), g.index[v]),
    )
    names = {h.root: "x"}
    for i, v in enumerate(others):
        names[v] = f"y{i + 1}"
    ordered = [h.root] + others

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

