"""n-Hulls: rooted neighborhoods read off their host frame's rows, exact rooted
isomorphism, canonical certificates, and the first-order formulas pinning a
hull's rooted type.

A hull is its host's rows in BFS order, and every rooted graph is its root's
hull: `RootedGraph` (which `hull` returns) runs one undirected BFS from the
root and keeps its rings, one bitmask per distance.  The BFS order (root first,
then by distance, then load order) numbers the hull's points, and `shape`, the
host rows masked to the hull and renumbered in that order, is what the
labelling, a census's memo and `hull_formula` (which writes a formula's text
from it) read.  The load-order subframe (`RootedGraph.graph`) is built only
where it is printed.

Certificates (HT2) come from color refinement (`frame.refine`, counting
neighbours' colours both ways, read only until the colouring is discrete)
seeded by each point's BFS ring, with individualization backtracking: the least
leaf of the search tree is the certificate, so certificate equality is exactly
rooted isomorphism, and that leaf's labelling gives `rooted_iso` its witness.
Each twin class (vertices with the same neighbours, adjacent or not; keyed only
once a cell of two or more is left) is individualised in one step, so stars and
K_mm-like hulls cost a few refinements; other symmetry is still searched in full.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import InputError
from .frame import Frame, Frozen, any_of, bits, refine, relabel, transpose

CERT_VERSION = b"HT2"


def rings(g: Frame, root: int, n: int) -> list[int]:
    """Undirected BFS from vertex index root for at most n steps, as one bitmask per
    distance from 0 up; it stops as soon as a step reaches nothing new."""
    succ, pred = g.succ_mask, g.pred_mask

    def neighbours(j: int) -> int:
        return succ[j] | pred[j]

    seen = frontier = 1 << root
    out = [frontier]
    for _ in range(n):
        frontier = any_of(neighbours, frontier) & ~seen
        if not frontier:
            break
        seen |= frontier
        out.append(frontier)
    return out


class RootedGraph(Frozen):
    """A root's hull read off its host frame.  It holds the host, the root's name, the radius,
    the BFS rings from the root (host bitmasks, one per distance from 0 up), the BFS order (the
    host index of each point: the root first, then by distance, then load order), the mask of
    its points in the host, and its shape: the host rows masked to those points and renumbered
    in BFS order, so position 0 is the root.  Two rooted graphs of equal shape are
    rooted-isomorphic through their positions, so their certificates are equal.

    ``RootedGraph(graph, root, depth)`` is the root's depth-hull in the frame graph, its host: one
    BFS gives the rings, and the host rows of the points they reach are renumbered in BFS order.
    The load-order subframe, `graph`, is built only when read.  Rooted graphs are immutable, and
    two are equal when their graphs, roots and depths are.
    """

    host: Frame
    root: str
    depth: int
    rings: tuple[int, ...]
    order: tuple[int, ...]
    mask: int
    shape: tuple[int, ...]

    def __init__(self, graph: Frame, root: str, depth: int):
        start = graph.position(root)
        if depth < 0:
            raise InputError("hull depth must be nonnegative")
        by_distance = rings(graph, start, depth)
        order = [i for ring in by_distance for i in bits(ring)]
        mask = sum(by_distance)  # the rings are disjoint
        place = {i: 1 << k for k, i in enumerate(order)}
        succ = graph.succ_mask
        shape = tuple([relabel(succ[i] & mask, place) for i in order])
        self.__dict__.update(host=graph, root=root, depth=depth, rings=tuple(by_distance), order=tuple(order),
                             mask=mask, shape=shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedGraph):
            return NotImplemented
        return (self.graph, self.root, self.depth) == (other.graph, other.root, other.depth)

    def __hash__(self) -> int:
        return hash((self.graph, self.root, self.depth))

    def __repr__(self) -> str:
        return f"RootedGraph(graph={self.graph!r}, root={self.root!r}, depth={self.depth!r})"

    @cached_property
    def graph(self) -> Frame:
        """The subframe induced by the graph's points, in load order: the host itself when the
        graph has all its points, built by `Frame.restrict` otherwise."""
        host = self.host
        return host if self.mask == (1 << len(host.vertices)) - 1 else host.restrict(self.mask)

    @cached_property
    def layers(self) -> dict[str, int]:
        """Undirected BFS distance from the root, for each point."""
        names = self.host.names
        return {v: d for d, ring in enumerate(self.rings) for v in names(ring)}


class HullType(NamedTuple):
    certificate: bytes
    size: int
    depth: int

    @property
    def hex(self) -> str:
        return self.certificate.hex()


def hull(frame: Frame, w: str, n: int) -> RootedGraph:
    """The n-Hull of w: the points within n undirected steps of w, and the edges among them."""
    return RootedGraph(frame, w, n)


def endpoints(h: RootedGraph) -> frozenset[str]:
    """Vertices first reached at layer exactly depth; empty if the hull saturated."""
    if h.depth < 1:
        raise InputError("endpoints need depth >= 1")
    return frozenset(h.host.names(h.rings[h.depth])) if h.depth < len(h.rings) else frozenset()


def _canonical_bytes(succ, pred, colors: list) -> tuple[bytes, list[int]]:
    """The least leaf below this colouring of the rows succ (pred their transpose), the first
    reached of equal ones: its certificate and its labelling.  The root is vertex 0.  Refinement
    is read only until the colouring is discrete: a discrete colouring cannot split, and the next
    round's ranks equal it.  The search keeps its own stack, so a star of any size searches one path."""
    adj, twins = ([list(bits(row)) for row in succ], [list(bits(row)) for row in pred]), None

    def counting(c: list) -> list:
        return [(c[i], tuple(sorted(map(c.__getitem__, s))), tuple(sorted(map(c.__getitem__, p))))
                for i, (s, p) in enumerate(zip(*adj))]

    best, todo = None, [colors]
    while todo:
        for colors in refine(todo.pop(), counting):
            if len(set(colors)) == len(colors):
                break
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            # refined colours are ranks 0..n-1, so a discrete colouring is the vertex order
            edges = sorted((colors[a], colors[b]) for a, row in enumerate(adj[0]) for b in row)
            body = f"n={len(colors)};root={colors[0]};edges={edges}"
            cert = CERT_VERSION + b"|" + body.encode()
            if best is None or cert < best[0]:
                best = cert, colors
            continue
        if twins is None:
            # two vertices share the first key when they are non-adjacent twins and the second when
            # they are adjacent ones (a key of one kind never equals one of the other); the loop bit
            # is kept apart because the own bit is overwritten
            twins = [((s & ~(1 << i), p & ~(1 << i), s >> i & 1), (s | 1 << i, p | 1 << i, s >> i & 1))
                     for i, (s, p) in enumerate(zip(succ, pred))]
        fresh, first = max(colors) + 1, twins[target[0]]
        if any(all(twins[i][kind] == first[kind] for i in target) for kind in (0, 1)):
            # one twin class: a chain of one-member branches, in index order, ends in this colouring
            individualised = dict(zip(target[:-1], range(fresh, fresh + len(target))))
            todo.append([individualised.get(i, c) for i, c in enumerate(colors)])
            continue
        children, branched_keys = [], set()
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
    """The certificate of h and the labelling (BFS position -> rank) of the leaf it was read off.
    It runs on `shape`, the root at position 0, seeded by (BFS ring, out-degree, in-degree, loop):
    distance from the root is a rooted-isomorphism invariant that refinement from the root alone
    finds one ring per round, and ring 0 is the root alone.  The least leaf is an isomorphism
    invariant, so the certificate does not depend on how the points are numbered."""
    succ = h.shape
    pred = transpose(succ)
    ring = [d for d, r in enumerate(h.rings) for _ in range(r.bit_count())]  # shape is in BFS order
    seed = [(ring[i], s.bit_count(), p.bit_count(), s >> i & 1) for i, (s, p) in enumerate(zip(succ, pred))]
    return _canonical_bytes(succ, pred, seed)


def canonical_form(h: RootedGraph) -> HullType:
    """Deterministic certificate; equal certificates iff rooted isomorphism."""
    return HullType(_labelling(h)[0], len(h.order), h.depth)


def rooted_iso(h1: RootedGraph, h2: RootedGraph) -> tuple[bool, dict[str, str] | None]:
    """Exact root-preserving digraph isomorphism; the witness maps each vertex of h1, in load
    order, to the vertex of h2 with the same canonical label."""
    s1, s2 = h1.shape, h2.shape
    if len(s1) != len(s2) or sum(map(int.bit_count, s1)) != sum(map(int.bit_count, s2)):
        return False, None
    (cert1, labels1), (cert2, labels2) = _labelling(h1), _labelling(h2)
    if cert1 != cert2:
        return False, None
    names1, names2 = h1.host.vertices, h2.host.vertices
    by_label = {c: names2[i] for i, c in zip(h2.order, labels2)}
    return True, {names1[i]: by_label[c] for i, c in sorted(zip(h1.order, labels1))}


def hull_formula(h: RootedGraph) -> str:
    """The text of the one-free-variable formula whose truth at v says hull(F, v, n) is
    rooted-isomorphic to h, as `format_fo` would print it.

    One existential per non-root vertex (nested in BFS order so evaluation prunes early),
    pairwise distinctness, every edge, every non-edge, and a closure clause pinning all neighbors
    of sub-maximal-layer vertices inside the quantified set; outside-neighbors of layer-n vertices
    stay free.  The variable of BFS position k is y_k (x for the root).  The text is written in one
    pass over the shape rows, with no formula tree: per vertex its quantifier, a "(" per literal
    and the literals, then the closure and a ")" per vertex; each vertex's text is joined as it is
    written.  The formula nests about five levels per vertex, and `parse_fo` reads it back at any size.
    """
    shape, size = h.shape, len(h.order)
    names = ["x"] + [f"y{k}" for k in range(1, size)]
    out = []
    for k, (v, row) in enumerate(zip(names, shape)):
        lits = []
        for u in range(k):  # connecting edge literals first: they prune the assignment search
            if shape[u] >> k & 1:
                lits.append(f"R({names[u]},{v})")
            if row >> u & 1:
                lits.append(f"R({v},{names[u]})")
        lits.append(f"R({v},{v})" if row >> k & 1 else f"~R({v},{v})")
        for u in range(k):
            lits.append(f"~{names[u]}={v}")
            if not shape[u] >> k & 1:
                lits.append(f"~R({names[u]},{v})")
            if not row >> u & 1:
                lits.append(f"~R({v},{names[u]})")
        head = f"exists {v}. (" if k else "("
        out.append(head + _chain(lits, " & ") + " & ")  # the rest closes at the end
    inside = _chain([f"z={y}" for y in names], " | ")
    inner = sum(map(int.bit_count, h.rings[:h.depth]))  # the points below the last layer come first
    closure = [f"forall z. ({edge} -> {inside})" for y in names[:inner] for edge in (f"R({y},z)", f"R(z,{y})")]
    # the first clause is a quantifier left of a connective, so it is put in parentheses
    out += [_chain([f"({c})" for c in closure[:1]] + closure[1:] + ["x=x"], " & "), ")" * size]
    return "".join(out)


def _chain(parts: list[str], symbol: str) -> str:
    """The text of the left fold of parts under a binary connective: one "(" per later part."""
    return "(" * (len(parts) - 1) + parts[0] + "".join([f"{symbol}{p})" for p in parts[1:]])
