"""Reference semantics the benchmark checks uext's answers against.

Nothing here imports uext.  Frames are plain ``(vertices, edges)`` pairs:
a tuple of string ids and a frozenset of ``(a, b)`` pairs.  Modal formulas are
nested tuples: ``("p", "p0")``, ``("not", f)``, ``("and", f, g)``,
``("or", f, g)``, ``("imp", f, g)``, ``("dia", f)`` and ``("box", f)``.
"""

from __future__ import annotations

import math
import warnings
from collections import deque

import networkx as nx
from networkx.algorithms.isomorphism import DiGraphMatcher

# networkx notes that its directed hashes changed in 3.5; only equality within one run matters here
warnings.filterwarnings("ignore", message="The hashes produced for directed graphs changed")


# ---------------------------------------------------------------------------
# Frames


def succ_map(frame) -> dict[str, set[str]]:
    verts, edges = frame
    out = {v: set() for v in verts}
    for a, b in edges:
        out[a].add(b)
    return out


def frame_doc(frame) -> dict:
    verts, edges = frame
    order = {v: i for i, v in enumerate(verts)}
    return {"vertices": list(verts),
            "edges": [list(e) for e in sorted(edges, key=lambda e: (order[e[0]], order[e[1]]))]}


def is_reflexive(frame) -> bool:
    verts, edges = frame
    return all((v, v) in edges for v in verts)


def is_transitive(frame) -> bool:
    s = succ_map(frame)
    return all(s[b] <= s[a] for a in s for b in s[a])


def is_symmetric(frame) -> bool:
    return all((b, a) in frame[1] for a, b in frame[1])


def is_serial(frame) -> bool:
    s = succ_map(frame)
    return all(s[v] for v in frame[0])


def is_euclidean(frame) -> bool:
    s = succ_map(frame)
    return all(s[a] <= s[b] for a in s for b in s[a])


def is_connected_right(frame) -> bool:
    """Any two successors of a point are equal or comparable."""
    _, edges = frame
    s = succ_map(frame)
    return all(b == c or (b, c) in edges or (c, b) in edges
               for a in s for b in s[a] for c in s[a])


# ---------------------------------------------------------------------------
# Modal logic by truth sets


def modal_text(f) -> str:
    """The formula in uext's surface syntax, fully parenthesised."""
    op = f[0]
    if op == "p":
        return f[1]
    if op == "not":
        return "~" + modal_text(f[1])
    if op == "dia":
        return "<>" + modal_text(f[1])
    if op == "box":
        return "[]" + modal_text(f[1])
    sym = {"and": "&", "or": "|", "imp": "->"}[op]
    return f"({modal_text(f[1])} {sym} {modal_text(f[2])})"


def truth_set(frame, valuation: dict[str, set[str]], f) -> set[str]:
    """The worlds where f holds, computed bottom-up over sets."""
    verts = set(frame[0])
    s = succ_map(frame)
    memo: dict = {}

    def ev(g) -> set[str]:
        if g in memo:
            return memo[g]
        op = g[0]
        if op == "p":
            out = set(valuation.get(g[1], ())) & verts
        elif op == "not":
            out = verts - ev(g[1])
        elif op == "and":
            out = ev(g[1]) & ev(g[2])
        elif op == "or":
            out = ev(g[1]) | ev(g[2])
        elif op == "imp":
            out = (verts - ev(g[1])) | ev(g[2])
        elif op == "dia":
            sub = ev(g[1])
            out = {w for w in verts if s[w] & sub}
        elif op == "box":
            sub = ev(g[1])
            out = {w for w in verts if s[w] <= sub}
        else:
            raise ValueError(f"unknown modal node {g!r}")
        memo[g] = out
        return out

    return ev(f)


def bisimilar_upto(m1, w1: str, m2, w2: str, depth: int) -> bool:
    """Naive k-step partition refinement on the disjoint union of two models.

    A model is ``(frame, valuation)``.  After k rounds two points share a block
    iff they are k-bisimilar.
    """
    letters = sorted(set(m1[1]) | set(m2[1]))
    pts = [(0, v) for v in m1[0][0]] + [(1, v) for v in m2[0][0]]
    succ = {}
    for side, (frame, _) in enumerate((m1, m2)):
        for v, ws in succ_map(frame).items():
            succ[(side, v)] = [(side, w) for w in ws]
    vals = (m1[1], m2[1])
    block = {p: tuple(p[1] in vals[p[0]].get(q, ()) for q in letters) for p in pts}
    for _ in range(depth):
        block = {p: (block[p], frozenset(block[q] for q in succ[p])) for p in pts}
    return block[(0, w1)] == block[(1, w2)]


# ---------------------------------------------------------------------------
# Ehrenfeucht-Fraisse games on finite linear orders


def ef_linear_min_rounds(m: int, n: int) -> int | None:
    """Spoiler's shortest win on strict linear orders L_m and L_n.

    L_m and L_n agree up to k rounds iff m = n or both are at least 2^k - 1,
    so Spoiler first wins at k = floor(log2(min(m, n) + 1)) + 1.
    """
    if m == n:
        return None
    return int(math.floor(math.log2(min(m, n) + 1))) + 1


# ---------------------------------------------------------------------------
# Hulls and rooted isomorphism


def undirected_dist(frame, root: str) -> dict[str, int]:
    verts, edges = frame
    nb = {v: set() for v in verts}
    for a, b in edges:
        nb[a].add(b)
        nb[b].add(a)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in nb[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def hull_of(frame, root: str, depth: int):
    """Induced subframe on the points within undirected distance depth."""
    dist = undirected_dist(frame, root)
    keep = {v for v, d in dist.items() if d <= depth}
    verts = tuple(v for v in frame[0] if v in keep)
    return verts, frozenset((a, b) for a, b in frame[1] if a in keep and b in keep)


def rooted_digraph(frame, root: str) -> nx.DiGraph:
    g = nx.DiGraph()
    for v in frame[0]:
        g.add_node(v, root=(v == root))
    g.add_edges_from(frame[1])
    return g


def _root_match(a, b) -> bool:
    return a["root"] == b["root"]


def rooted_isomorphic(g1: nx.DiGraph, g2: nx.DiGraph) -> bool:
    if g1.number_of_nodes() != g2.number_of_nodes() or g1.number_of_edges() != g2.number_of_edges():
        return False
    return DiGraphMatcher(g1, g2, node_match=_root_match).is_isomorphic()


def iso_key(g: nx.DiGraph) -> str:
    """An isomorphism-invariant bucket key (equal for isomorphic rooted graphs)."""
    for v, d in g.nodes(data=True):
        d["label"] = "r" if d["root"] else "-"
    return nx.weisfeiler_lehman_graph_hash(g, node_attr="label", iterations=3)


class IsoClasses:
    """Rooted digraphs grouped into isomorphism classes."""

    def __init__(self):
        self.buckets: dict[str, list[tuple[nx.DiGraph, object]]] = {}

    def find(self, g: nx.DiGraph):
        """The tag of g's class, or None if g is in no known class."""
        for rep, tag in self.buckets.get(iso_key(g), ()):
            if rooted_isomorphic(rep, g):
                return tag
        return None

    def add(self, g: nx.DiGraph, tag) -> None:
        self.buckets.setdefault(iso_key(g), []).append((g, tag))


# ---------------------------------------------------------------------------
# Families: independent expansion and census


OMEGA = "w"


def ray_window(period, seam, copies, tag: str = "r"):
    name = lambda k, v: f"{tag}.{k}:{v}"
    verts = tuple(name(k, v) for k in copies for v in period[0])
    edges = set()
    for k in copies:
        edges |= {(name(k, a), name(k, b)) for a, b in period[1]}
        if k + 1 in copies:
            edges |= {(name(k, a), name(k + 1, b)) for a, b in seam}
    return verts, frozenset(edges), name


def census_expectation(fam: dict, depth: int) -> list[tuple[nx.DiGraph, object]]:
    """Exact hull-type census of a family without a generator.

    Returns one ``(representative, multiplicity)`` per rooted type, with
    multiplicity an int or ``"w"``.  A ray copy k >= depth cannot see the
    ray's first copy, so its types repeat forever; copies below depth add one
    each.  Every copy of a line looks alike.
    """
    classes = IsoClasses()
    counts: list = []
    reps: list[nx.DiGraph] = []

    def add(frame, root, mult):
        g = rooted_digraph(hull_of(frame, root, depth), root)
        tag = classes.find(g)
        if tag is None:
            tag = len(reps)
            classes.add(g, tag)
            reps.append(g)
            counts.append(0)
        if mult == OMEGA or counts[tag] == OMEGA:  # omega absorbs finite counts
            counts[tag] = OMEGA
        else:
            counts[tag] += mult

    if fam.get("base"):
        base = frame_of(fam["base"])
        for v in base[0]:
            add(base, v, 1)
    for tpl in fam.get("omega_templates", []):
        t = frame_of(tpl)
        for v in t[0]:
            add(t, v, OMEGA)
    for ray in fam.get("rays", []):
        period = frame_of(ray["period"])
        seam = [tuple(e) for e in ray.get("seam", [])]
        if ray.get("kind", "ray") == "line":
            verts, edges, name = ray_window(period, seam, range(-depth - 1, depth + 2))
            for v in period[0]:
                add((verts, edges), name(0, v), OMEGA)
            continue
        verts, edges, name = ray_window(period, seam, range(0, 2 * depth + 2))
        for k in range(depth + 1):
            for v in period[0]:
                add((verts, edges), name(k, v), OMEGA if k == depth else 1)
    return list(zip(reps, counts))


def frame_of(doc: dict):
    return tuple(str(v) for v in doc["vertices"]), frozenset((str(a), str(b)) for a, b in doc["edges"])


def family_loops(fam: dict) -> bool:
    """Whether some concrete part of a family (not its generator) has a loop."""
    parts = []
    if fam.get("base"):
        parts.append(fam["base"])
    parts += fam.get("omega_templates", [])
    parts += [r["period"] for r in fam.get("rays", [])]
    return any(a == b for p in parts for a, b in p["edges"])


# Whether the extension of a builtin generator's union has a reflexive point,
# for a family whose other parts are loop-free.  nat_lt: every nonprincipal
# ultrafilter over (N, <) is reflexive.  chains_lt: an ultrafilter avoiding
# the ideal of sets with boundedly many points per chain is reflexive, since
# R-(X) misses at most the top point of X in each chain.  nat_succ: the
# successor relation is 2-colourable, so no point is reflexive (see below).
GENERATOR_REFLEXIVE = {"nat_lt": True, "chains_lt": True, "nat_succ": False}

# Whether some point of the generator's union has infinitely many successors.
GENERATOR_INFINITE_OUTDEGREE = {"nat_lt": True, "chains_lt": False, "nat_succ": False}


def reflexive_truth(fam: dict) -> str:
    """Whether the family's ultrafilter extension has a reflexive point.

    A loop gives a reflexive principal ultrafilter.  A loop-free family of
    finite chromatic number k has none: an ultrafilter u holds one of k
    independent colour classes C, and u R^ue u would put R+(C) in u although
    R+(C) misses C.  Bases, templates and periodic rays always have finite
    chromatic number, so only a generator can make the answer yes.
    """
    if family_loops(fam):
        return "yes"
    gen = fam.get("generator")
    if gen and GENERATOR_REFLEXIVE[gen["name"]]:
        return "yes"
    return "no"


def generated_truth(fam: dict) -> str:
    """A frame is a generated subframe of its extension iff out-degrees are finite."""
    gen = fam.get("generator")
    if gen and GENERATOR_INFINITE_OUTDEGREE[gen["name"]]:
        return "no"
    return "yes"
