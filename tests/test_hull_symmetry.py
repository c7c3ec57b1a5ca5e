"""Certificates and rooted isomorphism on symmetric hulls, checked against the
independent references in iso_oracle.py and against networkx.

The corpus is built in code: stars, K_mm+root, cliques with and without loops,
Petersen, cubes, Paley graphs, tori and chorded directed cycles, each taken as
the hull of one vertex deep enough to hold the whole graph.
"""

import functools
import itertools
import random

import pytest

import iso_oracle
import uext.hulls as hulls_mod
from uext import Frame, canonical_form, hull, rooted_iso

from helpers import kmm_root, star


def symmetric(vertices, pairs) -> Frame:
    return Frame(tuple(vertices), frozenset([*pairs, *((b, a) for a, b in pairs)]))


def clique(n: int, loops: bool) -> Frame:
    vs = [f"k{i}" for i in range(n)]
    return Frame(tuple(vs), frozenset((a, b) for a in vs for b in vs if loops or a != b))


def petersen() -> Frame:
    outer, inner = [f"o{i}" for i in range(5)], [f"i{i}" for i in range(5)]
    return symmetric(outer + inner, [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
                     + [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
                     + [(outer[i], inner[i]) for i in range(5)])


def cube(d: int) -> Frame:
    vs = [format(i, f"0{d}b") for i in range(2 ** d)]
    return symmetric(vs, [(vs[i], vs[i | 1 << k]) for i in range(2 ** d) for k in range(d) if not i >> k & 1])


def paley(q: int) -> Frame:
    squares = {x * x % q for x in range(1, q)}
    vs = [f"p{i}" for i in range(q)]
    return Frame(tuple(vs), frozenset((vs[a], vs[b]) for a in range(q) for b in range(q) if (b - a) % q in squares))


def torus(n: int) -> Frame:
    vs = [[f"t{i}.{j}" for j in range(n)] for i in range(n)]
    return Frame(tuple(v for row in vs for v in row),
                 frozenset(e for i in range(n) for j in range(n)
                           for e in ((vs[i][j], vs[(i + 1) % n][j]), (vs[i][j], vs[i][(j + 1) % n]))))


def chorded_cycle(n: int, chord: int) -> Frame:
    vs = [f"c{i}" for i in range(n)]
    return Frame(tuple(vs), frozenset([(vs[i], vs[(i + 1) % n]) for i in range(n)]
                                      + [(vs[i], vs[(i + chord) % n]) for i in range(n)]))


CORPUS = {
    **{f"star{k}": (star(k), "c") for k in range(1, 13)},
    **{f"kmm{m}+root": (kmm_root(m), "r") for m in range(1, 9)},
    **{f"clique{n}": (clique(n, False), "k0") for n in range(2, 7)},
    **{f"clique{n}+loops": (clique(n, True), "k0") for n in range(2, 7)},
    "petersen": (petersen(), "o0"),
    **{f"cube{d}": (cube(d), "0" * d) for d in (3, 4, 5)},
    **{f"paley{q}": (paley(q), "p0") for q in (13, 17)},
    **{f"torus{n}": (torus(n), "t0.0") for n in (4, 5)},
    **{f"cycle{n}+{c}": (chorded_cycle(n, c), "c0") for n, c in ((8, 2), (9, 3), (12, 5))},
}


def as_tuple(h):
    return h.graph.vertices, h.graph.edges, h.root


def relabelled(rng: random.Random, f: Frame, root: str):
    """The hull of f at root under fresh names in a shuffled load order."""
    names = dict(zip(f.vertices, rng.sample([f"u{i}" for i in range(len(f.vertices))], len(f.vertices))))
    g = Frame(tuple(names[v] for v in rng.sample(f.vertices, len(f.vertices))),
              frozenset((names[a], names[b]) for a, b in f.edges))
    return hull(g, names[root], len(f.vertices))


@functools.cache
def corpus_case(name: str):
    """The corpus hull, and each of its copies with rooted_iso's answer: three relabellings,
    then one edge removed, then (unless every pair is an edge) one edge moved onto a non-edge."""
    f, root = CORPUS[name]
    rng = random.Random(name)
    h = hull(f, root, len(f.vertices))
    gone = rng.choice(sorted(f.edges))
    non_edges = sorted({(a, b) for a in f.vertices for b in f.vertices} - f.edges)
    altered = [f.edges - {gone}] + ([f.edges - {gone} | {rng.choice(non_edges)}] if non_edges else [])
    copies = [relabelled(rng, f, root) for _ in range(3)]
    copies += [hull(Frame(f.vertices, edges), root, len(f.vertices)) for edges in altered]
    return h, [(g, rooted_iso(h, g)) for g in copies]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_symmetric_corpus_against_oracle(name):
    h, answers = corpus_case(name)
    cert = canonical_form(h).certificate
    for k, (g, (ok, witness)) in enumerate(answers):
        assert ok == iso_oracle.rooted_iso(as_tuple(h), as_tuple(g))[0]
        if k < 3:
            assert ok and canonical_form(g).certificate == cert
        if ok:
            assert witness[h.root] == g.root
            assert sorted(witness.values()) == sorted(g.graph.vertices)
            assert {(witness[a], witness[b]) for a, b in h.graph.edges} == g.graph.edges
        else:
            assert witness is None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_symmetric_corpus_against_networkx(name):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def digraph(h):
        d = nx.DiGraph(list(h.graph.edges))
        d.add_nodes_from(h.graph.vertices)
        nx.set_node_attributes(d, {v: v == h.root for v in h.graph.vertices}, "root")
        return d

    h, answers = corpus_case(name)
    for g, (ok, _) in answers:
        matcher = DiGraphMatcher(digraph(h), digraph(g), node_match=lambda x, y: x["root"] == y["root"])
        assert ok == matcher.is_isomorphic()


def twin_heavy_frame(rng: random.Random) -> Frame:
    """A frame of at most 8 points grown from a small core by cloning points.  The core is
    random, or v0 over a permutation of 5-7 others, where colour refinement from v0 leaves
    cells that are not orbits.  Each clone copies a point's neighbours, is joined to it
    both ways half the time, usually copies its loop, and now and then gets one stray
    edge, so near-twins occur too."""
    if rng.random() < 0.5:
        vs = [f"v{i}" for i in range(rng.randint(1, 3))]
        edges = {(a, b) for a in vs for b in vs if rng.random() < 0.4}
    else:
        vs = [f"v{i}" for i in range(rng.randint(6, 8))]
        edges = {("v0", v) for v in vs[1:]} | set(zip(vs[1:], rng.sample(vs[1:], len(vs) - 1)))
    for c in [f"v{i}" for i in range(len(vs), rng.randint(len(vs), 8))]:
        v = rng.choice(vs)
        edges |= {(c, b) for a, b in edges if a == v != b} | {(a, c) for a, b in edges if b == v != a}
        if ((v, v) in edges) != (rng.random() < 0.2):
            edges.add((c, c))
        if rng.random() < 0.5:
            edges |= {(v, c), (c, v)}
        if rng.random() < 0.15:
            edges.add((rng.choice(vs), c))
        vs.append(c)
    return Frame(tuple(vs), frozenset(edges))


def test_certificates_match_the_unpruned_labeller_on_twin_heavy_hulls():
    rng = random.Random(2024)
    for _ in range(2000):
        f = twin_heavy_frame(rng)
        h = hull(f, rng.choice(["v0", rng.choice(f.vertices)]), rng.randint(0, 3))
        assert canonical_form(h).certificate == iso_oracle.certificate(as_tuple(h))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("joined", [False, True])
def test_points_sharing_one_neighbourhood_are_not_twins(reverse, joined):
    # a0..a{n-1} under a derangement, each over its own x_i, and (when joined) the x_i joined
    # both ways: the x_i share their successors but not their predecessors (with every edge
    # reversed, the other way round), and their cell is not an orbit unless the derangement
    # is one cycle.  The a_i are joined both ways with r and two hubs and carry loops, so
    # that the x_i's cell comes first and is the one branched on.
    checked = 0
    for n in (4, 5):
        a, x = [f"a{i}" for i in range(n)], [f"x{i}" for i in range(n)]
        for perm in itertools.permutations(range(n)):
            if any(i == j for i, j in enumerate(perm)):
                continue
            edges = ([(hub, v) for hub in "rzw" for v in a] + [(v, hub) for hub in "rzw" for v in a]
                     + [(v, v) for v in a] + [(a[i], a[j]) for i, j in enumerate(perm)] + list(zip(a, x))
                     + [(u, v) for u in x for v in x if joined and u != v])
            f = Frame(("r", "z", "w", *a, *x), frozenset((t, s) if reverse else (s, t) for s, t in edges))
            h = hull(f, "r", 2)
            assert canonical_form(h).certificate == iso_oracle.certificate(as_tuple(h))
            checked += 1
    assert checked == 9 + 44


def star_certificate(k: int) -> bytes:
    """The certificate of a k-leaf star at its centre: the centre ranks 1 over the leaf left
    uncoloured, and the other leaves take 2..k."""
    edges = [(1, 0)] + [(1, j) for j in range(2, k + 1)]
    return iso_oracle.CERT_VERSION + f"|n={k + 1};root=1;edges={edges}".encode()


def test_a_twin_class_is_individualised_in_one_step(monkeypatch):
    # the unpruned labeller gives star_certificate on the stars it can search; a 2000-leaf star,
    # whose leaves are one twin class, refines from its seed colours and then once more with
    # every leaf but the last individualised, and reaches the same certificate
    for k in range(1, 7):
        assert iso_oracle.certificate(as_tuple(hull(star(k), "c", 1))) == star_certificate(k)
    calls = []
    real = hulls_mod.refine
    monkeypatch.setattr(hulls_mod, "refine", lambda *args: calls.append(args) or real(*args))
    assert canonical_form(hull(star(2000), "c", 1)).certificate == star_certificate(2000)
    assert len(calls) <= 2
