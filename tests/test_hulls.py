import random

import pytest

import uext.hulls as hulls_mod
from uext import (
    Frame,
    InputError,
    RootedGraph,
    canonical_form,
    endpoints,
    eval_fo,
    format_fo,
    hull,
    hull_formula,
    parse_fo,
    rooted_iso,
)
from uext.fo import free_vars, quantifier_rank
from uext.syntax import ARITY, Table, depth

from helpers import random_bounded_frame

TRI = Frame(("a", "b", "c"), frozenset([("a", "b"), ("a", "c"), ("b", "c")]))
PATH4 = Frame(("p0", "p1", "p2", "p3"),
              frozenset([("p0", "p1"), ("p1", "p2"), ("p2", "p3")]))


def test_hull_is_rooted_neighborhood():
    h = hull(PATH4, "p0", 2)
    assert set(h.graph.vertices) == {"p0", "p1", "p2"}
    assert h.root == "p0"
    assert h.layers == {"p0": 0, "p1": 1, "p2": 2}


def test_hull_uses_both_directions():
    h = hull(PATH4, "p2", 1)
    assert set(h.graph.vertices) == {"p1", "p2", "p3"}


def test_hull_depth_zero():
    h = hull(TRI, "a", 0)
    assert h.graph.vertices == ("a",)


def test_endpoints():
    assert endpoints(hull(PATH4, "p0", 2)) == {"p2"}
    with pytest.raises(InputError):
        endpoints(hull(PATH4, "p0", 0))


def test_certificate_invariant_under_relabeling():
    rng = random.Random(5)
    for _ in range(50):
        f = random_bounded_frame(rng, 8, 3)
        w = rng.choice(f.vertices)
        perm = list(f.vertices)
        rng.shuffle(perm)
        ren = dict(zip(f.vertices, perm))
        g = Frame(tuple(sorted(perm)), frozenset((ren[a], ren[b]) for a, b in f.edges))
        n = rng.randint(0, 2)
        assert canonical_form(hull(f, w, n)).hex == canonical_form(hull(g, ren[w], n)).hex


def test_certificate_separates_root_position():
    # same underlying path, different root
    h0, h1 = hull(PATH4, "p0", 3), hull(PATH4, "p1", 3)
    assert canonical_form(h0).hex != canonical_form(h1).hex


def test_rooted_iso_witness_is_checked():
    h1 = hull(PATH4, "p1", 1)
    h2 = hull(Frame(("x", "y", "z"), frozenset([("x", "y"), ("y", "z")])), "y", 1)
    ok, mapping = rooted_iso(h1, h2)
    assert ok
    assert mapping["p1"] == "y"
    for a, b in h1.graph.edges:
        assert h2.graph.has_edge(mapping[a], mapping[b])


def derangement(rng: random.Random, vs: list[str]) -> list[str]:
    while True:
        p = rng.sample(vs, len(vs))
        if all(a != b for a, b in zip(vs, p)):
            return p


def test_rooted_iso_beyond_colour_refinement():
    # a root over a fixed-point-free permutation: every other point has in-degree 2 and
    # out-degree 1, so colour refinement cannot tell two such hulls apart; the verdict must
    # agree with the certificates, and a witness must map edges onto edges
    rng = random.Random(23)
    verdicts = set()
    for _ in range(150):
        vs = [f"a{i}" for i in range(rng.randint(3, 5))]
        h1, h2 = (hull(Frame(("r", *vs), frozenset([("r", v) for v in vs] + list(zip(vs, derangement(rng, vs))))),
                       "r", 1) for _ in range(2))
        ok, mapping = rooted_iso(h1, h2)
        assert ok == (canonical_form(h1) == canonical_form(h2))
        if ok:
            assert {(mapping[a], mapping[b]) for a, b in h1.graph.edges} == h2.graph.edges
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_rooted_iso_rejects_different_shapes():
    ok, mapping = rooted_iso(hull(TRI, "a", 1), hull(PATH4, "p1", 1))
    assert not ok and mapping is None


def test_hull_formula_characterizes_type():
    h = hull(PATH4, "p1", 1)
    phi = parse_fo(hull_formula(h))
    assert free_vars(phi) == {"x"}
    assert quantifier_rank(phi) >= 1
    # p2 has the same 1-hull type as p1; the ends do not
    assert eval_fo(PATH4, phi, {"x": "p1"})
    assert eval_fo(PATH4, phi, {"x": "p2"})
    assert not eval_fo(PATH4, phi, {"x": "p0"})
    assert not eval_fo(PATH4, phi, {"x": "p3"})


def test_hull_formula_closure_excludes_larger_neighborhoods():
    # a 1-hull of degree 1 must not match a vertex of degree 2
    two_star = Frame(("c", "l", "r"), frozenset([("c", "l"), ("c", "r")]))
    h = hull(Frame(("u", "v"), frozenset([("u", "v")])), "u", 1)
    assert not eval_fo(two_star, parse_fo(hull_formula(h)), {"x": "c"})


def test_singleton_hull_formula():
    lone = Frame(("z",), frozenset())
    phi = parse_fo(hull_formula(hull(lone, "z", 1)))
    assert eval_fo(lone, phi, {"x": "z"})
    assert not eval_fo(PATH4, phi, {"x": "p0"})


def test_hull_formula_nests_at_most_5v_plus_1_and_parses_back():
    # every formula parses back and prints as itself, those of 20 or more vertices (once refused
    # as nesting past the parser's cap of 100) included
    rng, large = random.Random(1203), 0
    for _ in range(250):
        n = rng.randint(1, 25)
        v = tuple(f"v{i}" for i in range(n))
        p = rng.choice([0.05, 0.2, 0.5, 1.0])
        h = hull(Frame(v, frozenset((a, b) for a in v for b in v if rng.random() < p)), "v0", rng.randint(0, 3))
        text = hull_formula(h)
        large += len(h.graph.vertices) >= 20
        phi = parse_fo(text)
        assert depth(Table(ARITY, phi)) <= 5 * len(h.graph.vertices) + 1
        assert format_fo(phi) == text
    assert large >= 15


def test_hull_formula_of_a_rooted_graph_reads_its_roots_hull():
    path = Frame(("p0", "p1", "p2"), [("p0", "p1"), ("p1", "p2")])
    assert len(hull(path, "p0", 1).order) == 2
    # a rooted graph is its root's depth-hull, so its formula is that hull's
    assert hull_formula(RootedGraph(path, "p0", 1)) == hull_formula(hull(path, "p0", 1))
    assert eval_fo(path, parse_fo(hull_formula(RootedGraph(path, "p0", 2))), {"x": "p0"})
    assert hull_formula(RootedGraph(path, "p0", 2)) == hull_formula(hull(path, "p0", 2))
    with pytest.raises(InputError, match="hull depth must be nonnegative"):
        RootedGraph(path, "p0", -1)


def test_each_hull_runs_one_bfs(monkeypatch):
    calls = []
    real = hulls_mod.rings
    monkeypatch.setattr(hulls_mod, "rings", lambda *args: calls.append(args) or real(*args))
    rng = random.Random(77)
    for _ in range(40):
        f = random_bounded_frame(rng, 9, 3)
        calls.clear()
        h = hull(f, rng.choice(f.vertices), rng.randint(0, 3))
        # everything the hull layer reads off a hull comes from that one BFS
        h.shape, h.layers, h.graph, canonical_form(h), hull_formula(h), rooted_iso(h, h)
        if h.depth >= 1:
            endpoints(h)
        assert len(calls) == 1


def test_each_ray_hull_is_labelled_in_one_refinement_round(monkeypatch):
    # the one-point ray's depth-40 window, as a census unrolls it: copy k's hull is a path with k
    # at its root, and the BFS rings its labelling is seeded with leave only pairs of points that
    # one round of neighbour counts tells apart (refinement seeded by the root alone took one
    # round per ring, up to 21 per hull)
    vs = tuple(f"r0.{k}:v" for k in range(81))
    window = Frame(vs, frozenset(zip(vs, vs[1:])))
    rounds = []
    real = hulls_mod.refine

    def counted(*args):
        for colors in real(*args):
            rounds[-1] += 1
            yield colors

    monkeypatch.setattr(hulls_mod, "refine", counted)
    certificates = set()
    for k in range(41):
        rounds.append(0)
        certificates.add(canonical_form(hull(window, vs[k], 40)).certificate)
    assert len(certificates) == 41
    assert 1 <= max(rounds) <= 2
