"""The hull path (one BFS, the host's rows in BFS order) agrees with the load-order path kept in
`hull_oracle`: the subframe's vertices and edges, the layers, endpoints and shape, the
certificate, the formula text and rooted_iso's witness, on seeded random frames, ray windows,
stars and K_mm+root shapes.  The formula text is `hull_formula`'s own, written from the shape rows,
against the oracle's tree printed as `format_fo` prints it."""

from __future__ import annotations

import random

import hull_oracle as O
from uext import Frame, RootedGraph, canonical_form, endpoints, hull, hull_formula, rooted_iso


def random_frame(rng: random.Random) -> Frame:
    """At most 10 points, named out of load order, with random edges and loops."""
    n = rng.randint(1, 10)
    names = [f"v{i}" for i in rng.sample(range(n), n)]
    density = rng.choice([0.0, 0.1, 0.2, 0.35, 0.6])
    edges = {(a, b) for a in names for b in names if a != b and rng.random() < density}
    edges |= {(v, v) for v in names if rng.random() < 0.2}
    return Frame(names, edges)


def ray_window(rng: random.Random, copies: range) -> Frame:
    """Copies of a random period of 1-3 points, each seam edge joining copy k to k + 1."""
    period = "abc"[:rng.randint(1, 3)]
    inner = [(a, b) for a in period for b in period if rng.random() < 0.3]
    seam = [(rng.choice(period), rng.choice(period)) for _ in range(rng.randint(1, 2))]
    name = "{}:{}".format
    edges = {(name(k, a), name(k, b)) for k in copies for a, b in inner}
    edges |= {(name(k, a), name(k + 1, b)) for k in copies if k + 1 in copies for a, b in seam}
    return Frame([name(k, v) for k in copies for v in period], edges)


def star(k: int) -> Frame:
    return Frame(["c"] + [f"l{i}" for i in range(k)], [("c", f"l{i}") for i in range(k)])


def kmm_root(m: int) -> Frame:
    a, b = [f"a{i}" for i in range(m)], [f"b{i}" for i in range(m)]
    return Frame(["r"] + a + b, [("r", x) for x in a] + [(x, y) for x in a for y in b])


def oracle_formula(oh: O.Rooted) -> str:
    return O.formula_text(O.hull_formula(oh))


def check_agrees(h: RootedGraph, oh: O.Rooted) -> None:
    assert (h.graph.vertices, h.graph.edges) == (oh.vertices, oh.edges)
    assert list(h.layers.items()) == list(oh.layers.items())
    if h.depth >= 1:
        assert endpoints(h) == O.endpoints(oh)
    assert h.shape == oh.shape
    assert [h.host.vertices[i] for i in h.order] == [oh.vertices[i] for i in oh.order]
    assert canonical_form(h).certificate == O.certificate(oh)


def cases():
    """(host, root, depth) triples: 500 seeded random frames at depths 0-3, then ray windows,
    stars and K_mm+root shapes at every root."""
    rng = random.Random(2718)
    for _ in range(500):
        f = random_frame(rng)
        yield f, rng.choice(f.vertices), rng.randint(0, 3)
    for n in (1, 2, 3):
        window = ray_window(rng, range(2 * n + 1))
        for w in window.vertices:
            yield window, w, n
    for shape, depths in [(star(k), (0, 1, 2)) for k in range(4, 8)] + [(kmm_root(m), (1, 2, 3)) for m in range(1, 5)]:
        for w in shape.vertices:
            for n in depths:
                yield shape, w, n


def test_hulls_agree_with_the_load_order_path():
    met = set()
    previous = None
    for f, w, n in cases():
        h, oh = hull(f, w, n), O.hull(f.vertices, f.succ_mask, w, n)
        check_agrees(h, oh)
        assert hull_formula(h) == oracle_formula(oh)
        met.add(len(h.order) < len(f.vertices))
        if previous is not None:  # the witness is read back through the BFS order
            assert rooted_iso(previous[0], h) == O.rooted_iso(previous[1], oh)
        previous = h, oh
    assert met == {True, False}


def test_rooted_graphs_are_their_roots_hulls():
    rng = random.Random(3141)
    for _ in range(300):
        f = random_frame(rng)
        w, n = rng.choice(f.vertices), rng.randint(0, 3)
        h, oh = RootedGraph(f, w, n), O.hull(f.vertices, f.succ_mask, w, n)
        assert h == hull(f, w, n)
        check_agrees(h, oh)
        assert hull_formula(h) == oracle_formula(oh)


def test_formula_text_agrees_where_the_depth_refusal_starts():
    """Hulls of 18-27 points, where the formula's nesting once crossed the parser's depth cap of 100
    and was refused: stars of 17-22 leaves, K_mm+root at depth 2 for m = 6-10 and seeded dense
    random frames.  The text agrees with the oracle's tree, and none is refused."""
    rng = random.Random(1618)
    shapes = [(star(k), "c", d) for k in range(17, 23) for d in (1, 2)]
    shapes += [(kmm_root(m), "r", 2) for m in range(6, 11)]
    for _ in range(40):
        n = rng.randint(18, 26)
        names = [f"v{i}" for i in rng.sample(range(n), n)]
        p = rng.choice([0.3, 0.5, 0.8])
        f = Frame(names, {(a, b) for a in names for b in names if rng.random() < p})
        shapes.append((f, rng.choice(names), rng.randint(1, 2)))
    for f, w, n in shapes:
        h = hull(f, w, n)
        assert hull_formula(h) == oracle_formula(O.hull(f.vertices, f.succ_mask, w, n)), (f, w, n)
