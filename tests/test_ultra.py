import random

import pytest

from uext import (
    DefectError,
    Frame,
    InputError,
    Model,
    ResourceError,
    Road,
    Ultrafilter,
    build_ue,
    canonical_embedding,
    enumerate_ultrafilters,
    extend_model,
    roads_between,
    ue_related,
)

from helpers import random_frame
from road_oracle import roads as road_oracle

TRI = Frame(("a", "b", "c"), frozenset([("a", "b"), ("a", "c"), ("b", "c")]))


def test_principal_membership():
    u = Ultrafilter(TRI, "b")
    assert u.member({"a", "b"})
    assert not u.member({"a", "c"})
    assert u.name == "pi:b"


def test_enumerate_is_one_per_point():
    assert [u.point for u in enumerate_ultrafilters(TRI)] == ["a", "b", "c"]


def test_three_modes_agree_small():
    us = enumerate_ultrafilters(TRI)
    for u in us:
        for v in us:
            a = ue_related(u, v, "A")
            assert a == ue_related(u, v, "B") == ue_related(u, v, "C")
            assert a == TRI.has_edge(u.point, v.point)


def test_build_ue_mirrors_base_edges():
    rng = random.Random(7)
    for _ in range(25):
        f = random_frame(rng, max_n=5)
        ue = build_ue(f)
        expected = frozenset((f"pi:{a}", f"pi:{b}") for a, b in f.edges)
        assert ue.frame.edges == expected


def test_canonical_embedding_bijective():
    eta = canonical_embedding(TRI)
    assert sorted(eta) == ["a", "b", "c"]
    assert all(eta[w].point == w for w in eta)


def test_principal_ultrafilters_read_off_the_frame_are_not_checked_again(monkeypatch):
    f = Frame(tuple(f"w{i}" for i in range(10)), frozenset((f"w{i}", f"w{(i + 1) % 10}") for i in range(10)))
    model = Model.make(f, {"p0": ["w0", "w3"]})
    calls = []
    real = Frame.check_vertices
    monkeypatch.setattr(Frame, "check_vertices", lambda self, xs: calls.append(xs) or real(self, xs))
    ue, ext, eta = build_ue(f), extend_model(model), canonical_embedding(f)
    assert calls == []
    assert list(ue.ultrafilters) == list(ext.ue_frame.ultrafilters) == [Ultrafilter(f, w) for w in f.vertices]
    assert eta == {w: Ultrafilter(f, w) for w in f.vertices} and len(calls) == 20
    with pytest.raises(InputError, match="unknown vertex 'zz'"):
        Ultrafilter(f, "zz")


def test_powerset_cap(monkeypatch):
    monkeypatch.setenv("UEXT_POWERSET_LIMIT", "2")
    with pytest.raises(ResourceError):
        build_ue(TRI)


def test_road_validation():
    with pytest.raises(InputError):
        Road(("a",), ())
    with pytest.raises(InputError):
        Road(("a", "a"), ("R",))
    with pytest.raises(InputError):
        Road(("a", "b"), ("Q",))


def test_roads_between_excludes_length_zero():
    assert roads_between(TRI, "a", "a", 3) == []


def test_roads_between_triangle():
    roads = roads_between(TRI, "a", "c", 2)
    found = {(r.waypoints, r.directions) for r in roads}
    assert (("a", "c"), ("R",)) in found
    assert (("a", "b", "c"), ("R", "R")) in found
    # every road is simple and within length
    for r in roads:
        assert len(set(r.waypoints)) == len(r.waypoints)
        assert len(r) <= 2


def test_roads_use_both_directions():
    f = Frame(("a", "b", "c"), frozenset([("b", "a"), ("b", "c")]))
    roads = roads_between(f, "a", "c", 2)
    assert [(r.waypoints, r.directions) for r in roads] == [
        (("a", "b", "c"), ("R-", "R"))
    ]


def test_roads_between_matches_recursive_oracle():
    rng = random.Random(29)
    found = 0
    for _ in range(300):
        f = random_frame(rng, 6, rng.choice([0.2, 0.4, 0.6]))
        s, t = rng.choice(f.vertices), rng.choice(f.vertices)
        k = rng.randint(0, 6)
        roads = roads_between(f, s, t, k)
        assert [(r.waypoints, r.directions) for r in roads] == road_oracle(f.vertices, f.edges, s, t, k)
        found += len(roads)
    assert found > 300


def test_roads_between_long_path():
    # one road of 1199 steps: deeper than the recursion limit of a search that recurses per step
    verts = tuple(f"v{i}" for i in range(1200))
    path = Frame(verts, frozenset(zip(verts, verts[1:])))
    roads = roads_between(path, "v0", "v1199", 1200)
    assert [(r.waypoints, r.directions) for r in roads] == [(verts, ("R",) * 1199)]
    assert roads_between(path, "v1199", "v0", 1198) == []
