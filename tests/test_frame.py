import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uext import (
    Frame,
    InputError,
    boundedness,
    degree,
    frame_from_dict,
    frame_to_dict,
    frame_to_dot,
    induced_subframe,
    relation_image,
    reverse,
)

TRI = Frame(("a", "b", "c"), frozenset([("a", "b"), ("a", "c"), ("b", "c")]))


def test_edge_endpoints_validated():
    with pytest.raises(InputError):
        Frame(("a",), frozenset([("a", "z")]))


def test_duplicate_vertex_rejected():
    with pytest.raises(InputError):
        Frame(("a", "a"), frozenset())


def test_relation_images():
    assert relation_image(TRI, {"a"}, "forward") == {"b", "c"}
    assert relation_image(TRI, {"c"}, "backward") == {"a", "b"}
    assert relation_image(TRI, {"b"}, "both") == {"a", "c"}
    # box: worlds all of whose successors land in X
    assert relation_image(TRI, {"c"}, "box") == {"b", "c"}


def test_relation_image_bad_mode():
    with pytest.raises(InputError):
        relation_image(TRI, {"a"}, "sideways")


@st.composite
def frames(draw):
    n = draw(st.integers(1, 5))
    verts = tuple(f"v{i}" for i in range(n))
    pairs = [(a, b) for a in verts for b in verts]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12))
    return Frame(verts, frozenset(chosen))


@settings(max_examples=60, deadline=None)
@given(frames(), st.data())
def test_box_is_dual_of_backward_image(f, data):
    xs = frozenset(data.draw(st.lists(st.sampled_from(f.vertices), max_size=5)))
    w = frozenset(f.vertices)
    assert relation_image(f, xs, "box") == w - relation_image(f, w - xs, "backward")


@settings(max_examples=60, deadline=None)
@given(frames())
def test_reverse_involution_and_degree_swap(f):
    assert reverse(reverse(f)) == f
    for v in f.vertices:
        d, dr = degree(f, v), degree(reverse(f), v)
        assert (d.deg_plus, d.deg_minus) == (dr.deg_minus, dr.deg_plus)
        assert d.deg == d.deg_plus + d.deg_minus


def test_boundedness_per_vertex_max():
    b = boundedness(TRI)
    assert (b.max_deg_plus, b.max_deg_minus, b.max_deg) == (2, 2, 2)


def test_induced_subframe():
    sub = induced_subframe(TRI, {"a", "b"})
    assert sub.vertices == ("a", "b")
    assert sub.edges == {("a", "b")}


def test_json_round_trip():
    assert frame_from_dict(frame_to_dict(TRI)) == TRI


def test_duplicate_edge_named_in_error():
    doc = {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]}
    with pytest.raises(InputError, match=r"\['a', 'b'\]"):
        frame_from_dict(doc)


def test_dot_export_mentions_every_edge():
    dot = frame_to_dot(TRI)
    assert dot.startswith("digraph")
    for a, b in TRI.edges:
        assert f'"{a}" -> "{b}"' in dot


def test_load_roundtrip(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(frame_to_dict(TRI)))
    from uext import load_frame

    assert load_frame(str(p)) == TRI


@pytest.mark.parametrize("valuation, message", [
    ({"p0": ["zz"], "P1": 5}, "valuation has unknown letter 'P1' (known: p followed by digits)"),
    ({"p0": ["zz"]}, "unknown vertex 'zz'"),
    ({"p0": ["a", "a"]}, "duplicate vertex 'a' in valuation of 'p0'"),
    (["a"], "valuation must be an object mapping letters to vertex lists"),
])
def test_load_frame_checks_a_model_files_valuation(tmp_path, capsys, valuation, message):
    # the library reads a model file as every CLI frame command does; it once dropped the valuation unchecked
    from uext import load_frame
    from uext.cli import main

    p = tmp_path / "m.json"
    p.write_text(json.dumps({"vertices": ["a"], "edges": [], "valuation": valuation}))
    with pytest.raises(InputError) as refused:
        load_frame(str(p))
    assert str(refused.value) == message
    assert main(["ue", "build", str(p)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    p.write_text(json.dumps({"vertices": ["a"], "edges": [], "valuation": {"p0": ["a"]}}))
    assert load_frame(str(p)) == Frame(("a",), frozenset())
