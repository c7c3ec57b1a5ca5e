import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frame_oracle
from uext import (
    Frame,
    InputError,
    boundedness,
    build_ue,
    degree,
    family_from_dict,
    frame_from_dict,
    frame_to_dict,
    frame_to_dot,
    hull,
    hull_census,
    induced_subframe,
    load_family,
    load_frame,
    relation_image,
    reverse,
    ue_skeleton,
)
from uext.frame import MODEL_FIELDS

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


def test_a_top_level_valuation_is_refused_by_the_frame_reader():
    # the frame reader once dropped it unchecked; a model file's reader passes the field itself
    doc = {"vertices": ["a"], "edges": [], "valuation": {"p0": ["zz"], "P1": 5}}
    with pytest.raises(InputError) as refused:
        frame_from_dict(doc)
    assert str(refused.value) == "frame document has unknown field 'valuation' (known: vertices, edges)"
    assert frame_from_dict(doc, MODEL_FIELDS) == Frame(("a",), frozenset())


IDS = ["a", "b", "c", "0", 1, 2]  # 1 and "1" name one vertex
ODD = [True, None, 1.5, ["a"], {"a": 1}]  # not vertex ids


def perturbed_document(rng: random.Random):
    """A frame document, mostly well formed, with some of: repeated vertices and edges, endpoints
    outside the vertex set, ids that are bools or other non-ids, short, long or nested pairs,
    tuples for pairs, unknown or missing fields, and values of the wrong kind."""
    def vid():
        return rng.choice(ODD) if rng.random() < 0.03 else rng.choice(IDS + ["1", "zz", "yy"][:rng.randrange(4)])

    verts = rng.sample(IDS, rng.randint(0, len(IDS)))
    if verts and rng.random() < 0.15:
        verts.insert(rng.randrange(len(verts) + 1), rng.choice(verts))
    verts = [rng.choice(ODD) if rng.random() < 0.02 else v for v in verts]
    edges, pairs = [], []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.82:
            pair = [rng.choice(verts) if verts and rng.random() < 0.9 else vid(), vid()]
            if rng.random() < 0.9 and verts:
                pair[1] = rng.choice(verts)
            pairs.append(pair)
            edges.append(tuple(pair) if rng.random() < 0.05 else pair)
        elif roll < 0.95 and pairs:
            edges.append(list(rng.choice(pairs)))
        else:
            edges.append(rng.choice([["a"], ["a", "b", "c"], [["a", "b"]], "ab", {"a": "b"}, None, [], 3]))
    doc = {"vertices": verts, "edges": edges}
    roll = rng.random()
    if roll < 0.03:
        doc["valuation"] = {}
    elif roll < 0.05:
        doc["extra"] = 1
    elif roll < 0.07:
        del doc[rng.choice(["vertices", "edges"])]
    elif roll < 0.09:
        doc[rng.choice(["vertices", "edges"])] = rng.choice(["a", {}, 3, None])
    elif roll < 0.1:
        doc = rng.choice([[], "doc", None])
    return doc


# each kind of error line the reader writes
LINES = {"shape": "^frame document must have", "field": "^frame document has unknown field",
         "array": "must be a JSON array$", "id": "^vertex id .* is not a string or an integer$",
         "pair": "^edge entry .* is not a", "duplicate edge": "^duplicate edge", "duplicate vertex": "^duplicate vertex id",
         "endpoint": "has an endpoint outside the vertex set$"}


def test_reader_agrees_with_the_string_set_reader():
    rng, kinds = random.Random(26), set()
    for _ in range(4000):
        doc = perturbed_document(rng)
        try:
            want = frame_oracle.read(doc)
        except frame_oracle.Refused as exc:
            with pytest.raises(InputError) as refused:
                frame_from_dict(doc)
            assert str(refused.value) == str(exc), doc
            kinds.add(next(kind for kind, pattern in LINES.items() if re.search(pattern, str(exc))))
            continue
        got = frame_from_dict(doc)
        assert (got.vertices, got.edges) == want, doc
        assert got == Frame(*want) and hash(got) == hash(Frame(*want))
        assert (got.succ_mask, got.pred_mask) == (Frame(*want).succ_mask, Frame(*want).pred_mask)
        kinds.add("ok")
    assert kinds == {"ok", *LINES}


def test_first_stray_endpoint_in_document_order_is_named():
    doc = {"vertices": ["a"], "edges": [["a", "zz"], ["yy", "a"], ["xx", "ww"]]}
    with pytest.raises(InputError, match=r"^edge \('a', 'zz'\) has an endpoint outside the vertex set$"):
        frame_from_dict(doc)


def test_constructor_names_the_least_stray_edge():
    # an edge set has no document order; the constructor once named the first stray edge in hash order
    script = ("from uext import Frame\n"
              "try:\n    Frame(('a',), [('a', 'x'), ('y', 'a'), ('a', 'z'), ('q', 'a')])\n"
              "except Exception as exc:\n    print(exc)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in range(6):
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src})
        assert run.stdout == "edge ('a', 'x') has an endpoint outside the vertex set\n", seed


def test_constructor_and_reader_name_the_same_fault():
    # both check edges by the reader's one pass: the constructor's in sorted order
    rng, kinds = random.Random(37), set()
    for _ in range(2000):
        names = [f"v{i}" for i in range(rng.randint(0, 5))]
        vertices = names + (rng.sample(names, min(2, len(names))) if rng.random() < 0.3 else [])
        ends = names + (["x", "y"] if rng.random() < 0.3 else [])
        edges = {(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(0, 6))} if ends else set()
        doc = {"vertices": vertices, "edges": [list(e) for e in sorted(edges)]}
        try:
            want = frame_from_dict(doc)
        except InputError as exc:
            with pytest.raises(InputError) as refused:
                Frame(vertices, edges)
            assert str(refused.value) == str(exc), doc
            kinds.add(next(kind for kind, pattern in LINES.items() if re.search(pattern, str(exc))))
            continue
        got = Frame(vertices, edges)
        assert got == want and (got.edges, got.pred_mask) == (want.edges, want.pred_mask), doc
        kinds.add("ok")
    assert kinds == {"ok", "duplicate vertex", "endpoint"}


def test_reprs_print_edges_in_load_order_under_any_hash_seed():
    # a frame's repr, and so the repr of all that holds one, once printed its edge set in hash order
    triangle = "Frame(vertices=('a', 'b', 'c'), edges=[('a', 'b'), ('a', 'c'), ('b', 'c')])"
    script = ("from uext import build_ue, hull, load_frame\n"
              "f = load_frame('fixtures/triangle.json')\n"
              "ue = build_ue(f)\n"
              "for x in (f, hull(f, 'a', 1), ue, ue.ultrafilters[0]):\n"
              "    print(repr(x))")
    root = Path(__file__).resolve().parents[1]
    outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, cwd=root,
                           env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(root / "src")}).stdout
            for seed in (0, 4242)}
    assert len(outs) == 1
    lines = outs.pop().splitlines()
    assert lines[0] == repr(load_frame(str(root / "fixtures" / "triangle.json"))) == triangle
    assert lines[1] == f"RootedGraph(graph={triangle}, root='a', depth=1)"
    assert "edges=[('pi:a', 'pi:b'), ('pi:a', 'pi:c'), ('pi:b', 'pi:c')]" in lines[2]
    assert lines[3] == f"Ultrafilter(frame={triangle}, point='a')"


def test_derived_frames_are_not_checked_again(monkeypatch):
    # hulls, copies, unions, expansions and extensions are built from rows the loaded frame holds
    root = Path(__file__).resolve().parents[1]
    frame = load_frame(str(root / "fixtures" / "triangle.json"))
    families = [load_family(str(root / "fixtures" / "nat_succ.json")), family_from_dict({
        "base": {"vertices": ["b0", "b1"], "edges": [["b0", "b1"]]},
        "omega_templates": [{"vertices": ["c", "l0", "l1"], "edges": [["c", "l0"], ["c", "l1"]]}],
        "rays": [{"period": {"vertices": ["u", "v"], "edges": [["u", "v"]]}, "seam": [["v", "u"]], "kind": "line"}],
    }), family_from_dict({"generator": {"name": "nat_succ"}})]

    def refuse(self, vertices, edges):
        raise AssertionError("a derived frame went through the checking constructor")

    monkeypatch.setattr(Frame, "__init__", refuse)
    assert len(hull(frame, "a", 2).graph.vertices) == 3
    assert build_ue(frame).frame.edges == {("pi:a", "pi:b"), ("pi:a", "pi:c"), ("pi:b", "pi:c")}
    for fam in families:
        assert hull_census(fam, 2).entries
        assert ue_skeleton(fam, 2).frame.vertices
    assert reverse(frame).succ_mask == frame.pred_mask


def test_frames_are_immutable_and_equal_by_vertices_and_edges():
    a = Frame(("x", "y"), frozenset([("x", "y")]))
    b = frame_from_dict({"vertices": ["x", "y"], "edges": [["x", "y"]]})
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != Frame(("y", "x"), frozenset([("x", "y")])) and a != reverse(a)
    with pytest.raises(AttributeError):
        a.vertices = ("x",)
    with pytest.raises(AttributeError):
        del b.succ_mask
