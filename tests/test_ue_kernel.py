"""The bit-sliced extension kernel against the frozenset and subset-sweep
oracles, its defect detector, and its powerset cap."""

import json
import random
import tracemalloc

import pytest

import ue_oracle
from uext import DefectError, Frame, Model, build_ue, enumerate_ultrafilters, extend_model, ue_related
from uext.cli import main
from uext.ultra import _mode_rows

from helpers import all_3vertex_frames, random_frame, random_valuation

PATH = Frame(("a", "b", "c"), frozenset([("a", "b"), ("b", "c")]))


def differential_corpus():
    yield from all_3vertex_frames()
    yield Frame((), frozenset())
    yield Frame(tuple(f"w{i}" for i in range(5)), frozenset())
    yield Frame(("x", "y"), frozenset([("x", "x"), ("y", "y"), ("x", "y")]))
    rng = random.Random(2405)
    for i in range(240):
        yield random_frame(rng, max_n=7, edge_p=(0.15, 0.35, 0.6)[i % 3])


def test_kernel_matches_oracle():
    loops = 0
    for f in differential_corpus():
        us = enumerate_ultrafilters(f)
        for mode in "ABC":
            got = frozenset(
                (u.point, v.point) for u in us for v in us if ue_related(u, v, mode)
            )
            assert got == ue_oracle.relation(f.vertices, f.edges, mode), (f, mode)
        want = frozenset((f"pi:{a}", f"pi:{b}") for a, b in f.edges)
        assert build_ue(f).frame.edges == want
        loops += any(a == b for a, b in f.edges)
    assert loops > 100


def test_extension_keeps_the_base_load_order():
    # UEModel.model reads V^ue(p) = {u : V(p) in u} as V(p)'s mask: ultrafilter k is principal at point k
    rng = random.Random(2911)
    for f in differential_corpus():
        ue = build_ue(f)
        assert ue.frame.vertices == tuple(u.name for u in ue.ultrafilters)
        assert [u.point for u in ue.ultrafilters] == list(f.vertices)
        m = Model.make(f, random_valuation(rng, f, ["p0", "p1"]))
        ext = extend_model(m).model
        assert ext.masks == m.masks
        for p, mask in ext.masks.items():
            want = {u.name for u in ue.ultrafilters if u.member(set(f.names(m.masks[p])))}
            assert set(ext.frame.names(mask)) == want, (f, p)


def sweep_corpus():
    yield from all_3vertex_frames()
    rng = random.Random(2412)
    for i in range(18):
        n = 8 + i % 6
        vs = tuple(f"w{k}" for k in range(n))
        p = (0.1, 0.3, 0.6)[i % 3]
        yield Frame(vs, frozenset((a, b) for a in vs for b in vs if rng.random() < p))


def test_kernel_matches_sweep_oracle_on_every_pair():
    sinks = 0
    for f in sweep_corpus():
        want = ue_oracle.sweep_rows(f.vertices, f.edges)
        assert _mode_rows(f) == want, f
        us = enumerate_ultrafilters(f)
        for mode in "ABC":
            for i, u in enumerate(us):
                for j, v in enumerate(us):
                    assert ue_related(u, v, mode) == bool(want[mode][i] >> j & 1), (f, mode, u, v)
        sinks += len(f.vertices) > 3 and not all(f.succ_mask)
    assert sinks >= 3


@pytest.mark.parametrize("view, other, flags", [
    ("pred_mask", "succ_mask", "A=False B=True C=True"),
    ("succ_mask", "pred_mask", "A=True B=False C=False"),
])
def test_corrupt_mask_view_is_a_defect(view, other, flags):
    f = Frame(PATH.vertices, PATH.edges)
    f.__dict__[view] = getattr(f, other)  # the reversed relation
    with pytest.raises(DefectError) as err:
        build_ue(f)
    assert str(err.value) == f"ue_related modes disagree at (pi:a, pi:b): {flags}"


def test_corrupt_mask_view_exits_3(capsys, tmp_path, monkeypatch):
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}))
    monkeypatch.setattr(Frame, "pred_mask", property(lambda self: self.succ_mask))
    assert main(["ue", "cross-check", str(p)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("defect: ue_related modes disagree")


def _write_random_frame(tmp_path, n: int) -> tuple[str, Frame]:
    rng = random.Random(n)
    vs = tuple(f"w{i}" for i in range(n))
    f = Frame(vs, frozenset((a, b) for a in vs for b in vs if rng.random() < 0.3))
    p = tmp_path / f"n{n}.json"
    p.write_text(json.dumps({"vertices": list(f.vertices), "edges": sorted(map(list, f.edges))}))
    return str(p), f


def test_thirteen_vertices_build_at_default_cap(monkeypatch, tmp_path):
    monkeypatch.delenv("UEXT_POWERSET_LIMIT", raising=False)
    _, f = _write_random_frame(tmp_path, 13)
    want = frozenset((f"pi:{a}", f"pi:{b}") for a, b in f.edges)
    assert build_ue(f).frame.edges == want


def test_twenty_three_vertices_exit_2_before_powerset_allocation(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("UEXT_POWERSET_LIMIT", raising=False)
    path, _ = _write_random_frame(tmp_path, 23)
    tracemalloc.start()
    try:
        code = main(["ue", "build", path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "|W| <= 22" in capsys.readouterr().err
    # one 2^23-bit truth table alone would take 1 MiB
    assert peak < 2**23 // 8 // 4
