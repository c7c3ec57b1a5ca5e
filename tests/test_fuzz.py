"""Small arbitrary JSON fed to the loaders and to every subcommand that reads a file.

Whatever the document, a loader returns or raises InputError, and the CLI
exits 0, 1 or 2 without a traceback; a nonzero exit prints exactly one line
on stderr.
"""

import json
import tempfile
from contextlib import suppress
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import cli_outcome
from uext import InputError, family_from_dict, frame_from_dict
from uext.cli import _load_model

FIELDS = ["vertices", "edges", "valuation", "base", "omega_templates", "rays", "generator", "period", "seam",
          "kind", "name", "p0"]
WORDS = ["a", "b", "0", "ray", "line", "nat_succ", "nat_lt", "chains_lt", "rep0:a", "a@0"]

leaves = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats(width=16) | st.sampled_from(WORDS)
          | st.text(max_size=3))
values = st.recursive(leaves, lambda kids: st.lists(kids, max_size=4)
                      | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2), kids, max_size=4),
                      max_leaves=12)
vertex = st.sampled_from(["a", "b", "c", "0", 1])


@st.composite
def frame_docs(draw):
    """Mostly well-formed frames: edges mostly between the frame's own vertices, some not pairs."""
    verts = draw(st.lists(vertex, max_size=5, unique=True))
    own = st.sampled_from(verts or ["a"])
    pairs = st.lists(st.tuples(own, own).map(list) | st.lists(vertex, max_size=3), max_size=5)
    doc = {"vertices": verts, "edges": draw(pairs)}
    if draw(st.booleans()):
        doc["valuation"] = draw(st.dictionaries(st.sampled_from(["p0", "p1"]), st.lists(own, max_size=3)))
    return doc


frames = frame_docs()
seams = st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=3)
rays = st.fixed_dictionaries({"period": frames, "seam": seams},
                             optional={"kind": st.sampled_from(["ray", "line"]) | values})
families = st.fixed_dictionaries({}, optional={
    "base": frames, "omega_templates": st.lists(frames, max_size=2), "rays": st.lists(rays, max_size=2),
    "generator": st.fixed_dictionaries({"name": st.sampled_from(["nat_succ", "nat_lt", "chains_lt"]) | values})})
documents = frames | families | values

P = "{doc}"
FRAME_COMMANDS = [
    ["ue", "build", P], ["ue", "cross-check", P],
    ["modal", "eval", P, "<>p0 & []p1", "--at", "a"], ["modal", "valid", P, "[]p0 -> <>p0"],
    ["bisim", P, P, "--at1", "a", "--at2", "b", "--depth", "2"],
    ["fo", "eval", P, "forall x. exists y. R(x,y)"], ["fo", "ef", P, P, "--max-rounds", "2"],
    ["fo", "los-like", P, "exists y. R(x,y)", "--at", "a"],
    ["hull", P, "--at", "a", "--depth", "2"],
]
FAMILY_COMMANDS = [
    ["census", P, "--depth", "1"], ["skeleton", P, "--depth", "1"],
    ["detect", "reflexive", P], ["detect", "generated", P], ["detect", "modal", P, "--depth", "1"],
]
# each command reads mostly documents of its own kind, so that most runs get past the
# loader; noise sits between copies of the document strategy, which the draws favour less
noise = values | st.text(max_size=6)
runs = (st.tuples(st.sampled_from(FRAME_COMMANDS), st.one_of(frames, noise, frames, frames))
        | st.tuples(st.sampled_from(FAMILY_COMMANDS), st.one_of(families, noise, families, families)))
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(documents)
def test_loaders_accept_or_refuse(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for load in (lambda: frame_from_dict(doc), lambda: family_from_dict(doc), lambda: _load_model(str(path))):
            with suppress(InputError):
                load()


@FUZZ
@given(runs)
def test_cli_exits_cleanly(run):
    argv, doc = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = cli_outcome([str(path) if arg == P else arg for arg in argv])
    assert out["exit"] in (0, 1, 2), out
    if out["exit"]:
        assert out["stderr"].count("\n") == 1 and out["stderr"].endswith("\n"), out
    else:
        assert out["stderr"] == "", out
        json.loads(out["stdout"])
