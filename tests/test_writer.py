"""uext.cli.dumps writes every answer byte for byte as json.dumps(doc, indent=2, sort_keys=True),
the stdlib call kept here as its oracle."""

import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from uext.cli import dumps

GOLDEN = Path(__file__).resolve().parent / "golden"


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
           | st.text() | st.sampled_from(["", "é", " ", "\x00", '"\\/', "\U0001f600", "p0"]))
# one object's keys are all strings or all integers (as `detect generated` writes its degrees);
# mixed keys cannot be sorted, by json.dumps or by the writer
keys = st.one_of(st.lists(st.text(max_size=4), max_size=5, unique=True),
                 st.lists(st.integers(-40, 40), max_size=5, unique=True))
documents = st.recursive(scalars, lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
                         | st.builds(lambda ks, vs: dict(zip(ks, vs)), keys, st.lists(kids, min_size=5, max_size=5)),
                         max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_writer_is_json_dumps(doc):
    assert dumps(doc) == oracle(doc)


def test_writer_on_edge_cases():
    deep = []
    for _ in range(60):
        deep = [deep, {"k": deep}] if len(json.dumps(deep)) < 5000 else [deep]
    cases = [{}, [], "", 0, -0.0, math.nan, math.inf, -math.inf, 1e300, True, None, {True: 1}, {None: 1},
             {1.5: [()]}, {4: 1, 8: 2, 16: 3, 32: 4}, [[[]], [{}], {"": {}}], deep, "\ud800"]
    for doc in cases:
        assert dumps(doc) == oracle(doc), doc


def test_writer_on_every_golden():
    docs = []
    for case in json.loads((GOLDEN / "cli.json").read_text()):
        if case["exit"] == 0 and case["stdout"].startswith(("{", "[")):
            docs.append(json.loads(case["stdout"]))
    docs += [json.loads((GOLDEN / "help.json").read_text())]
    for path in sorted(GOLDEN.glob("*.jsonl")):
        docs += [json.loads(line) for line in path.read_text().splitlines()]
    assert len(docs) > 3000
    for doc in docs:
        assert dumps(doc) == oracle(doc)
