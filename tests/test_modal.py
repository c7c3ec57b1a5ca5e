import json
import random
from pathlib import Path

import pytest

from uext import (
    Frame,
    InputError,
    Model,
    ResourceError,
    eval_modal,
    extend_model,
    format_modal,
    frame_valid,
    modal_depth,
    modally_equivalent_upto,
    n_bisimilar,
    parse_modal,
    truth_membership_check,
    truth_set,
)
from uext import modal, syntax
from uext.cli import main
from uext.modal import TOP, And, Box, Dia, Falsum, Imp, Not, Or, Prop, distinguishing_formula, letters, truth_mask
from uext.syntax import fold

import bisim_oracle
import modal_oracle
from helpers import (CAP_VARS, all_3vertex_frames, game_outcome, modal_truth_outcome, random_frame, random_modal,
                     random_valuation, successors, valuation)

TRI = Frame(("a", "b", "c"), frozenset([("a", "b"), ("a", "c"), ("b", "c")]))


def test_parse_precedence():
    # -> binds loosest and associates right; unary binds tightest
    phi = parse_modal("~p0 & p1 | p2 -> p0 -> <>[]p1")
    assert phi == Imp(
        Or(And(Not(Prop("p0")), Prop("p1")), Prop("p2")),
        Imp(Prop("p0"), Dia(Box(Prop("p1")))),
    )


def test_parse_round_trip():
    rng = random.Random(1)
    for _ in range(80):
        phi = random_modal(rng, 3, ["p0", "p1"])
        assert parse_modal(format_modal(phi)) == phi


def test_parse_errors_carry_position():
    with pytest.raises(InputError, match="position"):
        parse_modal("p0 & & p1")
    with pytest.raises(InputError, match="syntax error"):
        parse_modal("(p0")
    with pytest.raises(InputError):
        parse_modal("")


def test_modal_depth():
    assert modal_depth(parse_modal("p0")) == 0
    assert modal_depth(parse_modal("<>[]p0 & <>p1")) == 2


def test_eval_and_truth_set():
    m = Model.make(TRI, {"p0": ["b", "c"]})
    assert eval_modal(m, "a", parse_modal("<>p0"))
    assert eval_modal(m, "a", parse_modal("[]p0"))
    assert not eval_modal(m, "c", parse_modal("<>p0"))
    assert truth_set(m, parse_modal("<>p0")) == {"a", "b"}
    # unknown letters are false everywhere
    assert truth_set(m, parse_modal("p9")) == frozenset()


def test_box_is_derived_from_diamond():
    m = Model.make(TRI, {"p0": ["b"]})
    box = parse_modal("[]p0")
    dual = parse_modal("~<>~p0")
    for w in TRI.vertices:
        assert eval_modal(m, w, box) == eval_modal(m, w, dual)


def test_frame_valid():
    refl = Frame(("x",), frozenset([("x", "x")]))
    ok, _ = frame_valid(refl, parse_modal("[]p0 -> p0"))
    assert ok
    ok, counter = frame_valid(TRI, parse_modal("[]p0 -> p0"))
    assert not ok and counter is not None
    model, w = counter
    assert not eval_modal(model, w, parse_modal("[]p0 -> p0"))


def test_frame_valid_cap(monkeypatch):
    monkeypatch.setenv("UEXT_VALUATION_LIMIT", "4")
    with pytest.raises(ResourceError):
        frame_valid(TRI, parse_modal("p0 | p1"))


def test_truth_membership_on_random_models():
    rng = random.Random(11)
    for _ in range(30):
        f = random_frame(rng, max_n=5)
        m = Model.make(f, random_valuation(rng, f, ["p0", "p1"]))
        uem = extend_model(m)
        for _ in range(5):
            assert truth_membership_check(uem, random_modal(rng, 3, ["p0", "p1"]))


def points(frame, mask):
    return frozenset(w for i, w in enumerate(frame.vertices) if mask >> i & 1)


def test_truth_mask_matches_oracle():
    rng = random.Random(31)
    for _ in range(500):
        f = random_frame(rng, 7)
        m = Model.make(f, random_valuation(rng, f, ["p0", "p1"][:rng.randint(0, 2)]))
        phi = random_modal(rng, rng.randint(0, 5), ["p0", "p1", "p2"], rng.randint(1, 20))
        want = modal_oracle.truth_set(f.vertices, successors(f), valuation(m), phi)
        assert points(f, truth_mask(f, m.masks, phi)) == want
        assert truth_set(m, phi) == want
        w = rng.choice(f.vertices)
        assert eval_modal(m, w, phi) == (w in want)


AXIOMS = ["[]p0 -> p0", "[]p0 -> [][]p0", "p0 -> []<>p0", "[]p0 -> <>p0", "(<>p0 & <>p1) -> <>(p0 & p1)"]


@pytest.mark.parametrize("text", AXIOMS)
def test_frame_valid_matches_oracle_on_all_3_point_frames(text):
    phi = parse_modal(text)
    verdicts = set()
    for f in all_3vertex_frames():
        ok, counter = frame_valid(f, phi)
        want_ok, want_counter = modal_oracle.frame_valid(f.vertices, successors(f), phi)
        verdicts.add(ok)
        assert ok == want_ok
        if counter is None:
            assert want_counter is None
        else:
            model, w = counter
            assert (valuation(model), w) == want_counter
    assert verdicts == {True, False}


def test_truth_mask_edge_cases():
    empty = Frame((), frozenset())
    assert truth_mask(empty, {}, parse_modal("<>p0 | ~p0")) == 0
    assert truth_set(Model.make(empty, {}), TOP) == frozenset()
    assert frame_valid(empty, parse_modal("p0 & ~p0")) == (True, None)
    # an unknown letter and falsum are false everywhere, their negations true everywhere
    assert truth_mask(TRI, {"p0": 0b110}, Prop("p9")) == 0
    assert truth_mask(TRI, {"p0": 0b110}, Not(Prop("p9"))) == 0b111
    assert truth_mask(TRI, {}, Falsum()) == 0
    assert truth_mask(TRI, {}, TOP) == 0b111
    # c is a dead end: every box holds there, no diamond does
    assert truth_mask(TRI, {}, Box(Falsum())) == 0b100
    assert truth_mask(TRI, {}, Dia(TOP)) == 0b011
    # b's one successor is c; a sees b and c
    assert truth_mask(TRI, {"p0": 0b100}, Box(Prop("p0"))) == 0b110


def test_labelling_hashes_each_subformula_at_most_twice(monkeypatch):
    # a node's hash walks its whole subtree in Python, one Node.__hash__ call per node, so
    # labelling a 90-deep <> chain once should cost at most two walks of each of its 91 subtrees
    phi = parse_modal("<>" * 90 + "p0")
    loop = Frame(("a",), frozenset([("a", "a")]))
    calls = []

    def counted(node):
        calls.append(None)
        return tuple.__hash__(node)

    monkeypatch.setattr(syntax.Node, "__hash__", counted)
    assert truth_mask(loop, {"p0": 1}, phi) == 1
    assert len(calls) <= 2 * sum(range(1, 92))


def test_no_whole_tree_is_hashed(monkeypatch):
    # subformulas are numbered by their kind, strings and operands' numbers, never by a node's hash
    golden = Path(__file__).resolve().parent / "golden"
    truth = [json.loads(line) for line in (golden / "modal_truth.jsonl").read_text().splitlines()]
    games = [json.loads(line) for line in (golden / "games.jsonl").read_text().splitlines()]
    assert any("frame" in case for case in truth) and any("frames" in case for case in games)
    assert any(case.get("witness") for case in games) and any(case.get("sentence") for case in games)
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)

    def refuse(node):
        raise AssertionError(f"hashed {node!r}")

    monkeypatch.setattr(syntax.Node, "__hash__", refuse)
    for case in truth:
        assert modal_truth_outcome(case) == case
    for case in games:
        assert game_outcome(case) == case


def test_each_distinct_subformula_is_one_step():
    numbered = syntax.Table(modal.MODAL, parse_modal("[]p0 & []p0"))
    assert numbered.nodes == [Prop("p0"), Box(Prop("p0")), And(Box(Prop("p0")), Box(Prop("p0")))]
    assert numbered.operands == [(), (0,), (1, 1)]


DEEP = 10_000
CYCLE = Frame(("a", "b", "c"), frozenset([("a", "b"), ("b", "c"), ("c", "a")]))


def test_deep_formulas_built_in_code_are_labelled_without_recursion():
    p = Prop("p0")
    nots, dias, boxes = p, p, p
    for _ in range(DEEP):
        nots, dias, boxes = Not(nots), Dia(dias), Box(boxes)
    conj = fold(And, [Prop(f"p{k % 3}") for k in range(DEEP)])
    masks = {"p0": 0b001, "p1": 0b011, "p2": 0b101}
    # on the cycle a -> b -> c -> a, <>X and []X are both X's predecessors, one step back round
    back = [0b001, 0b100, 0b010][DEEP % 3]
    assert [truth_mask(CYCLE, masks, phi) for phi in (nots, dias, boxes, conj)] == [0b001, back, back, 0b001]
    assert [letters(phi) for phi in (nots, dias, boxes)] == [{"p0"}] * 3
    assert letters(conj) == {"p0", "p1", "p2"}


def test_frame_valid_decides_a_deep_chain_on_one_point():
    loop, dead = Frame(("a",), frozenset([("a", "a")])), Frame(("a",), frozenset())
    boxes, dias = Prop("p0"), Prop("p0")
    for _ in range(DEEP):
        boxes, dias = Box(boxes), Dia(dias)
    assert frame_valid(loop, Imp(boxes, dias)) == (True, None)
    assert frame_valid(dead, boxes) == (True, None)
    assert frame_valid(dead, Not(dias)) == (True, None)
    ok, (model, w) = frame_valid(loop, dias)
    assert not ok and model.masks == {"p0": 0} and w == "a"


def test_preimage_over_several_tables():
    # images of random masks over 20 points against the edge-list definition
    rng = random.Random(5)
    verts = tuple(f"v{i}" for i in range(20))
    f = Frame(verts, frozenset((a, b) for a in verts for b in verts if rng.random() < 0.1))
    for _ in range(200):
        x = rng.getrandbits(20)
        xs = points(f, x)
        assert points(f, f.image(x, False)) == {a for a, b in f.edges if b in xs}
        assert points(f, f.image(x, True)) == {b for a, b in f.edges if a in xs}


def test_corrupted_pred_mask_fails_truth_membership():
    m = Model.make(TRI, {"p0": ["c"]})
    phi = parse_modal("<>p0")
    assert truth_membership_check(extend_model(m), phi)
    uem = extend_model(m)
    uem.model.frame.__dict__["pred_mask"] = (0,) * len(TRI.vertices)  # no point has a successor
    assert not truth_membership_check(uem, phi)


def test_a_valuation_is_checked_once(tmp_path, monkeypatch, capsys):
    # the model reader checks each letter's list and hands on masks; the CLI once checked them again
    calls = []
    check = Frame.check_vertices
    monkeypatch.setattr(Frame, "check_vertices", lambda self, xs: calls.append(xs) or check(self, xs))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"], ["b", "c"]],
                                "valuation": {"p1": ["a", "c"], "p0": ["b"]}}))
    assert main(["modal", "eval", str(path), "<>p0 & p1", "--at", "a"]) == 0
    assert capsys.readouterr() == ('{\n  "holds": true\n}\n', "")
    assert sorted(map(sorted, calls)) == [["a", "c"], ["b"]]
    # a counterexample and the extension's valuation are built from masks, unchecked
    ok, (model, w) = frame_valid(TRI, parse_modal("<>p0 -> []p0"))
    uem = extend_model(model)
    calls.clear()
    assert not ok and uem.model.masks == model.masks == {"p0": 0b010} and w == "a"
    assert calls == []


def test_a_model_is_not_hashable():
    m = Model.make(TRI, {"p0": ["b"]})
    assert m == Model(TRI, {"p0": 0b010}) and m.masks == {"p0": 0b010}
    with pytest.raises(TypeError):
        hash(m)


def test_n_bisimilar_reflexive_vs_two_cycle():
    loop = Model.make(Frame(("x",), frozenset([("x", "x")])), {})
    two = Model.make(Frame(("a", "b"), frozenset([("a", "b"), ("b", "a")])), {})
    for n in range(5):
        assert n_bisimilar(loop, "x", two, "a", n)


def test_n_bisimilar_depth_cutoff():
    # paths of length 1 vs 2 differ exactly at depth 2
    p1 = Model.make(Frame(("a", "b"), frozenset([("a", "b")])), {})
    p2 = Model.make(Frame(("x", "y", "z"), frozenset([("x", "y"), ("y", "z")])), {})
    assert n_bisimilar(p1, "a", p2, "x", 1)
    assert not n_bisimilar(p1, "a", p2, "x", 2)


def test_distinguishing_formula_witnesses():
    p1 = Model.make(Frame(("a", "b"), frozenset([("a", "b")])), {})
    p2 = Model.make(Frame(("x", "y", "z"), frozenset([("x", "y"), ("y", "z")])), {})
    eq, phi = modally_equivalent_upto(p1, "a", p2, "x", 2, [])
    assert not eq and phi is not None
    assert modal_depth(phi) <= 2
    assert eval_modal(p1, "a", phi) != eval_modal(p2, "x", phi)


def test_equivalent_upto_agrees_with_game():
    rng = random.Random(23)
    verdicts = set()
    for _ in range(400):
        f1, f2 = random_frame(rng, 4), random_frame(rng, 4)
        letters = ["p0", "p1"]
        m1 = Model.make(f1, random_valuation(rng, f1, letters))
        m2 = Model.make(f2, random_valuation(rng, f2, letters))
        w1, w2 = rng.choice(f1.vertices), rng.choice(f2.vertices)
        n = rng.randint(0, 3)
        truth = bisim_oracle.n_bisimilar((successors(f1), valuation(m1)), w1,
                                         (successors(f2), valuation(m2)), w2, n, letters)
        verdicts.add(truth)
        assert n_bisimilar(m1, w1, m2, w2, n) == truth
        eq, phi = modally_equivalent_upto(m1, w1, m2, w2, n, letters)
        assert eq == truth
        if not eq:
            assert modal_depth(phi) <= n
            assert eval_modal(m1, w1, phi) and not eval_modal(m2, w2, phi)
    assert verdicts == {True, False}


def test_n_bisimilar_past_the_clip_matches_oracle():
    # rounds are clipped to |W1| + |W2|; the oracle refines the full n rounds
    rng = random.Random(41)
    for _ in range(100):
        f1, f2 = random_frame(rng, 3), random_frame(rng, 3)
        m1 = Model.make(f1, random_valuation(rng, f1, ["p0"]))
        m2 = Model.make(f2, random_valuation(rng, f2, ["p0"]))
        w1, w2 = rng.choice(f1.vertices), rng.choice(f2.vertices)
        for n in range(len(f1.vertices) + len(f2.vertices) + 4):
            truth = bisim_oracle.n_bisimilar((successors(f1), valuation(m1)), w1,
                                             (successors(f2), valuation(m2)), w2, n, ["p0"])
            assert n_bisimilar(m1, w1, m2, w2, n) == truth
            phi = distinguishing_formula(m1, w1, m2, w2, n, ["p0"])
            assert (phi is None) == truth
            if phi is not None:
                assert eval_modal(m1, w1, phi) and not eval_modal(m2, w2, phi)


def test_witness_has_the_least_separating_depth():
    # the witness is read at the least n at which the oracle separates the worlds
    rng, separated = random.Random(59), 0
    for _ in range(300):
        f1, f2 = random_frame(rng, 4), random_frame(rng, 4)
        letters = ["p0", "p1"]
        m1 = Model.make(f1, random_valuation(rng, f1, letters))
        m2 = Model.make(f2, random_valuation(rng, f2, letters))
        w1, w2, n = rng.choice(f1.vertices), rng.choice(f2.vertices), rng.randint(0, 4)
        least = next((d for d in range(n + 1) if not bisim_oracle.n_bisimilar(
            (successors(f1), valuation(m1)), w1, (successors(f2), valuation(m2)), w2, d, letters)), None)
        phi = distinguishing_formula(m1, w1, m2, w2, n, letters)
        assert (phi is None) == (least is None)
        if phi is not None:
            separated += 1
            assert modal_depth(phi) == least
            assert eval_modal(m1, w1, phi) and not eval_modal(m2, w2, phi)
    assert separated >= 150


def test_back_failure_witness_is_a_box():
    # Spoiler wins only by moving in the second model: its world has a successor
    dead_end = Model.make(Frame(("a",), frozenset()), {})
    one_step = Model.make(Frame(("x", "y"), frozenset([("x", "y")])), {})
    for n in (1, 2):
        eq, phi = modally_equivalent_upto(dead_end, "a", one_step, "x", n, [])
        assert not eq and isinstance(phi, Box)
        assert eval_modal(dead_end, "a", phi) and not eval_modal(one_step, "x", phi)
    assert distinguishing_formula(one_step, "x", dead_end, "a", 1, []) == Dia(Not(Falsum()))
    # every successor of a is matched, but x's successor z matches neither: p0 | p1 under the box
    fork = Model.make(Frame(("a", "b", "c"), frozenset([("a", "b"), ("a", "c")])), {"p0": ["b"], "p1": ["c"]})
    wide = Model.make(Frame(("x", "y", "u", "z"), frozenset([("x", "y"), ("x", "u"), ("x", "z")])),
                      {"p0": ["y"], "p1": ["u"]})
    assert modally_equivalent_upto(fork, "a", wide, "x", 1, ["p0", "p1"]) == (False, Box(Or(Prop("p0"), Prop("p1"))))
