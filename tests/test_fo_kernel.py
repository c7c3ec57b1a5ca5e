"""Set-at-a-time FO evaluation against the Tarskian oracle: random formulas over
random frames (the empty frame included), shadowed and vacuous quantifiers,
the pinned CLI cases and hull formulas, and what UEXT_ASSIGNMENT_LIMIT counts."""

import itertools
import json
import random
import re
from pathlib import Path

import pytest

import fo_oracle
import uext.fo
from uext import (Frame, InputError, ResourceError, Ultrafilter, eval_fo, hull, hull_formula, load_frame,
                  los_like_check, parse_fo)
from uext.fo import Exists, Forall, Rel, _evaluate, _scopes, format_fo, free_vars, quantifier_rank
from uext.modal import Dia, Prop
from uext.syntax import And, Not

from helpers import all_3vertex_frames, charged, random_fo, successors
from test_hulls import PATH4, TRI

ROOT = Path(__file__).resolve().parents[1]
EMPTY = Frame((), frozenset())
TRANSITIVE = parse_fo("forall x. forall y. forall z. ((R(x,y) & R(y,z)) -> R(x,z))")
CONNECTED = parse_fo("forall x. forall y. forall z. ((R(x,y) & R(x,z)) -> (y=z | (R(y,z) | R(z,y))))")


def random_frame(rng: random.Random) -> Frame:
    vs = tuple(f"w{i}" for i in range(rng.randint(0, 6)))
    p = rng.choice((0.2, 0.4, 0.7))
    return Frame(vs, frozenset((a, b) for a in vs for b in vs if rng.random() < p))


def agree(f: Frame, phi) -> list[bool]:
    """eval_fo equals the oracle under every assignment of phi's free variables; the verdicts."""
    succ, fv = successors(f), sorted(free_vars(phi))
    verdicts = []
    for values in itertools.product(f.vertices, repeat=len(fv)):
        asg = dict(zip(fv, values))
        got = eval_fo(f, phi, asg)
        assert got is fo_oracle.holds(f.vertices, succ, phi, asg), (f, format_fo(phi), asg)
        verdicts.append(got)
    return verdicts


def membership_agrees(f: Frame, phi) -> None:
    """Both sides of los_like_check at every point equal the oracle's truth set test."""
    (x,) = free_vars(phi)
    truth = fo_oracle.truth_set(f.vertices, successors(f), phi, x)
    for w in f.vertices:
        assert los_like_check(f, phi, Ultrafilter(f, w)) == (True, w in truth, w in truth), (f, format_fo(phi), w)


def test_random_formulas_match_the_oracle():
    rng = random.Random(1616)
    verdicts, empty, los = {True: 0, False: 0}, {True: 0, False: 0}, 0
    for _ in range(2500):
        f = random_frame(rng)
        phi = random_fo(rng, rng.randint(0, 3), rng.randint(1, 14))
        while not f.vertices and free_vars(phi):  # only a sentence has an assignment there
            phi = random_fo(rng, rng.randint(1, 3), rng.randint(2, 14))
        assert quantifier_rank(phi) <= 3
        for got in agree(f, phi):
            verdicts[got] += 1
            if not f.vertices:
                empty[got] += 1
        if len(free_vars(phi)) == 1 and len(f.vertices) <= 4:
            membership_agrees(f, phi)
            los += 1
    assert min(verdicts.values()) > 5000 and min(empty.values()) > 40 and los > 150


SHADOWED = [
    "exists x. exists x. R(x,x)",
    "forall x. exists x. ~R(x,x)",
    "exists x. (R(x,x) & exists x. ~R(x,x))",
    "forall x. ((exists y. R(x,y)) -> exists x. R(x,x))",
    "exists x. forall y. (R(x,y) | exists x. (R(y,x) & forall y. R(x,y)))",
    "forall x. exists y. (R(x,y) & forall x. (R(y,x) -> exists y. R(x,y)))",
    "R(x,y) & exists x. R(x,y)",
    "exists y. (R(x,y) & exists x. (R(y,x) & ~x=y))",
    "forall x. " * 5 + "R(x,x)",
]
VACUOUS = [
    "exists y. R(x,x)",
    "forall y. R(x,x)",
    "forall z. exists z. R(z,z)",
    "exists x. forall y. exists z. R(x,x)",
    "forall x. forall y. (R(x,y) -> exists z. R(x,x))",
    "exists x. ~exists y. R(x,x)",
]


@pytest.mark.parametrize("text", SHADOWED + VACUOUS)
def test_shadowed_and_vacuous_quantifiers(text):
    phi = parse_fo(text)
    verdicts = set()
    for f in [EMPTY, Frame(("a",), frozenset()), Frame(("a",), frozenset([("a", "a")])), *all_3vertex_frames()]:
        if f.vertices or not free_vars(phi):
            verdicts.update(agree(f, phi))
    assert verdicts == {True, False}


@pytest.mark.parametrize("text, holds", [
    ("forall x. R(x,x)", True),
    ("forall x. ~x=x", True),
    ("exists x. x=x", False),
    ("~exists x. x=x", True),
    ("forall x. exists y. R(x,y)", True),
    ("exists x. forall y. R(x,y)", False),
    ("forall x. forall y. forall z. (R(x,y) -> x=z)", True),
    ("forall x. R(x,x) & ~exists y. y=y", True),
    ("(forall x. R(x,x)) -> exists y. y=y", False),
    ("(exists x. x=x) | forall y. R(y,y)", True),
])
def test_the_empty_frame(text, holds):
    # over no points a mask is 0 whether it means everywhere or nowhere, so a closed
    # formula must stay a truth value: forall is true and exists false
    phi = parse_fo(text)
    assert eval_fo(EMPTY, phi) is holds is fo_oracle.holds((), {}, phi, {})


def test_charges_on_the_empty_frame_can_only_drop(monkeypatch):
    # over a column of no points all ones is 0, so the conjunction stops after its left part:
    # a mask step for v and one for y, none for z
    phi = parse_fo("exists v. ((forall y. R(y,y)) & (exists z. R(z,z)))")
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "2")
    assert charged(lambda: eval_fo(EMPTY, phi)) == (False, 2)


CLI_CASES = [c for c in json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())
             if c["argv"][:2] in (["fo", "eval"], ["fo", "los-like"]) and c["exit"] == 0]


@pytest.mark.parametrize("case", CLI_CASES, ids=[" ".join(c["argv"]) for c in CLI_CASES])
def test_pinned_cli_cases(case):
    _, command, path, text, *rest = case["argv"]
    f, phi = load_frame(str(ROOT / path)), parse_fo(text)
    out = json.loads(case["stdout"])
    if command == "eval":
        asg = dict(item.split("=", 1) for item in rest[1::2])
        assert eval_fo(f, phi, asg) is out["holds"] is fo_oracle.holds(f.vertices, successors(f), phi, asg)
    else:
        (x,) = free_vars(phi)
        at = rest[rest.index("--at") + 1]
        truth = fo_oracle.truth_set(f.vertices, successors(f), phi, x)
        assert los_like_check(f, phi, Ultrafilter(f, at)) == (True, at in truth, at in truth)
        assert out == {"agrees": True, "extension_side": at in truth, "membership_side": at in truth}
    agree(f, phi)


def test_hull_formulas():
    frames = [TRI, PATH4, Frame(("c", "l", "r"), frozenset([("c", "l"), ("c", "r")])), Frame(("z",), frozenset()),
              Frame(("a", "b"), frozenset([("a", "b"), ("b", "a"), ("b", "b")]))]
    verdicts = set()
    for f in frames:
        for w in f.vertices:
            for depth in (0, 1, 2):
                phi = parse_fo(hull_formula(hull(f, w, depth)))
                for g in frames:
                    verdicts.update(agree(g, phi))
                    membership_agrees(g, phi)
    assert verdicts == {True, False}


def chain(n: int) -> Frame:
    """The strict chain v0 < v1 < ... < v(n-1)."""
    vs = tuple(f"v{i}" for i in range(n))
    return Frame(vs, frozenset((vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)))


def test_rank_three_sentences_on_a_400_point_chain(monkeypatch):
    # the innermost variable is a mask column: 400^2 mask steps and 400 + 400^2
    # assignments, under the default cap (the Tarskian walk tried 400^3)
    monkeypatch.delenv("UEXT_ASSIGNMENT_LIMIT", raising=False)
    f = chain(400)
    assert eval_fo(f, TRANSITIVE) and eval_fo(f, CONNECTED)
    assert not eval_fo(f, parse_fo("exists x. exists y. exists z. (R(x,y) & R(y,z) & R(z,x))"))


def test_the_cap_counts_assignments_and_mask_steps(monkeypatch):
    # forall x enumerates (x is free under exists y); exists y is one mask step per x.
    # On the triangle a, b hold and c has no successor: 3 assignments and 3 steps
    phi = parse_fo("forall x. exists y. R(x,y)")
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "6")
    assert not eval_fo(TRI, phi)
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "5")
    with pytest.raises(ResourceError, match="^FO evaluation tried more than 5 assignments "
                                            r"\(set UEXT_ASSIGNMENT_LIMIT to raise\)$"):
        eval_fo(TRI, phi)
    # a flat body is one step, however many points: 3 of them for three nested quantifiers
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "3")
    assert eval_fo(chain(50), parse_fo("forall x. exists y. exists z. (R(z,z) | ~R(z,z))"))


class RowSpy(tuple):
    """A frame's rows that log every row read."""

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_the_cap_is_checked_before_the_work_it_counts(monkeypatch):
    # steps 2, 4 and 6 of `forall x. exists y. R(x,y)` each read one successor row, so a
    # cap of L lets L // 2 of them run; a cap checked after its step would let one more
    phi = parse_fo("forall x. exists y. R(x,y)")
    for limit in range(6):
        f = Frame(TRI.vertices, TRI.edges)
        f.__dict__["succ_mask"] = spy = RowSpy(TRI.succ_mask)
        spy.reads = []
        monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", str(limit))
        with pytest.raises(ResourceError):
            eval_fo(f, phi)
        assert spy.reads == [0, 1, 2][:limit // 2], limit


def test_los_like_membership_is_one_mask_on_the_frame(monkeypatch):
    # x is flat in phi, so the membership side is one mask step for x and one for y, and
    # the extension side one for y, each under its own count; per point it was 6 * 6
    phi, f = parse_fo("R(x,x) | exists y. R(y,y)"), chain(6)
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "2")
    assert los_like_check(f, phi, Ultrafilter(f, "v3")) == (True, False, False)
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "1")
    with pytest.raises(ResourceError):
        los_like_check(f, phi, Ultrafilter(f, "v3"))


@pytest.mark.parametrize("phi, unknown", [
    (Prop("p0"), "Prop(name='p0')"),
    (And(Rel("x", "x"), Prop("p0")), "Prop(name='p0')"),
    (Exists("x", Dia(Prop("p0"))), "Dia(sub=Prop(name='p0'))"),
    (Dia(Prop("p0")), "Dia(sub=Prop(name='p0'))"),
    (Exists("x", None), "None"),
])
def test_a_node_of_another_logic_is_refused_in_one_line(phi, unknown):
    # the first foreign node in pre-order is named, as syntax.Table names it; quantifier_rank
    # once answered 0 for a modal formula and raised TypeError on a missing body
    f = Frame(("a",), frozenset())
    for call in (lambda: eval_fo(f, phi), lambda: los_like_check(f, phi, Ultrafilter(f, "a")),
                 lambda: free_vars(phi), lambda: quantifier_rank(phi)):
        with pytest.raises(InputError, match=f"^unknown formula node {re.escape(unknown)}$"):
            call()


def test_the_column_path_compiles_without_a_free_variable_walk(monkeypatch):
    # a subformula's column is read off its atoms, so a 200-deep chain compiles in linear time
    calls = []

    def counted(phi):
        calls.append(None)
        return free_vars(phi)

    phi = Rel("x", "x")
    for _ in range(200):
        phi = Not(phi)
    monkeypatch.setattr(uext.fo, "free_vars", counted)
    assert _evaluate(Frame(("a", "b"), frozenset([("a", "a")])), _scopes(phi), {}, column="x") == 0b01
    assert len(calls) == 0


def test_nested_quantifiers_compile_from_one_pass_over_their_nodes(monkeypatch):
    # forall y. 400 deep over R(y,y): every quantifier's flatness is read off one numbering, made
    # once per evaluation over the 401 subformulas, where a free-variable walk per quantifier made
    # 80,199 free_vars calls
    passes, walks = [], []
    scopes, free = uext.fo._scopes, uext.fo.free_vars

    def counted_scopes(phi):
        passes.append(scopes(phi))
        return passes[-1]

    def counted_free(phi):
        walks.append(None)
        return free(phi)

    phi = Rel("y", "y")
    for _ in range(400):
        phi = Forall("y", phi)
    monkeypatch.setattr(uext.fo, "_scopes", counted_scopes)
    monkeypatch.setattr(uext.fo, "free_vars", counted_free)
    assert eval_fo(Frame(("a", "b"), frozenset([("a", "a")])), phi) is False
    assert eval_fo(Frame(("a",), frozenset([("a", "a")])), phi) is True
    assert len(passes) == 2 and not walks
    assert [(len(table.nodes), len(scopes)) for table, scopes in passes] == [(401, 401)] * 2
