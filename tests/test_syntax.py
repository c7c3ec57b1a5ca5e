"""The formula core shared by both logics: the connectives both parsers build, the one tree walk
behind modal depth and quantifier rank, formulas of any depth, and the precedence loop against the
recursive-descent parser it replaced."""

import copy
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import game_oracle as O
import parse_oracle
from golden.record import corpus
from helpers import random_fo, random_modal
from uext import (FamilyPresentation, Frame, InputError, Model, Ray, ResourceError, eval_fo, eval_modal, format_fo,
                  format_modal, modal_depth, parse_fo, parse_modal, quantifier_rank, syntax)
from uext.fo import Eq, Exists, Forall, Rel
from uext.modal import Box, Dia, Falsum, Prop
from uext.syntax import And, Imp, Not, Or, depth

DEPTHS = (101, 5001)  # the once-refused depth past a cap of 100, and one past the interpreter's stack
MODAL_SHAPES = {
    "prefix": lambda d: "[]" * (d - 1) + "p0",
    "and": lambda d: " & ".join(["p0"] * d),
    "or": lambda d: " | ".join(["p0"] * d),
    "imp": lambda d: " -> ".join(["p0"] * d),
    "parens": lambda d: "(" * (d - 1) + "p0" + ")" * (d - 1),
    "mixed": lambda d: "~(<>p0 & " * ((d - 1) // 2) + "p0" + ")" * ((d - 1) // 2),
}
FO_SHAPES = {
    "prefix": lambda d: "~" * (d - 1) + "x=x",
    "quantifiers": lambda d: "exists x. " * (d - 1) + "x=x",
    "and": lambda d: " & ".join(["R(x,x)"] * d),
    "imp": lambda d: " -> ".join(["x=x"] * d),
    "parens": lambda d: "(" * (d - 1) + "x=x" + ")" * (d - 1),
}
LOOP = Frame(("a",), frozenset([("a", "a")]))


def test_depth_counts_nodes_on_the_longest_path():
    assert depth(parse_modal("p0")) == 1
    assert depth(parse_modal("~<>p0 & p1")) == 4
    assert depth(parse_fo("exists x. R(x,x) | x=x")) == 3


def test_both_parsers_build_the_shared_connectives():
    for phi in (parse_modal("~p0 & p1 | <>p2 -> p3"), parse_fo("~R(x,y) & x=y | (exists z. R(z,z)) -> y=y")):
        assert type(phi) is syntax.Imp and type(phi.right) is not syntax.Imp
        assert type(phi.left) is syntax.Or and type(phi.left.left) is syntax.And
        assert type(phi.left.left.left) is syntax.Not


def test_rank_and_depth_agree_with_the_recursive_oracle():
    rng = random.Random(24)
    for _ in range(400):
        phi = random_modal(rng, rng.randint(0, 5), ["p0", "p1"], rng.randint(1, 16))
        assert modal_depth(phi) == O.modal_depth(phi), phi
        phi = random_fo(rng, rng.randint(0, 4), rng.randint(1, 16))
        assert quantifier_rank(phi) == O.quantifier_rank(phi), phi


def test_rank_and_depth_of_a_chain_past_the_stack():
    modal, fo = Prop("p0"), Eq("x", "x")
    for _ in range(5000):
        modal, fo = Dia(modal), Exists("x", fo)
    assert modal_depth(modal) == 5000 and quantifier_rank(fo) == 5000


@pytest.mark.parametrize("shape", sorted(MODAL_SHAPES))
def test_modal_nesting_bound(shape):
    # no nesting bound: each shape parses at any depth, prints as text that reads back as the same
    # text (compared as text, since == recurses on a tree this deep), and is labelled
    for d in DEPTHS:
        phi = parse_modal(MODAL_SHAPES[shape](d))
        text = format_modal(phi)
        levels = {"parens": 1, "mixed": d + 1}.get(shape, d)  # mixed's last <>p0 is one level below its p0
        assert depth(phi) == levels and format_modal(parse_modal(text)) == text
        assert eval_modal(Model.make(LOOP, {"p0": ["a"]}), "a", phi) in (True, False)


@pytest.mark.parametrize("shape", sorted(FO_SHAPES))
def test_fo_nesting_bound(shape):
    # each shape parses and prints back at any depth; evaluation, which recurses once per level,
    # answers or ends in one resource error naming the depth
    for d in DEPTHS:
        phi = parse_fo(FO_SHAPES[shape](d))
        text, levels = format_fo(phi), 1 if shape == "parens" else d
        assert depth(phi) == levels and format_fo(parse_fo(text)) == text
        if levels == DEPTHS[-1]:
            with pytest.raises(ResourceError, match=f"^FO evaluation ran out of interpreter stack on a formula "
                                                    f"{levels} levels deep$"):
                eval_fo(LOOP, phi, {"x": "a"})
        else:
            assert eval_fo(LOOP, phi, {"x": "a"}) in (True, False)


@pytest.mark.parametrize("logic", ["modal", "fo"])
def test_the_precedence_loop_agrees_with_the_recursive_descent_oracle(logic):
    # 20,000 seeded strings in the golden corpora's alphabet, shallow enough for the oracle's
    # recursion: the same tree (a node equals the tuple of its values) or the same error line
    parse = parse_modal if logic == "modal" else parse_fo
    errors = 0
    for text in corpus(logic, 36, 20_000):
        try:
            expected = parse_oracle.parse(logic, text)
        except parse_oracle.SyntaxFault as exc:
            expected, errors = f"error: {exc}", errors + 1
        try:
            got = parse(text)
        except InputError as exc:
            got = f"error: {exc}"
        assert got == expected, text
    assert 5_000 < errors < 15_000


def test_printers_print_a_chain_past_the_stack():
    # both printers keep their own stack, so a formula built in code prints at any depth
    not_p, dia_p, not_r, exists_r = Prop("p0"), Prop("p0"), Rel("x", "y"), Rel("x", "y")
    for _ in range(10_000):
        not_p, dia_p, not_r, exists_r = Not(not_p), Dia(dia_p), Not(not_r), Exists("y", exists_r)
    assert format_modal(not_p) == "~" * 10_000 + "p0"
    assert format_modal(dia_p) == "<>" * 10_000 + "p0"
    assert format_fo(not_r) == "~" * 10_000 + "R(x,y)"
    assert format_fo(exists_r) == "exists y. " * 10_000 + "R(x,y)"
    assert format_fo(Not(Exists("y", Rel("x", "y")))) == "~(exists y. R(x,y))"


def test_a_table_numbers_equal_subformulas_once_in_post_order():
    p, q = Prop("p0"), Prop("p1")
    phi = Imp(And(p, Dia(q)), And(Prop("p0"), Dia(Prop("p1"))))
    table = syntax.Table()
    assert table.number(phi) == 4
    assert table.nodes == [p, q, Dia(q), And(p, Dia(q)), phi] and table.nodes[0] is p
    assert table.operands == [(), (), (1,), (0, 2), (3, 3)]
    # the copy's nodes were numbered by value, and only the held nodes are known by identity
    assert set(table.ids) == set(map(id, table.nodes))
    assert table.number(And(Prop("p0"), Dia(q))) == 3 and table.number(Exists("x", Eq("x", "x"))) == 6
    assert len(table.nodes) == 7 and set(table.ids) == set(map(id, table.nodes))


def test_a_table_refuses_an_unknown_node_first_in_pre_order():
    modal_only = syntax.Table((Prop, Not, And, Dia))
    for phi, unknown in ((And(Rel("x", "y"), Eq("x", "x")), "Rel(left='x', right='y')"),
                         (Not(Exists("x", Rel("x", "x"))), "Exists(var='x', body=Rel(left='x', right='x'))"),
                         (Dia(Not("p0")), "'p0'"), (And(Prop("p0"), None), "None")):
        with pytest.raises(InputError, match=f"^unknown formula node {re.escape(unknown)}$"):
            modal_only.number(phi)


ROOT = Path(__file__).resolve().parents[1]


def test_nodes_of_different_kinds_with_the_same_fields_are_unequal():
    p = Prop("p0")
    for group in ([Dia(p), Box(p), Not(p)], [And(p, p), Or(p, p), Imp(p, p)],
                  [Exists("x", Eq("x", "x")), Forall("x", Eq("x", "x"))], [Rel("x", "y"), Eq("x", "y")]):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert a != b and not a == b, (a, b)
    assert len({Dia(p), Box(p), Not(p), Falsum(), Not(Falsum())}) == 5


def test_equal_trees_are_equal_and_hash_equal():
    rng = random.Random(31)
    for _ in range(200):
        seed = rng.random()
        a = random_modal(random.Random(seed), 3, ["p0", "p1"], 12)
        b = random_modal(random.Random(seed), 3, ["p0", "p1"], 12)
        assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        seed = rng.random()
        a, b = random_fo(random.Random(seed), 3, 12), random_fo(random.Random(seed), 3, 12)
        assert a == b and hash(a) == hash(b)


def test_nodes_are_immutable_and_built_by_position():
    p, q = Prop("p0"), Prop("p1")
    assert And(p, q) == ("And", p, q) and Exists("x", Eq("x", "x")).var == "x"
    assert (And(p, q).left, And(p, q).right, Not(p).sub, p.name) == (p, q, p, "p0")
    assert repr(Imp(p, Falsum())) == "Imp(left=Prop(name='p0'), right=Falsum())"
    for bad in (lambda: Not(), lambda: Not(p, q), lambda: And(p, left=q), lambda: Rel("x", other="y"),
                lambda: And(left=p, right=q)):
        with pytest.raises(TypeError):
            bad()
    phi = And(p, q)
    with pytest.raises(AttributeError):
        phi.left = q
    with pytest.raises(AttributeError):
        p.name = "p1"
    with pytest.raises(AttributeError):
        phi.extra = 1


def test_nodes_pickle_and_deepcopy():
    for phi, fmt in ((parse_modal("~(<>p0 & []p1) -> (p2 | ~<>p0)"), format_modal), (Not(Falsum()), format_modal),
                     (parse_fo("forall x. exists y. (R(x,y) & ~x=y) | R(y,y)"), format_fo)):
        for back in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
            assert back == phi and type(back) is type(phi) and hash(back) == hash(phi) and fmt(back) == fmt(phi)


@pytest.mark.parametrize("logic", ["modal", "fo"])
def test_every_golden_formula_parses_formats_and_reparses_to_an_equal_tree(logic):
    parse, fmt = (parse_modal, format_modal) if logic == "modal" else (parse_fo, format_fo)
    count = 0
    for line in (ROOT / "tests" / "golden" / f"{logic}_parse.jsonl").read_text().splitlines():
        text, out = json.loads(line)
        if out.startswith("error: "):
            continue
        phi = parse(text)
        again = parse(fmt(phi))
        assert fmt(phi) == out and again == phi and hash(again) == hash(phi), text
        count += 1
    assert count >= 100


def test_records_keep_their_constructors_and_hashability():
    period = Frame(("v",), frozenset())
    ray = Ray(period=period, seam=(("v", "v"),), kind="ray")
    fam = FamilyPresentation(rays=(ray,))
    assert ray == Ray(period, (("v", "v"),), "ray") and fam.rays == (ray,) and fam.base == Frame((), ())
    assert fam == FamilyPresentation(Frame((), ()), (), (ray,), None) and hash(fam) == hash(FamilyPresentation(rays=(ray,)))
    with pytest.raises(InputError):
        Ray(period=period, seam=(("v", "w"),), kind="ray")
    with pytest.raises(TypeError):
        hash(Model.make(period, {}))


def test_a_tree_deeper_than_the_stack_raises_and_does_not_crash():
    # a tuple subclass that hashes in C overflows the C stack on such a tree; nodes hash through Python
    script = ("from uext.modal import Prop\n"
              "from uext.syntax import Not\n"
              "deep = short = Prop('p0')\n"
              "for k in range(10 ** 6):\n"
              "    deep = Not(deep)\n"
              "    if k < 10 ** 4:\n"
              "        short = Not(short)\n"
              "for name, call in (('hash', lambda: hash(deep)), ('eq', lambda: deep == short),\n"
              "                   ('repr', lambda: repr(deep))):\n"
              "    try:\n"
              "        call()\n"
              "        print(name, 'value')\n"
              "    except RecursionError:\n"
              "        print(name, 'RecursionError')\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr[-2000:]
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [name for name, _ in lines] == ["hash", "eq", "repr"]
    assert all(outcome in ("value", "RecursionError") for _, outcome in lines), run.stdout
