"""The formula core shared by both logics: the connectives both parsers build, the one tree walk
behind modal depth and quantifier rank, and the nesting bound, at the bound and one past it."""

import random

import pytest

import game_oracle as O
from helpers import random_modal
from test_fo_kernel import random_fo
from uext import (Frame, InputError, Model, eval_fo, eval_modal, format_fo, format_modal, modal_depth, parse_fo,
                  parse_modal, quantifier_rank, syntax)
from uext.fo import Eq, Exists, Rel
from uext.modal import Dia, Prop
from uext.syntax import MAX_DEPTH, Not, depth

D = MAX_DEPTH
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
    text = MODAL_SHAPES[shape](D)
    phi = parse_modal(text)
    assert parse_modal(format_modal(phi)) == phi
    assert eval_modal(Model.make(LOOP, {"p0": ["a"]}), "a", phi) in (True, False)
    with pytest.raises(InputError, match=f"^modal formula nested deeper than {D} levels$"):
        parse_modal(MODAL_SHAPES[shape](D + 1))


@pytest.mark.parametrize("shape", sorted(FO_SHAPES))
def test_fo_nesting_bound(shape):
    phi = parse_fo(FO_SHAPES[shape](D))
    assert parse_fo(format_fo(phi)) == phi
    assert eval_fo(LOOP, phi, {"x": "a"}) in (True, False)
    with pytest.raises(InputError, match=f"^FO formula nested deeper than {D} levels$"):
        parse_fo(FO_SHAPES[shape](D + 1))


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
