"""The nesting bound shared by both parsers, at the bound and one past it."""

import pytest

from uext import Frame, InputError, Model, eval_fo, eval_modal, format_fo, format_modal, parse_fo, parse_modal
from uext.syntax import MAX_DEPTH, depth

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
