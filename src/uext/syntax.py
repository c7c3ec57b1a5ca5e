"""The connectives and surface syntax shared by the modal and first-order languages.

Under the standard translation the modal connectives are the first-order ones
(Blackburn, de Rijke and Venema 2001, 2.4), so both logics build their formulas
from the one set of nodes Not, And, Or and Imp defined here, and each logic's atoms
and operators are nodes on the same base, `Node`.  Both write the
connectives ~ & | -> with parentheses, bind unary operators tightest, then &,
then |, then -> (right-associative), and report syntax errors by character
position.  The parser reads the connectives and parentheses itself, in one
operator-precedence loop over explicit stacks (Dijkstra's shunting-yard), so
a formula of any depth parses; a logic supplies only its token pattern, its
error label and its ``operand`` method, which reads one of its own atoms or
prefix operators.  One loop, `format_formula`, prints both logics; every other
pass over a formula (depth, rank, free variables, labelling, compilation) reads
the one numbering of its distinct subformulas, `Table`.
"""

from __future__ import annotations

import re
from collections import _tuplegetter  # the field descriptor of namedtuple: twice as fast as property(itemgetter)
from functools import reduce

from .errors import InputError

PREFIX = 4  # the precedence of ~ and of a logic's prefix operators, above every connective
_tuple_new, _tuple_hash = tuple.__new__, tuple.__hash__  # looked up once: every node built or hashed calls one
ARITY: dict[type, int] = {}  # each node class -> how many of its last fields are subformulas


class Node(tuple):
    """A formula node: a tuple of its kind tag, the class name, then its fields, the names annotated
    in its class body, given by position and read by name.  The tag keeps nodes of different kinds
    unequal.  Hashing goes through Python, so hashing a tree deeper than the stack raises
    RecursionError instead of overflowing it.  A class declares its text: an atom a ``template``
    filled with its fields, a prefix operator a ``head`` filled with its fields but the last (its
    subformula), a connective a ``symbol``.  A ``scoped`` operator's scope runs on to the right."""

    __slots__ = ()
    fields: tuple[str, ...] = ()
    template = head = symbol = ""
    scoped = False

    def __init_subclass__(cls):
        cls.fields = tuple(cls.__dict__.get("__annotations__", ()))
        for k, name in enumerate(cls.fields, 1):
            setattr(cls, name, _tuplegetter(k, None))
        ARITY[cls] = 2 if cls.symbol else 1 if cls.head else 0

    def __new__(cls, *args):
        if len(args) != len(cls.fields):
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(cls.fields)})")
        return _tuple_new(cls, (cls.__name__, *args))

    def __hash__(self) -> int:
        return _tuple_hash(self)

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self.fields, self[1:]))})"


class Not(Node):
    __slots__ = ()
    head = "~"
    sub: object


class And(Node):
    __slots__ = ()
    symbol = " & "
    left: object
    right: object


class Or(Node):
    __slots__ = ()
    symbol = " | "
    left: object
    right: object


class Imp(Node):
    __slots__ = ()
    symbol = " -> "
    left: object
    right: object


CONNECTIVES = {"&": (3, And), "|": (2, Or), "->": (1, Imp)}  # token -> (precedence, constructor)


def format_formula(phi: Node) -> str:
    """phi's text, printed in a loop: the stack holds the text still to print, as strings and
    subformulas, the next on top.  A scoped operator under ~ or left of a connective is put in
    parentheses, since its scope would run on past them."""
    out, todo = [], [phi]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
        elif kind.symbol:
            left = node[1]
            out.append("(")
            todo += (")", node[2], kind.symbol)
            todo += (")", left, "(") if left.scoped else (left,)
        elif kind.head:
            sub = node[-1]
            out.append(kind.head.format(*node[1:-1]))
            todo += (")", sub, "(") if kind is Not and sub.scoped else (sub,)
        else:
            out.append(kind.template.format(*node[1:]))
    return "".join(out)


class Parser:
    TOKEN: re.Pattern  # one token, optionally preceded by whitespace, in group 1
    LABEL: str  # names the logic in error messages

    def __init__(self, text: str):
        self.toks: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = self.TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise InputError(f"{self.LABEL} syntax error at position {pos}: {text[pos:pos+10]!r}")
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self) -> str:
        self.i += 1
        return self.toks[self.i - 1][0]

    def expect(self, tok: str) -> str:
        if self.peek() != tok:
            self.fail(repr(tok))
        return self.take()

    def fail(self, expected: str):
        if self.i < len(self.toks):
            tok, pos = self.toks[self.i]
            raise InputError(f"{self.LABEL} syntax error at position {pos}: expected {expected}, got {tok!r}")
        raise InputError(f"{self.LABEL} syntax error at end of input: expected {expected}")

    def parse(self) -> Node:
        """The formula the tokens spell, read in one loop over two stacks: the formulas read, and the
        operators still open as (precedence, constructor) pairs, "(" as (0, None).  A connective
        first applies the open operators that bind at least as tightly (more tightly for the
        right-associative ->); "(" and a scoped operator have precedence 0, so only a ")" or the
        end of input closes them."""
        out, ops = [], []
        while True:
            tok = self.peek()  # an operand is next
            if tok == "~" or tok == "(":
                self.take()
                ops.append((PREFIX, Not) if tok == "~" else (0, None))
                continue
            got = self.operand()
            if type(got) is tuple:  # a prefix operator, as its (precedence, constructor) pair
                ops.append(got)
                continue
            out.append(got)
            while True:  # a connective, a ")" or the end is next
                tok = self.peek()
                prec, op = CONNECTIVES.get(tok, (0, None))
                bound = prec + (op is Imp)  # -> is right-associative
                while ops and ops[-1][1] is not None and ops[-1][0] >= bound:
                    make = ops.pop()[1]
                    if ARITY.get(make) == 2:
                        right = out.pop()
                        out[-1] = make(out[-1], right)
                    else:
                        out[-1] = make(out[-1])
                if op is not None:
                    self.take()
                    ops.append((prec, op))
                    break
                if not ops:
                    if tok is None:
                        return out[0]
                    self.fail("end of input")
                if tok != ")":
                    self.fail("')'")
                self.take()
                ops.pop()


def fold(op, parts: list, empty=None):
    """Left fold of parts under the binary constructor op; empty when there are none."""
    return reduce(op, parts) if parts else empty


class Table:
    """A formula's distinct subformulas, numbered in post-order without recursion.  A node's key
    is its kind tag, string fields and subformulas' numbers, so equal subformulas share a number
    and no key hashes more than one node.  nodes[i] is the first node numbered i and operands[i]
    its subformulas' numbers, each below i.  Only the identities of the nodes held outlive a
    call.  kinds maps the classes a logic admits to their arities (default: ARITY, all of them);
    the first node, in pre-order, of a class outside it is refused."""

    def __init__(self, kinds=ARITY, *formulas):
        self.nodes, self.operands = [], []
        self.keys, self.ids = {}, {}  # key -> number; id -> number, of the nodes held only
        self.arity = kinds
        for phi in formulas:
            self.number(phi)

    def number(self, phi: Node) -> int:
        """phi's number, numbering first those of its subformulas the table lacks."""
        ids, keys, nodes, arity = self.ids, self.keys, self.nodes, self.arity
        dups, todo = [], [phi]  # identities to forget on return; nodes to number, the next on top
        try:
            while todo:
                node = todo.pop()
                if id(node) in ids:
                    continue
                if (k := arity.get(type(node))) is None:
                    raise InputError(f"unknown formula node {node!r}")
                if not k:
                    key, operands = node[:], ()
                elif k == 1:
                    if (a := ids.get(id(node[-1]))) is None:  # number the subformula first
                        todo += (node, node[-1])
                        continue
                    key, operands = node[:-1] + (a,), (a,)
                elif None in (operands := (ids.get(id(node[1])), ids.get(id(node[2])))):
                    todo += (node, node[2], node[1])  # the subformulas first, the left one next
                    continue
                else:
                    key = (node[0], *operands)
                i = keys.setdefault(key, len(nodes))
                if i == len(nodes):
                    nodes.append(node)
                    self.operands.append(operands)
                else:
                    dups.append(id(node))
                ids[id(node)] = i
            return ids[id(phi)]
        finally:
            for i in dups:
                del ids[i]


def depth(table: Table, counted=object) -> int:
    """The most nodes of the counted classes, every node by default, on one path down from the
    node the table numbers last, in one forward loop: a node's operands are numbered below it."""
    deepest = []
    for node, operands in zip(table.nodes, table.operands):
        deepest.append(isinstance(node, counted) + max([deepest[j] for j in operands], default=0))
    return deepest[-1]
