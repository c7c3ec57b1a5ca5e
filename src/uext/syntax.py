"""The connectives and surface syntax shared by the modal and first-order languages.

Under the standard translation the modal connectives are the first-order ones
(Blackburn, de Rijke and Venema 2001, 2.4), so both logics build their formulas
from the one set of nodes Not, And, Or and Imp defined here, and each logic's atoms
and operators are nodes on the same base, `Node`.  Both write the
connectives ~ & | -> with parentheses, bind unary operators tightest, then &,
then |, then -> (right-associative), and report syntax errors by character
position.  The parser reads the connectives and parentheses itself; a logic
supplies only its token pattern, its error label and its ``operand`` method,
which reads one of its own atoms or prefix operators.

A formula is refused when its tree is more than MAX_DEPTH nodes deep or when
its operands (prefix operators, quantifiers and parenthesised groups) nest
more than MAX_DEPTH deep, so that parsing and evaluating it, both recursive,
stay well inside Python's default recursion limit.  Formatting prints in a loop
(`format_modal`, `format_fo`).
"""

from __future__ import annotations

import re
from collections import _tuplegetter  # the field descriptor of namedtuple: twice as fast as property(itemgetter)
from functools import reduce

from .errors import InputError

MAX_DEPTH = 100  # deepest formula tree, and deepest operand nesting, that parse accepts
_tuple_new, _tuple_hash = tuple.__new__, tuple.__hash__  # looked up once: every parse builds and hashes nodes


class Node(tuple):
    """A formula node: a tuple of its kind tag, the class name, then its fields, which are the
    names annotated in its class body, in order, and are read by name.  The tag keeps nodes of
    different kinds unequal; equality is tuple equality.  Hashing goes through Python, so
    hashing a tree deeper than the stack raises RecursionError instead of overflowing it.
    A node is built positionally or by field name, like ``And(left=p, right=q)``."""

    __slots__ = ()
    fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls.fields = tuple(cls.__dict__.get("__annotations__", ()))
        for k, name in enumerate(cls.fields, 1):
            setattr(cls, name, _tuplegetter(k, None))

    def __new__(cls, *args, **named):
        if named or len(args) != len(cls.fields):
            given = cls.fields[len(args):]
            if len(args) > len(cls.fields) or sorted(named) != sorted(given):
                raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(cls.fields)})")
            args += tuple(named[name] for name in given)
        return _tuple_new(cls, (cls.__name__, *args))

    def __hash__(self) -> int:
        return _tuple_hash(self)

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self.fields, self[1:]))})"


class Not(Node):
    __slots__ = ()
    sub: object


class And(Node):
    __slots__ = ()
    left: object
    right: object


class Or(Node):
    __slots__ = ()
    left: object
    right: object


class Imp(Node):
    __slots__ = ()
    left: object
    right: object


SYMBOLS = {And: " & ", Or: " | ", Imp: " -> "}  # each binary connective's token, as printed between its operands


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
        self.level = 0  # operands open on the parse stack

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

    def too_deep(self):
        raise InputError(f"{self.LABEL} formula nested deeper than {MAX_DEPTH} levels")

    def parse(self):
        phi = self.imp()
        if self.i < len(self.toks):
            self.fail("end of input")
        if depth(phi) > MAX_DEPTH:
            self.too_deep()
        return phi

    def imp(self):
        parts = [self.disj()]
        while self.peek() == "->":
            self.take()
            parts.append(self.disj())
        return reduce(lambda right, left: Imp(left, right), reversed(parts))

    def disj(self):
        left = self.conj()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.conj())
        return left

    def conj(self):
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self):
        """A negation, a parenthesised formula or one operand of the logic, refused once
        operands nest past MAX_DEPTH."""
        self.level += 1
        if self.level > MAX_DEPTH:
            self.too_deep()
        tok = self.peek()
        if tok == "~":
            self.take()
            phi = Not(self.unary())
        elif tok == "(":
            self.take()
            phi = self.imp()
            self.expect(")")
        else:
            phi = self.operand()
        self.level -= 1
        return phi


def depth(phi, counted=object) -> int:
    """The most nodes of the counted classes, every node by default, on one root-to-leaf path
    of a formula tree, found without recursion."""
    deepest, todo = 0, [(phi, 0)]
    while todo:
        node, d = todo.pop()
        d += isinstance(node, counted)
        deepest = max(deepest, d)
        todo.extend((sub, d) for sub in node[1:] if not isinstance(sub, str))
    return deepest


def fold(op, parts: list, empty=None):
    """Left fold of parts under the binary constructor op; empty when there are none."""
    return reduce(op, parts) if parts else empty
