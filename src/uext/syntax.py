"""The connectives and surface syntax shared by the modal and first-order languages.

Under the standard translation the modal connectives are the first-order ones
(Blackburn, de Rijke and Venema 2001, 2.4), so both logics build their formulas
from the one set of nodes Not, And, Or and Imp defined here.  Both write the
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
from dataclasses import dataclass
from functools import reduce

from .errors import InputError

MAX_DEPTH = 100  # deepest formula tree, and deepest operand nesting, that parse accepts


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Imp:
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
        todo.extend((sub, d) for sub in vars(node).values() if not isinstance(sub, str))
    return deepest


def fold(op, parts: list, empty=None):
    """Left fold of parts under the binary constructor op; empty when there are none."""
    return reduce(op, parts) if parts else empty
