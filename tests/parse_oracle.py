"""The recursive-descent parser both logics used before `uext.syntax.Parser` became one
precedence loop, kept as the oracle for it.

It reads the same tokens by the same patterns and raises the same error lines, but builds plain
tuples: a node is (class name, *fields), so a uext formula node equals the tuple of its values.
Each grammar level is one method, and each nesting level of the text one Python call, so it
reads only formulas well inside the interpreter's stack.  Nothing here imports uext.
"""

from __future__ import annotations

import re

KEYWORDS = ("exists", "forall", "R")


class SyntaxFault(Exception):
    """A syntax error; its text is the error line uext prints after "error: "."""


class _Parser:
    TOKEN: re.Pattern
    LABEL: str

    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = self.TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise SyntaxFault(f"{self.LABEL} syntax error at position {pos}: {text[pos:pos+10]!r}")
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self):
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
            raise SyntaxFault(f"{self.LABEL} syntax error at position {pos}: expected {expected}, got {tok!r}")
        raise SyntaxFault(f"{self.LABEL} syntax error at end of input: expected {expected}")

    def parse(self):
        phi = self.imp()
        if self.i < len(self.toks):
            self.fail("end of input")
        return phi

    def imp(self):
        parts = [self.disj()]
        while self.peek() == "->":
            self.take()
            parts.append(self.disj())
        phi = parts.pop()
        while parts:  # -> is right-associative
            phi = ("Imp", parts.pop(), phi)
        return phi

    def disj(self):
        left = self.conj()
        while self.peek() == "|":
            self.take()
            left = ("Or", left, self.conj())
        return left

    def conj(self):
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = ("And", left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("Not", self.unary())
        if tok == "(":
            self.take()
            phi = self.imp()
            self.expect(")")
            return phi
        return self.operand()


class ModalParser(_Parser):
    TOKEN = re.compile(r"\s*(p\d+|->|<>|\[\]|[~&|()])")
    LABEL = "modal"

    def operand(self):
        tok = self.peek()
        if tok in ("<>", "[]"):
            self.take()
            return ("Dia" if tok == "<>" else "Box", self.unary())
        if tok is not None and tok.startswith("p"):
            return ("Prop", self.take())
        self.fail("a formula")


class FOParser(_Parser):
    TOKEN = re.compile(r"\s*(exists\b|forall\b|->|[~&|()=,.]|R\b|[A-Za-z_]\w*)")
    LABEL = "FO"

    def variable(self) -> str:
        tok = self.peek()
        if tok is None or re.fullmatch(r"[A-Za-z_]\w*", tok) is None or tok in KEYWORDS:
            self.fail("a variable name")
        return self.take()

    def operand(self):
        tok = self.peek()
        if tok in ("exists", "forall"):
            self.take()
            var = self.variable()
            self.expect(".")
            return ("Exists" if tok == "exists" else "Forall", var, self.imp())
        if tok == "R":
            self.take()
            self.expect("(")
            a = self.variable()
            self.expect(",")
            b = self.variable()
            self.expect(")")
            return ("Rel", a, b)
        a = self.variable()
        self.expect("=")
        return ("Eq", a, self.variable())


def parse(logic: str, text: str):
    """The tree of text in logic "modal" or "fo", as nested tuples; a syntax error raises SyntaxFault."""
    return (ModalParser if logic == "modal" else FOParser)(text).parse()
