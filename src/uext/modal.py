"""The basic modal language: parsing, truth, frame validity, n-bisimulation,
and the truth-membership cross-check on ultrafilter-extension models.

Box is derived (eval treats [] phi as ~<>~phi) so the diamond clause stays the
single semantic clause.  Unknown proposition letters evaluate as false
everywhere, which is observationally the same as extending the valuation
with the empty set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .caps import env_limit
from .errors import InputError, ResourceError
from .frame import Frame
from .games import Game
from .syntax import Parser, fold
from .ultra import UEFrame, build_ue

VALUATION_LIMIT_ENV = "UEXT_VALUATION_LIMIT"
DEFAULT_VALUATION_LIMIT = 2**22


# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class Not:
    sub: "ModalFormula"


@dataclass(frozen=True)
class And:
    left: "ModalFormula"
    right: "ModalFormula"


@dataclass(frozen=True)
class Or:
    left: "ModalFormula"
    right: "ModalFormula"


@dataclass(frozen=True)
class Imp:
    left: "ModalFormula"
    right: "ModalFormula"


@dataclass(frozen=True)
class Dia:
    sub: "ModalFormula"


@dataclass(frozen=True)
class Box:
    sub: "ModalFormula"


ModalFormula = Prop | Falsum | Not | And | Or | Imp | Dia | Box

TOP: ModalFormula = Not(Falsum())


def letters(phi: ModalFormula) -> frozenset[str]:
    if isinstance(phi, Prop):
        return frozenset([phi.name])
    if isinstance(phi, Falsum):
        return frozenset()
    if isinstance(phi, (Not, Dia, Box)):
        return letters(phi.sub)
    return letters(phi.left) | letters(phi.right)


def modal_depth(phi: ModalFormula) -> int:
    """Nesting depth of <> and []."""
    if isinstance(phi, (Prop, Falsum)):
        return 0
    if isinstance(phi, Not):
        return modal_depth(phi.sub)
    if isinstance(phi, (Dia, Box)):
        return 1 + modal_depth(phi.sub)
    return max(modal_depth(phi.left), modal_depth(phi.right))


def format_modal(phi: ModalFormula) -> str:
    if isinstance(phi, Prop):
        return phi.name
    if isinstance(phi, Falsum):
        return "(p0 & ~p0)"  # falsum has no surface token in the grammar
    if isinstance(phi, Not):
        return f"~{format_modal(phi.sub)}"
    if isinstance(phi, Dia):
        return f"<>{format_modal(phi.sub)}"
    if isinstance(phi, Box):
        return f"[]{format_modal(phi.sub)}"
    op = {And: "&", Or: "|", Imp: "->"}[type(phi)]
    return f"({format_modal(phi.left)} {op} {format_modal(phi.right)})"


# ---------------------------------------------------------------------------
# Parser: unary (~, <>, []) > & > | > ->, with -> right-associative.


class _ModalParser(Parser):
    TOKEN = re.compile(r"\s*(p\d+|->|<>|\[\]|[~&|()])")
    LABEL = "modal"
    AND, OR, IMP = And, Or, Imp
    UNARY = {"~": Not, "<>": Dia, "[]": Box}

    def operand(self) -> ModalFormula:
        tok = self.peek()
        if tok in self.UNARY:
            self.take()
            return self.UNARY[tok](self.unary())
        if tok == "(":
            return self.group()
        if tok is not None and tok.startswith("p"):
            return Prop(self.take())
        self.fail("a formula")


def parse_modal(text: str) -> ModalFormula:
    """Parse the modal surface grammar: p0..., ~, &, |, ->, <>, [], parens."""
    return _ModalParser(text).parse()


# ---------------------------------------------------------------------------
# Models and truth


@dataclass(frozen=True)
class Model:
    frame: Frame
    valuation: tuple[tuple[str, frozenset[str]], ...]

    @staticmethod
    def make(frame: Frame, valuation: dict[str, frozenset[str]]) -> "Model":
        items = []
        for p in sorted(valuation):
            items.append((p, frame.check_vertices(valuation[p])))
        return Model(frame, tuple(items))

    @cached_property
    def val(self) -> dict[str, frozenset[str]]:
        return dict(self.valuation)

    def holds(self, p: str, w: str) -> bool:
        return w in self.val.get(p, frozenset())


def eval_modal(model: Model, w: str, phi: ModalFormula) -> bool:
    """Standard recursive truth at a world."""
    model.frame.check_vertices([w])
    return _eval(model, w, phi)


def _eval(model: Model, w: str, phi: ModalFormula) -> bool:
    if isinstance(phi, Prop):
        return model.holds(phi.name, w)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Not):
        return not _eval(model, w, phi.sub)
    if isinstance(phi, And):
        return _eval(model, w, phi.left) and _eval(model, w, phi.right)
    if isinstance(phi, Or):
        return _eval(model, w, phi.left) or _eval(model, w, phi.right)
    if isinstance(phi, Imp):
        return (not _eval(model, w, phi.left)) or _eval(model, w, phi.right)
    if isinstance(phi, Dia):
        return any(_eval(model, v, phi.sub) for v in model.frame.succ[w])
    if isinstance(phi, Box):
        return not _eval(model, w, Dia(Not(phi.sub)))
    raise InputError(f"unknown formula node {phi!r}")


def truth_set(model: Model, phi: ModalFormula) -> frozenset[str]:
    return frozenset(w for w in model.frame.vertices if _eval(model, w, phi))


def frame_valid(frame: Frame, phi: ModalFormula) -> tuple[bool, tuple["Model", str] | None]:
    """Whether phi holds at every world under every valuation of its letters.

    Returns (valid, counterexample), the counterexample being a refuting
    (model, world) pair or None.
    """
    ls = sorted(letters(phi))
    n = len(frame.vertices)
    limit = env_limit(VALUATION_LIMIT_ENV, DEFAULT_VALUATION_LIMIT)
    total = 2 ** (len(ls) * n)
    if total > limit:
        raise ResourceError(
            f"frame_valid would enumerate {total} valuations, over the cap {limit} "
            f"(set {VALUATION_LIMIT_ENV} to raise)"
        )
    verts = frame.vertices
    for mask in range(total):
        val = {}
        for j, p in enumerate(ls):
            bits = (mask >> (j * n)) & ((1 << n) - 1)
            val[p] = frozenset(verts[i] for i in range(n) if bits & (1 << i))
        model = Model.make(frame, val)
        for w in verts:
            if not _eval(model, w, phi):
                return False, (model, w)
    return True, None


# ---------------------------------------------------------------------------
# Ultrafilter-extension models


@dataclass(frozen=True)
class UEModel:
    """A model over an ultrafilter extension; V^ue(p) = {u : V(p) in u} is derived."""

    ue_frame: UEFrame
    base_model: Model

    @cached_property
    def model(self) -> Model:
        val = {
            p: frozenset(f"pi:{w}" for w in xs)
            for p, xs in self.base_model.valuation
        }
        return Model.make(self.ue_frame.frame, val)


def extend_model(model: Model) -> UEModel:
    return UEModel(build_ue(model.frame), model)


def truth_membership_check(ue_model: UEModel, phi: ModalFormula) -> bool:
    """Truth at u on the extension iff the base truth set belongs to u.

    A false return is a defect detector, not an expected outcome.
    """
    base_truth = truth_set(ue_model.base_model, phi)
    for u in ue_model.ue_frame.ultrafilters:
        if _eval(ue_model.model, u.name, phi) != u.member(base_truth):
            return False
    return True


# ---------------------------------------------------------------------------
# n-bisimulation and bounded modal equivalence

GAME_LIMIT_ENV = "UEXT_GAME_LIMIT"
DEFAULT_GAME_LIMIT = 2**20


class _BisimGame(Game):
    """Positions are world pairs that must agree on the letters; moves go to successors."""

    def __init__(self, m1: Model, m2: Model, ls):
        super().__init__(GAME_LIMIT_ENV, DEFAULT_GAME_LIMIT, "bisimulation memo")
        self.ls = sorted(ls)
        self.labels = [{w: tuple(m.holds(p, w) for p in self.ls) for w in m.frame.vertices} for m in (m1, m2)]
        self.succ = [{w: m.frame.sort(m.frame.succ[w]) for w in m.frame.vertices} for m in (m1, m2)]

    def check(self, pos) -> bool:
        return self.labels[0][pos[0]] == self.labels[1][pos[1]]

    def moves(self, pos, board: int) -> list[str]:
        return self.succ[board - 1][pos[board - 1]]

    def step(self, pos, v1: str, v2: str):
        return v1, v2

    def literal(self, pos) -> ModalFormula:
        l1, l2 = self.labels[0][pos[0]], self.labels[1][pos[1]]
        i = next(i for i in range(len(self.ls)) if l1[i] != l2[i])
        return Prop(self.ls[i]) if l1[i] else Not(Prop(self.ls[i]))

    def quantify(self, board: int, pos, parts: list) -> ModalFormula:
        return Dia(fold(And, parts, TOP)) if board == 1 else Box(fold(Or, parts, Falsum()))


def n_bisimilar(m1: Model, w1: str, m2: Model, w2: str, n: int) -> bool:
    """Exact n-round back-and-forth between two pointed models."""
    if n < 0:
        raise InputError("n must be nonnegative")
    return _BisimGame(m1, m2, frozenset(m1.val) | frozenset(m2.val)).wins((w1, w2), n)


def distinguishing_formula(m1: Model, w1: str, m2: Model, w2: str, n: int, ls) -> ModalFormula | None:
    """A formula of depth <= n true at (m1, w1) and false at (m2, w2), if one exists."""
    if n < 0:
        raise InputError("n must be nonnegative")
    game = _BisimGame(m1, m2, ls)
    return None if game.wins((w1, w2), n) else game.distinguish((w1, w2), n)


def modally_equivalent_upto(m1: Model, w1: str, m2: Model, w2: str, n: int,
                            ls) -> tuple[bool, ModalFormula | None]:
    """Agreement on all formulas of depth <= n over ls (n-bisimilarity, by Hennessy-Milner), else a witness."""
    witness = distinguishing_formula(m1, w1, m2, w2, n, ls)
    return witness is None, witness
