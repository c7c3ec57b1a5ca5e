"""The basic modal language: parsing, truth, frame validity, n-bisimulation,
and the truth-membership cross-check on ultrafilter-extension models.

Truth sets are computed bottom-up as int bitmasks over the frame's load order,
each subformula once; [] phi is read as ~<>~phi, so R-(X), the union of X's
predecessor rows, is the one modal step.  Unknown proposition letters
evaluate as false everywhere, which is observationally the same as extending
the valuation with the empty set.

Frame validity labels the same subformulas transposed (bit-sliced): each world
gets one truth table per subformula, an int whose bit c says whether the
subformula holds there under valuation c, so one pass of bitwise operations
decides a whole block of 2^16 valuations.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import and_
from typing import Iterable, NamedTuple

from . import ultra
from .caps import Budget
from .frame import LETTER, Frame, all_of, any_of, bits, refine, table
from .games import Game
from .syntax import PREFIX, And, Imp, Node, Not, Or, Parser, Table, depth, fold, format_formula

BLOCK_BITS = 16  # frame_valid decides 2^16 valuations per pass: 8 KiB per truth table


# ---------------------------------------------------------------------------
# Formula AST


class Prop(Node):
    __slots__ = ()
    template = "{}"
    name: str


class Falsum(Node):
    __slots__ = ()
    template = "(p0 & ~p0)"  # falsum has no surface token in the grammar


class Dia(Node):
    __slots__ = ()
    head = "<>"
    sub: ModalFormula


class Box(Node):
    __slots__ = ()
    head = "[]"
    sub: ModalFormula


ModalFormula = Prop | Falsum | Not | And | Or | Imp | Dia | Box
MODAL = ModalFormula.__args__  # the node classes a modal formula is built from

TOP: ModalFormula = Not(Falsum())
format_modal = format_formula


def letters(phi: ModalFormula) -> frozenset[str]:
    return frozenset(f.name for f in Table(MODAL, phi).nodes if type(f) is Prop)


def modal_depth(phi: ModalFormula) -> int:
    """Nesting depth of <> and []."""
    return depth(phi, (Dia, Box))


# ---------------------------------------------------------------------------
# Parser: unary (~, <>, []) > & > | > ->, with -> right-associative.


class _ModalParser(Parser):
    TOKEN = re.compile(rf"\s*({LETTER.pattern}|->|<>|\[\]|[~&|()])")
    LABEL = "modal"
    UNARY = {"<>": Dia, "[]": Box}

    def operand(self):
        """A letter, or <> or [] as its (precedence, constructor) pair."""
        tok = self.peek()
        if tok in self.UNARY:
            self.take()
            return PREFIX, self.UNARY[tok]
        if tok is not None and tok.startswith("p"):
            return Prop(self.take())
        self.fail("a formula")


def parse_modal(text: str) -> ModalFormula:
    """Parse the modal surface grammar: p0..., ~, &, |, ->, <>, [], parens."""
    return _ModalParser(text).parse()


# ---------------------------------------------------------------------------
# Models and truth


class Model(NamedTuple):
    """A frame and each letter's extension as a bitmask over its load order, letters sorted and
    trusted (``Model.make`` checks names).  Models compare by value but, holding a dict, are not hashable."""

    frame: Frame
    masks: dict[str, int]

    __hash__ = None

    @staticmethod
    def make(frame: Frame, valuation: dict[str, Iterable[str]]) -> "Model":
        """The model whose letter p holds at the names valuation[p]; an unknown name is an InputError."""
        return Model(frame, {p: frame.mask(valuation[p]) for p in sorted(valuation)})


def _compile(table: Table, make: dict):
    """The labelling of the formula table numbered last as a function of its letters' input.

    Bottom-up labelling (Clarke, Emerson and Sistla 1986): each number gets one step,
    make[its node's class](node, *its operands' numbers), and operands are numbered lower.
    """
    steps = [make[type(f)](f, *operands) for f, operands in zip(table.nodes, table.operands)]

    def label(given):
        v: list = []
        for step in steps:
            v.append(step(v, given))
        return v[-1]

    return label


def truth_mask(frame: Frame, letter_masks: dict[str, int], phi: ModalFormula) -> int:
    """The set of worlds where phi holds, as a bitmask over load order.

    <>X is R-(X) and []X is W - R-(W - X); a letter missing from the masks,
    like falsum, is false everywhere.
    """
    full = (1 << len(frame.vertices)) - 1
    image = frame.image
    make = {Prop: lambda f: lambda v, m: m.get(f.name, 0),
            Falsum: lambda f: lambda v, m: 0,
            Not: lambda f, a: lambda v, m: full ^ v[a],
            Dia: lambda f, a: lambda v, m: image(v[a], False),
            Box: lambda f, a: lambda v, m: full ^ image(full ^ v[a], False),
            And: lambda f, a, b: lambda v, m: v[a] & v[b],
            Or: lambda f, a, b: lambda v, m: v[a] | v[b],
            Imp: lambda f, a, b: lambda v, m: (full ^ v[a]) | v[b]}
    return _compile(Table(MODAL, phi), make)(letter_masks)


def eval_modal(model: Model, w: str, phi: ModalFormula) -> bool:
    """Truth at a world, read off phi's truth mask."""
    return bool(truth_mask(model.frame, model.masks, phi) >> model.frame.position(w) & 1)


def truth_set(model: Model, phi: ModalFormula) -> frozenset[str]:
    return frozenset(model.frame.names(truth_mask(model.frame, model.masks, phi)))


def _slicer(frame: Frame, table: Table, offsets: dict[str, int], ones: int):
    """The truth tables of the formula table numbered last, one per world in load order, as a
    function of the valuation bits' tables.

    Every table is an int over a block of valuations, `ones` when all of them
    hold.  Letter p at world i reads the table of valuation bit offsets[p] + i;
    ~ & | -> are bitwise, and <>X (resp. []X) at u is the OR (resp. AND) of
    X's tables over u's successors, so []X holds everywhere at a dead end.
    """
    n, succ = len(frame.vertices), frame.succ_mask
    make = {Prop: lambda f: lambda v, t, lo=offsets[f.name]: t[lo:lo + n],
            Falsum: lambda f: lambda v, t: [0] * n,
            Not: lambda f, a: lambda v, t: [ones ^ x for x in v[a]],
            Dia: lambda f, a: lambda v, t: [any_of(v[a].__getitem__, row) for row in succ],
            Box: lambda f, a: lambda v, t: [all_of(v[a].__getitem__, row, ones) for row in succ],
            And: lambda f, a, b: lambda v, t: [x & y for x, y in zip(v[a], v[b])],
            Or: lambda f, a, b: lambda v, t: [x | y for x, y in zip(v[a], v[b])],
            Imp: lambda f, a, b: lambda v, t: [(ones ^ x) | y for x, y in zip(v[a], v[b])]}
    return _compile(table, make)


def frame_valid(frame: Frame, phi: ModalFormula) -> tuple[bool, tuple["Model", str] | None]:
    """Whether phi holds at every world under every valuation of its letters.

    Returns (valid, counterexample), the counterexample being a refuting
    (model, world) pair or None: the first valuation in binary order (bits
    j*n .. j*n + n - 1 give the j-th letter in sorted order) whose truth mask
    is not full, at its first world in load order outside that mask.

    Valuations are decided in blocks of 2^w, w = min(letters * n, BLOCK_BITS),
    in binary order.  Within a block, valuation c is bit c of every truth
    table: valuation bit k < w has the table frame.table(k, w), and a higher
    bit is all ones or 0 across the block, read off the block's index.  A block
    fails iff the AND of phi's tables over all worlds has a zero bit; the
    lowest one is the first refuting valuation.  The cap on 2^(letters * n)
    is checked before any table exists, and a block holds at most
    n * |subformulas| tables of 8 KiB.
    """
    numbered = Table(MODAL, phi)
    ls = sorted(f.name for f in numbered.nodes if type(f) is Prop)
    n = len(frame.vertices)
    total = 2 ** (len(ls) * n)
    Budget("valuations").charge(total)
    width = min(len(ls) * n, BLOCK_BITS)
    ones = (1 << (1 << width)) - 1
    label = _slicer(frame, numbered, {p: j * n for j, p in enumerate(ls)}, ones)
    low = [table(k, width) for k in range(width)]
    for block in range(total >> width):
        root = label(low + [ones if block >> k & 1 else 0 for k in range(len(ls) * n - width)])
        missed = ones ^ reduce(and_, root, ones)
        if missed:
            c = (missed & -missed).bit_length() - 1
            code, full = block << width | c, (1 << n) - 1
            w = next(i for i, x in enumerate(root) if not x >> c & 1)
            return False, (Model(frame, {p: code >> (j * n) & full for j, p in enumerate(ls)}), frame.vertices[w])
    return True, None


# ---------------------------------------------------------------------------
# Ultrafilter-extension models


class UEModel(NamedTuple):
    """A model over an ultrafilter extension; V^ue(p) = {u : V(p) in u} has V(p)'s mask (see `UEFrame`)."""

    ue_frame: ultra.UEFrame
    base_model: Model

    @property
    def model(self) -> Model:
        return Model(self.ue_frame.frame, self.base_model.masks)


def extend_model(model: Model) -> UEModel:
    return UEModel(ultra.build_ue(model.frame), model)


def truth_membership_check(ue_model: UEModel, phi: ModalFormula) -> bool:
    """Truth at u on the extension iff the base truth set belongs to u.

    Each side reads u's bit (its name's, its point's) in phi's truth mask on its
    own frame.  A false return is a defect detector, not an expected outcome.
    """
    base, ext = ue_model.base_model, ue_model.model
    base_truth = truth_mask(base.frame, base.masks, phi)
    ue_truth = truth_mask(ext.frame, ext.masks, phi)
    return all(ue_truth >> ext.frame.index[u.name] & 1 == base_truth >> base.frame.index[u.point] & 1
               for u in ue_model.ue_frame.ultrafilters)


# ---------------------------------------------------------------------------
# n-bisimulation and bounded modal equivalence

class _BisimGame(Game):
    """Positions are pairs of worlds of the union W1 + W2 (W1's, then W2's, in load order); moves
    go to successors.  A world's rank-r type is its class in round r of the union's refinement by
    letters and the set of successor classes (k-step partition refinement), so wins compares the
    two worlds' classes.  Rounds are refined as the scan asks, |W1| + |W2| typings a round, and
    never past the first round that splits no class; typing never recurses."""

    ROUNDS = "bisimulation depth"

    def __init__(self, m1: Model, m2: Model, ls):
        self.ls, n1 = sorted(ls), len(m1.frame.vertices)
        self.atoms = [tuple(bool(m.masks.get(p, 0) >> i & 1) for p in self.ls)
                      for m in (m1, m2) for i in range(len(m.frame.vertices))]
        self.kids = [[o + v for v in bits(row)] for o, m in ((0, m1), (n1, m2)) for row in m.frame.succ_mask]
        # the union has at most |W1| + |W2| classes, so no verdict changes past that many rounds
        super().__init__("bisim", len(self.atoms))
        self.classes = [self.atoms]  # each round's colouring of the union, as far as it is refined
        self.refinement = refine(self.atoms, self.signatures)

    def signatures(self, colors: list) -> list:
        self.budget.charge(len(colors))
        return [(a, tuple(sorted({colors[v] for v in row}))) for a, row in zip(self.atoms, self.kids)]

    def moves(self, pos, board: int) -> list[int]:
        return self.kids[pos[board - 1]]

    def wins(self, pos, k: int) -> bool:
        """Whether the worlds share their class in round min(k, stable), refining the rounds up to
        it first: their letters and rank-k types agree."""
        while len(self.classes) <= k and (colors := next(self.refinement, None)) is not None:
            self.classes.append(colors)
        colors = self.classes[min(k, len(self.classes) - 1)]
        return colors[pos[0]] == colors[pos[1]]

    def step(self, pos, v1: int, v2: int):
        return v1, v2

    def literal(self, pos) -> ModalFormula:
        l1, l2 = self.atoms[pos[0]], self.atoms[pos[1]]
        i = next(i for i in range(len(self.ls)) if l1[i] != l2[i])
        return Prop(self.ls[i]) if l1[i] else Not(Prop(self.ls[i]))

    def quantify(self, board: int, pos, parts: list) -> ModalFormula:
        return Dia(fold(And, parts, TOP)) if board == 1 else Box(fold(Or, parts, Falsum()))


def n_bisimilar(m1: Model, w1: str, m2: Model, w2: str, n: int) -> bool:
    """Exact n-round back-and-forth between two pointed models, read by the scan of Game.least."""
    game = _BisimGame(m1, m2, m1.masks.keys() | m2.masks.keys())
    pos = m1.frame.position(w1), len(m1.frame.vertices) + m2.frame.position(w2)
    return game.least(pos, n) is None


def distinguishing_formula(m1: Model, w1: str, m2: Model, w2: str, n: int, ls) -> ModalFormula | None:
    """A formula of the least depth, at most n, true at (m1, w1) and false at (m2, w2), if one exists."""
    game = _BisimGame(m1, m2, ls)
    pos = m1.frame.position(w1), len(m1.frame.vertices) + m2.frame.position(w2)
    k = game.least(pos, n)
    return None if k is None else game.distinguish(pos, k)


def modally_equivalent_upto(m1: Model, w1: str, m2: Model, w2: str, n: int,
                            ls) -> tuple[bool, ModalFormula | None]:
    """Agreement on all formulas of depth <= n over ls (n-bisimilarity, by Hennessy-Milner), else a witness."""
    witness = distinguishing_formula(m1, w1, m2, w2, n, ls)
    return witness is None, witness
