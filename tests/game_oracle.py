"""The pair-position search that decided EF and bisimulation games, kept as their oracle.

A position pairs what was played on board 1 with what was played on board 2.
Duplicator survives k rounds from it when it passes check and every Spoiler
move, on either board, has an answer on the other that survives k - 1 more.
One memo entry per position holds the most rounds Duplicator is known to
survive and the fewest Spoiler is known to need, so every round count shares
it.  Answers are read at the least losing round count.  Spoiler may repeat an
element here, while uext types a tuple only through elements not yet played, so
this search checks that skipping repeats loses nothing.

Imports nothing from uext.  A frame is a document {"vertices", "edges"} and a
model one with a "valuation" too.  Formulas come back as nested tuples
(node class name, fields...), named as uext names its formula nodes; the FO
evaluator and the rank and depth below read both those tuples and uext's nodes
by class name (tests/modal_oracle.py evaluates modal formulas).
"""

from __future__ import annotations

import math
import re
from functools import reduce


def rows(doc: dict) -> list[int]:
    """Each vertex's successors as a bitmask over the load order."""
    index = {v: i for i, v in enumerate(doc["vertices"])}
    out = [0] * len(index)
    for a, b in doc["edges"]:
        out[index[a]] |= 1 << index[b]
    return out


def fold(op: str, parts: list, empty):
    return reduce(lambda a, b: (op, a, b), parts) if parts else empty


class Game:
    def __init__(self, bound: int):
        self.memo: dict = {}
        self.bound = bound  # the round count from which no verdict changes

    def key(self, pos):
        return pos

    def play(self, pos, board: int, move, reply):
        return self.step(pos, move, reply) if board == 1 else self.step(pos, reply, move)

    def wins(self, pos, k: int) -> bool:
        if not self.check(pos):
            return False
        if k == 0:
            return True
        known = self.memo.setdefault(self.key(pos), [0, math.inf])  # [survive, need]
        if known[0] < k < known[1]:
            if self.spoiler_move(pos, k) is None:
                known[0] = max(known[0], k)
            else:
                known[1] = min(known[1], k)
        return k <= known[0]

    def least(self, pos, n: int) -> int | None:
        return next((k for k in range(min(n, self.bound) + 1) if not self.wins(pos, k)), None)

    def lost(self, pos, n: int) -> int | None:
        return None if self.wins(pos, min(n, self.bound)) else self.least(pos, n)

    def spoiler_move(self, pos, k: int):
        for board in (1, 2):
            replies = self.moves(pos, 3 - board)
            for move in self.moves(pos, board):
                if not any(self.wins(self.play(pos, board, move, r), k - 1) for r in replies):
                    return board, move
        return None

    def distinguish(self, pos, k: int):
        if not self.check(pos):
            return self.literal(pos)
        board, move = self.spoiler_move(pos, k)
        replies = self.moves(pos, 3 - board)
        parts = dict.fromkeys(self.distinguish(self.play(pos, board, move, r), k - 1) for r in replies)
        return self.quantify(board, pos, list(parts))


class EFGame(Game):
    """Positions are the pairs of vertex indices played so far, in order; the memo keys on
    the unordered pairing."""

    def __init__(self, doc1: dict, doc2: dict):
        super().__init__(max(len(doc1["vertices"]), len(doc2["vertices"])) + 1)
        self.docs, self.rows = (doc1, doc2), (rows(doc1), rows(doc2))

    def key(self, pos):
        return frozenset(pos)

    def check(self, pos) -> bool:
        if pos:
            (a, b), (s1, s2) = pos[-1], self.rows
            for a2, b2 in pos:
                if ((a == a2) != (b == b2) or (s1[a] >> a2 & 1) != (s2[b] >> b2 & 1)
                        or (s1[a2] >> a & 1) != (s2[b2] >> b & 1)):
                    return False
        return True

    def moves(self, pos, board: int) -> range:
        return range(len(self.rows[board - 1]))

    def step(self, pos, a: int, b: int):
        return pos + ((a, b),)

    def literal(self, pos):
        s1, s2 = self.rows
        for i, (a, b) in enumerate(pos):
            for j, (a2, b2) in enumerate(pos):
                for atom, t1, t2 in ((("Eq", f"x{i}", f"x{j}"), a == a2, b == b2),
                                     (("Rel", f"x{i}", f"x{j}"), s1[a] >> a2 & 1, s2[b] >> b2 & 1)):
                    if t1 != t2:
                        return atom if t1 else ("Not", atom)
        raise AssertionError("no distinguishing literal at a non-isomorphic position")

    def quantify(self, board: int, pos, parts: list):
        var = f"x{len(pos)}"
        return (("Exists", var, fold("And", parts, ("Eq", var, var))) if board == 1
                else ("Forall", var, fold("Or", parts, ("Not", ("Eq", var, var)))))


class BisimGame(Game):
    """Positions are pairs of world indices that must agree on the letters; moves go to
    successors, in load order."""

    def __init__(self, doc1: dict, doc2: dict, letters):
        super().__init__(len(doc1["vertices"]) + len(doc2["vertices"]))
        self.ls = sorted(letters)
        self.labels = [[tuple(v in doc["valuation"].get(p, ()) for p in self.ls) for v in doc["vertices"]]
                       for doc in (doc1, doc2)]
        self.successors = [[[i for i in range(len(r)) if row >> i & 1] for row in r]
                           for r in (rows(doc1), rows(doc2))]

    def check(self, pos) -> bool:
        return self.labels[0][pos[0]] == self.labels[1][pos[1]]

    def moves(self, pos, board: int) -> list[int]:
        return self.successors[board - 1][pos[board - 1]]

    def step(self, pos, v1: int, v2: int):
        return v1, v2

    def literal(self, pos):
        l1, l2 = self.labels[0][pos[0]], self.labels[1][pos[1]]
        i = next(i for i in range(len(self.ls)) if l1[i] != l2[i])
        return ("Prop", self.ls[i]) if l1[i] else ("Not", ("Prop", self.ls[i]))

    def quantify(self, board: int, pos, parts: list):
        return (("Dia", fold("And", parts, ("Not", ("Falsum",)))) if board == 1
                else ("Box", fold("Or", parts, ("Falsum",))))


def ef_equivalent(doc1: dict, doc2: dict, rounds: int) -> bool:
    game = EFGame(doc1, doc2)
    return game.wins((), min(rounds, game.bound))


def ef_min_rounds(doc1: dict, doc2: dict, rounds: int) -> int | None:
    return EFGame(doc1, doc2).least((), rounds)


def spoiler_line(doc1: dict, doc2: dict, rounds: int) -> list[str]:
    game, pos, line = EFGame(doc1, doc2), (), []
    k = game.lost(pos, rounds) or 0
    while k:
        board, move = game.spoiler_move(pos, k)
        line.append(f"S:{board}:{game.docs[board - 1]['vertices'][move]}")
        left = {r: game.least(game.play(pos, board, move, r), k - 1) for r in game.moves(pos, 3 - board)}
        if not left:
            break
        reply = max(left, key=left.__getitem__)
        pos, k = game.play(pos, board, move, reply), left[reply]
        line.append(f"D:{3 - board}:{game.docs[2 - board]['vertices'][reply]}")
    return line


def distinguishing_sentence(doc1: dict, doc2: dict, rounds: int):
    game = EFGame(doc1, doc2)
    k = game.lost((), rounds)
    return None if k is None else game.distinguish((), k)


def n_bisimilar(doc1: dict, w1: str, doc2: dict, w2: str, n: int) -> bool:
    game = BisimGame(doc1, doc2, set(doc1["valuation"]) | set(doc2["valuation"]))
    pos = doc1["vertices"].index(w1), doc2["vertices"].index(w2)
    return game.wins(pos, min(n, game.bound))


def distinguishing_formula(doc1: dict, w1: str, doc2: dict, w2: str, n: int, letters):
    game = BisimGame(doc1, doc2, letters)
    pos = doc1["vertices"].index(w1), doc2["vertices"].index(w2)
    k = game.lost(pos, n)
    return None if k is None else game.distinguish(pos, k)


# ---------------------------------------------------------------------------
# Evaluators for the formulas the games read off, each a nested tuple (class name, fields...):
# uext's formula nodes are such tuples, and so are the oracle's own


def read_fo(text: str) -> tuple:
    """A sentence as uext prints it, where a quantifier's body is the one operand after its dot:
    a binary body is printed in parentheses, and so is each binary connective and each
    quantified left operand of one."""
    toks = re.findall(r"exists|forall|->|[~&|()=,.]|\w+", text)[::-1]

    def operand():
        tok = toks.pop()
        if tok == "~":
            return ("Not", operand())
        if tok in ("exists", "forall"):
            var, _ = toks.pop(), toks.pop()
            return ("Exists" if tok == "exists" else "Forall", var, operand())
        if tok == "(":
            left = operand()
            if toks[-1] != ")":
                left = ({"&": "And", "|": "Or", "->": "Imp"}[toks.pop()], left, operand())
            toks.pop()
            return left
        if tok == "R":
            _, a, _, b, _ = (toks.pop() for _ in range(5))
            return ("Rel", a, b)
        toks.pop()
        return ("Eq", tok, toks.pop())

    phi = operand()
    assert not toks, text
    return phi


def tree(phi) -> tuple:
    """phi as nested tuples throughout."""
    kind, *f = phi
    return (kind, *(x if isinstance(x, str) else tree(x) for x in f))


def fo_holds(doc: dict, phi, asg: dict[str, str] | None = None) -> bool:
    """Tarskian truth of an FO formula on a frame document under asg (variable -> vertex)."""
    edges = {tuple(e) for e in doc["edges"]}

    def holds(phi, asg: dict[str, str]) -> bool:
        kind, *f = phi
        if kind == "Rel":
            return (asg[f[0]], asg[f[1]]) in edges
        if kind == "Eq":
            return asg[f[0]] == asg[f[1]]
        if kind == "Not":
            return not holds(f[0], asg)
        if kind == "And":
            return holds(f[0], asg) and holds(f[1], asg)
        if kind == "Or":
            return holds(f[0], asg) or holds(f[1], asg)
        if kind == "Imp":
            return not holds(f[0], asg) or holds(f[1], asg)
        if kind in ("Exists", "Forall"):
            truths = (holds(f[1], {**asg, f[0]: w}) for w in doc["vertices"])
            return any(truths) if kind == "Exists" else all(truths)
        raise AssertionError(f"unknown FO node {kind!r}")

    return holds(phi, asg or {})


def quantifier_rank(phi) -> int:
    kind, *f = phi
    if kind in ("Rel", "Eq"):
        return 0
    if kind == "Not":
        return quantifier_rank(f[0])
    if kind in ("Exists", "Forall"):
        return 1 + quantifier_rank(f[1])
    return max(quantifier_rank(f[0]), quantifier_rank(f[1]))


def modal_depth(phi) -> int:
    kind, *f = phi
    if kind in ("Prop", "Falsum"):
        return 0
    if kind == "Not":
        return modal_depth(f[0])
    if kind in ("Dia", "Box"):
        return 1 + modal_depth(f[0])
    return max(modal_depth(f[0]), modal_depth(f[1]))
