"""First-order language with equality and one binary relation over finite frames.

Covers set-at-a-time evaluation (an innermost quantified variable is a bitmask
column, so only the outer ones are enumerated), the k-round
Ehrenfeucht-Fraisse game (exact, with spoiler-line and distinguishing-sentence
extraction), a bounded sentence enumerator used as a cross-check oracle, the
Los-Lemma-like check on finite ultrafilter extensions, and literal
ultraproducts over finite index sets.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from functools import partial
from typing import NamedTuple

from . import ultra
from .caps import Budget
from .errors import DefectError, InputError, ResourceError
from .frame import Frame
from .games import Game
from .syntax import And, Imp, Node, Not, Or, Parser, depth, fold, format_formula

SENTENCE_LIMIT = 4000  # sentences_upto's hard count cap
KEYWORDS = ("exists", "forall", "R")  # the words that name no variable


# ---------------------------------------------------------------------------
# Formula AST


class Rel(Node):
    __slots__ = ()
    template = "R({},{})"
    left: str
    right: str


class Eq(Node):
    __slots__ = ()
    template = "{}={}"
    left: str
    right: str


class Exists(Node):
    __slots__ = ()
    head, scoped = "exists {}. ", True
    var: str
    body: FOFormula


class Forall(Node):
    __slots__ = ()
    head, scoped = "forall {}. ", True
    var: str
    body: FOFormula


FOFormula = Rel | Eq | Not | And | Or | Imp | Exists | Forall
format_fo = format_formula


def free_vars(phi: FOFormula) -> frozenset[str]:
    return _scopes(phi)[id(phi)][0]


def _scopes(phi: FOFormula) -> dict[int, tuple[frozenset[str], frozenset[str]]]:
    """Per node of phi, by identity, from one post-order pass without recursion: its free
    variables, and those of the quantifiers reached from it through connectives only (itself, if
    it is one).  So a variable free in a node but not in the second set occurs free there only in
    atoms outside every quantifier.  A node is first met in pre-order, so the first node of
    another kind in pre-order is the one refused."""
    out, todo = {}, [phi]
    while todo:
        node = todo[-1]
        kind = type(node)
        if kind is Rel or kind is Eq:
            out[id(node)] = frozenset(node[1:]), frozenset()
        elif kind is Not:
            if (sub := out.get(id(node[1]))) is None:
                todo.append(node[1])
                continue
            out[id(node)] = sub
        elif kind is And or kind is Or or kind is Imp:
            left, right = out.get(id(node[1])), out.get(id(node[2]))
            if left is None or right is None:
                todo += [sub for sub, done in ((node[2], right), (node[1], left)) if done is None]
                continue
            out[id(node)] = left[0] | right[0], left[1] | right[1]
        elif kind is Exists or kind is Forall:
            if (body := out.get(id(node[2]))) is None:
                todo.append(node[2])
                continue
            free = body[0] - {node[1]}
            out[id(node)] = free, free
        else:
            raise InputError(f"unknown formula node {node!r}")
        todo.pop()
    return out


def is_variable(name: str) -> bool:
    """Whether the parser reads name as a variable: a word that is not a keyword."""
    return re.fullmatch(r"[A-Za-z_]\w*", name) is not None and name not in KEYWORDS


def quantifier_rank(phi: FOFormula) -> int:
    """Nesting depth of exists and forall."""
    return depth(phi, (Exists, Forall))


# ---------------------------------------------------------------------------
# Parser: quantifier scope extends maximally right; ~ > & > | > ->.


class _FOParser(Parser):
    TOKEN = re.compile(r"\s*(exists\b|forall\b|->|[~&|()=,.]|R\b|[A-Za-z_]\w*)")
    LABEL = "FO"

    def variable(self) -> str:
        tok = self.peek()
        if tok is None or not is_variable(tok):
            self.fail("a variable name")
        return self.take()

    def operand(self):
        """An atom, or a quantifier and its variable as a (precedence, constructor) pair."""
        tok = self.peek()
        if tok in ("exists", "forall"):
            # precedence 0: no connective closes the scope, so it runs maximally right
            self.take()
            var = self.variable()
            self.expect(".")
            return 0, partial(Exists if tok == "exists" else Forall, var)
        if tok == "R":
            self.take()
            self.expect("(")
            a = self.variable()
            self.expect(",")
            b = self.variable()
            self.expect(")")
            return Rel(a, b)
        a = self.variable()
        self.expect("=")
        return Eq(a, self.variable())


def parse_fo(text: str) -> FOFormula:
    """Parse R(x,y), x=y, ~, &, |, ->, exists x., forall x. with maximal scopes."""
    return _FOParser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _evaluate(frame: Frame, phi: FOFormula, asg: dict[str, str], column: str | None = None):
    """phi's truth, 1 or 0, under asg (variable -> vertex), or with column set, the mask of
    column's values where phi holds; a free variable outside asg and column is an InputError.
    One pass, `_scopes`, reads phi's free variables, and phi is compiled once per call.

    Every subformula compiles to a mask over its column v: the quantified
    variable whose body is flat in v (free in no quantifier reached from the
    body through connectives only), or None for a truth value,
    whose mask is 1 or 0.  Under the other variables' values, R(v,y) is
    pred_mask[y], R(y,v) is succ_mask[y], R(v,v) the loop mask and v=y is
    1 << y; an atom without v is all ones or 0, and so is a quantifier, v
    being free in none; ~ & | -> are bitwise.  So exists v holds iff the mask
    is nonzero and forall v iff it is full, in one mask step.  Any other
    quantified variable is enumerated, its values tried in order until one
    decides the quantifier; variables are bound by name, and an enumerated
    one's binding shadows an outer one only inside its body.  Each mask step
    and each value tried counts toward UEXT_ASSIGNMENT_LIMIT before it is
    taken; one past the cap raises ResourceError.  Short-circuited work is
    never done, so it never counts: over a column of no points all ones is 0,
    so a conjunction stops after its left part.  Compiling and running recurse
    once per level or so; the callers turn a RecursionError into `_too_deep`'s.
    """
    scopes = _scopes(phi)
    missing = scopes[id(phi)][0] - set(asg) - {column}
    if missing:
        raise InputError(f"unbound free variable {min(missing)!r}")
    values = {var: frame.position(v) for var, v in asg.items()}
    n = len(frame.vertices)
    full = (1 << n) - 1
    succ = frame.succ_mask
    charge = Budget("assignments").charge

    def over(var: str, body: FOFormula):
        """var's values where body holds, as (mask step, None) if body is flat in var, else
        (None, a generator of body's truth at each value in turn)."""
        if var not in scopes[id(body)][1]:
            m = mask(body, var)

            def step(env):
                charge(1)
                return m(env)
            return step, None
        t = mask(body, None)

        def each(env):
            env = dict(env)
            for w in range(n):
                charge(1)
                env[var] = w
                yield t(env)
        return None, each

    def mask(f: FOFormula, v: str | None):
        ones = 1 if v is None else full
        if isinstance(f, Rel):
            a, b = f.left, f.right
            if v not in (a, b):
                return lambda env: ones if succ[env[a]] >> env[b] & 1 else 0
            if a == b:
                loops = sum(1 << i for i, row in enumerate(succ) if row >> i & 1)
                return lambda env: loops
            rows, y = (frame.pred_mask, b) if a == v else (succ, a)
            return lambda env: rows[env[y]]
        if isinstance(f, Eq):
            a, b = f.left, f.right
            if v not in (a, b):
                return lambda env: ones if env[a] == env[b] else 0
            if a == b:
                return lambda env: full
            y = b if a == v else a
            return lambda env: 1 << env[y]
        if isinstance(f, Not):
            s = mask(f.sub, v)
            return lambda env: ones ^ s(env)
        if isinstance(f, (Exists, Forall)):
            step, each = over(f.var, f.body)
            if isinstance(f, Exists):
                return (lambda env: ones if step(env) else 0) if step else (lambda env: ones if any(each(env)) else 0)
            return ((lambda env: ones if step(env) == full else 0) if step
                    else (lambda env: ones if all(each(env)) else 0))
        l, r = mask(f.left, v), mask(f.right, v)
        if isinstance(f, And):
            return lambda env: (x := l(env)) and x & r(env)
        if isinstance(f, Or):
            return lambda env: x if (x := l(env)) == ones else x | r(env)
        return lambda env: (ones ^ x) | r(env) if (x := l(env)) else ones

    if column is None:
        return mask(phi, None)(values)
    step, each = over(column, phi)
    return step(values) if step else sum(1 << w for w, h in enumerate(each(values)) if h)


def eval_fo(frame: Frame, phi: FOFormula, asg: dict[str, str] | None = None) -> bool:
    """Truth of phi under asg (variable -> vertex), set at a time over the finite vertex set.

    Variables are bound to vertex indices; an innermost quantified variable is
    a bitmask column and only the outer ones are enumerated, so rank k takes
    about n^(k-1) mask steps.  Mask steps and enumerated values count toward
    UEXT_ASSIGNMENT_LIMIT, checked before each; one past it raises
    ResourceError.  Short-circuited work is never done and never counts.
    """
    try:
        return bool(_evaluate(frame, phi, asg or {}))
    except RecursionError:
        raise _too_deep(phi) from None


def _too_deep(phi: FOFormula) -> ResourceError:
    """The error for a formula, built in code, too deep for the recursive evaluator; it names the
    formula's depth, which `syntax.depth` reads in a loop."""
    return ResourceError(f"FO evaluation ran out of interpreter stack on a formula {depth(phi)} levels deep")


# ---------------------------------------------------------------------------
# Ehrenfeucht-Fraisse games


class _EFGame(Game):
    """Positions are the pairs of vertex indices played so far, in order, and a board's state
    its tuple of them; equal atoms at every step keep the map a partial isomorphism.  A tuple's
    rank-r type is its atom with the set of the rank-(r - 1) types of its extensions t + (a,),
    a not in t (Duplicator answers a repeat with the same repeat), interned in one table for
    both boards.

    Types are computed one diagonal d = len(t) + r at a time, with no recursion.  A board's
    length-L tuples are listed once per game in lexicographic order, so a parent's n - L
    extensions are one contiguous slice and the rank-(d - L) types of length L are one
    comprehension over those of length L + 1.  The rank-0 atoms are read per parent and never
    stored.  An atom is ~code, where code holds how t's last element meets each element of t,
    three bits a place (a = x, a -> x, x -> a): negative, so a set of atoms is never a set of
    type ids.  A tuple's profile holds, per point a, the atom t + (a,) would have without its
    last place, or 0 if a is in t, so one map gives every extension's atom.  Play goes on only
    from positions whose atoms agree, so an atom need only describe the last step."""

    ROUNDS = "max_rounds"

    def __init__(self, f1: Frame, f2: Frame):
        # a sentence of rank max(|F1|, |F2|) + 1 pins a frame of at most max(|F1|, |F2|)
        # points up to isomorphism, so no verdict changes past it
        super().__init__("ef", max(len(f1.vertices), len(f2.vertices)) + 1)
        self.frames, self.rows = (f1, f2), (f1.succ_mask, f2.succ_mask)
        # per board, meets[x][a]: how a meets x, in three bits: a = x, a -> x, x -> a
        self.meets = tuple([[(a == x) << 2 | (p >> a & 1) << 1 | s >> a & 1 for a in range(len(f.vertices))]
                            for x, (s, p) in enumerate(zip(f.succ_mask, f.pred_mask))] for f in (f1, f2))
        # per board and length L, the atoms of the length-L tuples in order, from () and (a,) on
        self.atoms = tuple([[-1], [~row[a] for a, row in enumerate(meets)]] for meets in self.meets)
        self.profiles = [(0, [[-1] * len(rows)]) for rows in self.rows]  # per board, (L, length-L profiles)
        self.types: dict = {}  # (atom, extensions' types) -> type, for both boards
        self.diagonals: dict = {}  # d -> per board and length L < d, the rank-(d - L) types

    def moves(self, pos, board: int) -> range:
        return range(len(self.rows[board - 1]))

    def sides(self, pos) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The tuples played, a pair played again left out: Duplicator's copy of it adds nothing."""
        return tuple(zip(*dict.fromkeys(pos))) or ((), ())

    def atom(self, board: int, t: tuple[int, ...]) -> int:
        """~code of how t's last element meets each element of t, the first in the lowest bits."""
        meets = self.meets[board - 1]
        return ~sum(meets[x][t[-1]] << 3 * j for j, x in enumerate(t))

    def index(self, b: int, t: tuple[int, ...]) -> int:
        """t's place among board b's tuples of its length."""
        i, n = 0, len(self.rows[b])
        for j, a in enumerate(t):
            i = i * (n - j) + a - sum(x < a for x in t[:j])
        return i

    def wins(self, pos, k: int) -> bool:
        """Whether Duplicator survives k more rounds from pos: its tuples' atoms and rank-k types agree."""
        t1, t2 = self.sides(pos)
        if self.atom(1, t1) != self.atom(2, t2):
            return False
        if not k:
            return True
        types1, types2 = self.diagonal(len(t1) + k)
        return types1[len(t1)][self.index(0, t1)] == types2[len(t2)][self.index(1, t2)]

    def diagonal(self, d: int) -> tuple[list, list]:
        """Per board, the rank-(d - L) types of its length-L tuples for every L < d, typed on first
        use.  The diagonal's tuples, rank 0 included, are counted exactly and refused past the
        cap before any of them is listed or typed."""
        if d not in self.diagonals:
            self.budget.charge(sum(math.perm(n, L) for n in map(len, self.rows)
                                   for L in range(min(d, n) + 1)))
            self.diagonals[d] = self.rank(0, d), self.rank(1, d)
        return self.diagonals[d]

    def rank(self, b: int, d: int) -> list[list[int]]:
        """Board b's types on diagonal d, by length from the longest tuples typed up."""
        n, types, atoms, out = len(self.rows[b]), self.types, self.atoms[b], []
        top = min(d - 1, n)
        while len(atoms) <= top:  # list each length once per game
            atoms.append(list(itertools.chain.from_iterable(self.extensions(b, len(atoms) - 1))))
        if top == n or top + 1 < len(atoms):  # the extensions' atoms are listed, or there are none
            below = atoms[top + 1] if top < n else []
        else:
            below = [types.setdefault((x, frozenset(kids)), len(types))
                     for x, kids in zip(atoms[top], self.extensions(b, top))]
            out.append(below)
            top -= 1
        for L in range(top, -1, -1):
            m = n - L
            below = [types.setdefault((x, frozenset(below[j:j + m])), len(types))
                     for j, x in zip(itertools.count(0, m), atoms[L])]
            out.append(below)
        return out[::-1]

    def extensions(self, b: int, length: int):
        """Per tuple of board b of the given length, at least 1, in order: its extensions' atoms,
        in order, read off its parent's profile."""
        own = [row[a] << 3 * length for a, row in enumerate(self.meets[b])]
        return (filter(None, q) for q in self.extended(b, length - 1, self.profiled(b, length - 1), own))

    def profiled(self, b: int, length: int) -> list[list[int]]:
        """The profiles of board b's tuples of the given length, in order; only the longest
        length reached is kept, and no call asks for a shorter one."""
        reached, profiles = self.profiles[b]
        while reached < length:
            profiles = [list(q) for q in self.extended(b, reached, profiles, [0] * len(self.rows[b]))]
            reached += 1
        self.profiles[b] = reached, profiles
        return profiles

    def extended(self, b: int, length: int, profiles: list[list[int]], own: list[int]):
        """Per tuple t + (c,) of board b, in order, t of the given length with the given profiles:
        t's profile ANDed, lazily, with how each a meets c, a's own place from own, and 0 at c."""
        points = range(len(self.rows[b]))
        rows = [[~(meet << 3 * length | own[a]) if a != c else 0 for a, meet in enumerate(row)]
                for c, row in enumerate(self.meets[b])]
        return (map(operator.and_, q, rows[c]) for q in profiles for c in itertools.compress(points, q))

    def step(self, pos, a: int, b: int):
        return pos + ((a, b),)

    def literal(self, pos) -> FOFormula:
        s1, s2 = self.rows
        for i, (a, b) in enumerate(pos):
            for j, (a2, b2) in enumerate(pos):
                for atom, t1, t2 in ((Eq(f"x{i}", f"x{j}"), a == a2, b == b2),
                                     (Rel(f"x{i}", f"x{j}"), s1[a] >> a2 & 1, s2[b] >> b2 & 1)):
                    if t1 != t2:
                        return atom if t1 else Not(atom)
        raise DefectError("no distinguishing literal at a non-isomorphic position")

    def quantify(self, board: int, pos, parts: list) -> FOFormula:
        var = f"x{len(pos)}"
        return (Exists(var, fold(And, parts, Eq(var, var))) if board == 1
                else Forall(var, fold(Or, parts, Not(Eq(var, var)))))


def ef_equivalent(f1: Frame, f2: Frame, rounds: int) -> bool:
    """True iff Duplicator wins the k-round EF game between the two frames."""
    return _EFGame(f1, f2).least((), rounds) is None


def ef_min_rounds(f1: Frame, f2: Frame, max_rounds: int) -> int | None:
    """Smallest k <= max_rounds at which Spoiler wins, or None."""
    return _EFGame(f1, f2).least((), max_rounds)


def spoiler_line(f1: Frame, f2: Frame, rounds: int) -> list[str]:
    """One optimal Spoiler line (with Duplicator's replies) when Spoiler wins: Spoiler plays at
    the least winning round count, so the line holds ef_min_rounds Spoiler moves, and each
    reply is Duplicator's most stubborn, the one Spoiler needs the most rounds to beat."""
    game, pos, line = _EFGame(f1, f2), (), []
    k = game.least(pos, rounds) or 0
    while k:
        board, move = game.spoiler_move(pos, k)
        line.append(f"S:{board}:{game.frames[board - 1].vertices[move]}")
        left = {r: game.least(game.play(pos, board, move, r), k - 1) for r in game.moves(pos, 3 - board)}
        if not left:
            break
        reply = max(left, key=left.__getitem__)
        pos, k = game.play(pos, board, move, reply), left[reply]
        line.append(f"D:{3 - board}:{game.frames[2 - board].vertices[reply]}")
    return line


def distinguishing_sentence(f1: Frame, f2: Frame, rounds: int) -> FOFormula | None:
    """A sentence of the least rank, at most rounds, true in f1 and false in f2, from the game tree."""
    game = _EFGame(f1, f2)
    k = game.least((), rounds)
    return None if k is None else game.distinguish((), k)


# ---------------------------------------------------------------------------
# Bounded sentence enumeration (fixed normal form, reproducible oracle)


def sentences_upto(max_rank: int) -> list[FOFormula]:
    """Closed formulas of quantifier rank <= max_rank in a fixed normal form.

    Negation-normal form over a pool of max_rank variable names, built from
    literals, binary conjunction/disjunction, and one quantifier per rank
    level.  The hard count cap keeps the oracle reproducible.
    """
    if max_rank < 0:
        raise InputError("max_rank must be nonnegative")
    pool = [f"x{i}" for i in range(max_rank)]

    def formulas(rank: int, depth: int) -> list[FOFormula]:
        avail = pool[:depth]
        lits: list[FOFormula] = []
        for a in avail:
            for b in avail:
                lits.append(Rel(a, b))
                lits.append(Not(Rel(a, b)))
                if a != b:
                    lits.append(Eq(a, b))
                    lits.append(Not(Eq(a, b)))
        if rank == 0:
            return lits[:SENTENCE_LIMIT]
        inner = formulas(rank - 1, depth + 1)
        var = pool[depth]
        out: list[FOFormula] = list(lits)
        for body in inner:
            out.append(Exists(var, body))
            out.append(Forall(var, body))
            if len(out) >= SENTENCE_LIMIT:
                return out[:SENTENCE_LIMIT]
        combos = [f for f in out if not isinstance(f, (Rel, Eq, Not))]
        for f, g in itertools.combinations(combos[:40], 2):
            out.append(And(f, g))
            out.append(Or(f, g))
            if len(out) >= SENTENCE_LIMIT:
                break
        return out[:SENTENCE_LIMIT]

    return [phi for phi in formulas(max_rank, 0) if not free_vars(phi)][:SENTENCE_LIMIT]


# ---------------------------------------------------------------------------
# Los-Lemma-like check on finite ultrafilter extensions


def los_like_check(frame: Frame, phi: FOFormula, u: ultra.Ultrafilter) -> tuple[bool, bool, bool]:
    """Truth of phi at pi_u on the extension iff {w : phi holds at w on the frame} belongs to u.

    phi must have exactly one free variable.  Returns (agree, extension side,
    membership side).  The membership side is read on the frame, not through
    the extension, so a broken extension shows as disagreement; on finite
    frames disagreement is a defect (eta: w -> pi_w is an isomorphism).  The
    set {w : phi holds at w} is one truth mask, with the free variable as its
    column, and it belongs to u iff it holds u's point.
    """
    try:
        fv = sorted(free_vars(phi))
        if len(fv) != 1:
            raise InputError(f"los_like_check needs exactly one free variable, got {fv}")
        if u.frame != frame:
            raise InputError("ultrafilter is not over the given frame")
        x = fv[0]
        lhs = eval_fo(ultra.build_ue(frame).frame, phi, {x: u.name})
        rhs = bool(_evaluate(frame, phi, {}, column=x) >> frame.index[u.point] & 1)
    except RecursionError:
        raise _too_deep(phi) from None
    return lhs == rhs, lhs, rhs


# ---------------------------------------------------------------------------
# Ultraproducts over finite index sets


class Ultraproduct(NamedTuple):
    """A literal finite-index ultraproduct: functions on the index set modulo d."""

    frame: Frame
    factors: tuple[Frame, ...]
    principal_index: int
    representatives: tuple[tuple[str, ...], ...]  # class id order matches frame.vertices

    def class_of(self, func: tuple[str, ...]) -> str:
        """Class id of a choice function (its value at the principal index)."""
        if len(func) != len(self.factors):
            raise InputError("choice function has wrong arity")
        for i, w in enumerate(func):
            self.factors[i].check_vertices([w])
        return func[self.principal_index]

    def diagonal(self, w: str) -> str:
        """Class of the constant function at w (requires w in every factor)."""
        return self.class_of(tuple(w for _ in self.factors))


def index_ultrafilter(size: int, point: int) -> ultra.Ultrafilter:
    """A principal ultrafilter over the index set {0..size-1}."""
    idx = Frame.from_rows(tuple(str(i) for i in range(size)), [0] * size)
    return ultra.Ultrafilter(idx, str(point))


def ultraproduct(structures: list[Frame], d: ultra.Ultrafilter) -> Ultraproduct:
    """Quotient construction over a finite index set.

    Elements are choice functions; f ~ g iff {i : f(i) = g(i)} in d; the edge
    relation holds on classes iff the agreement set of R is in d.  d is
    principal at i0, so the class of f is f(i0), one class per vertex of
    factor i0, and there are none if any factor is empty.  A class's
    representative is its first choice function in product order: w at i0 and
    every other factor's first vertex.
    """
    if not structures:
        raise InputError("ultraproduct of an empty family")
    if len(d.frame.vertices) != len(structures):
        raise InputError("index ultrafilter size does not match the number of factors")
    indices = list(range(len(structures)))
    if d.point not in map(str, indices):
        raise InputError(f"index ultrafilter is principal at {d.point!r}, not at an index below {len(structures)}")
    i0 = int(d.point)

    # class order follows the principal factor's vertex order; a class picks each factor's vertex by index
    order = structures[i0].vertices if all(s.vertices for s in structures) else ()
    picks = [tuple(a if i == i0 else 0 for i in indices) for a in range(len(order))]
    reps = tuple(tuple(s.vertices[p] for s, p in zip(structures, pick)) for pick in picks)
    succ = [s.succ_mask for s in structures]
    rows = [0] * len(order)
    for a, fa in enumerate(picks):
        for b, fb in enumerate(picks):
            if d.member(frozenset(str(i) for i in indices if succ[i][fa[i]] >> fb[i] & 1)):
                rows[a] |= 1 << b
    return Ultraproduct(Frame.from_rows(order, rows), tuple(structures), i0, reps)
