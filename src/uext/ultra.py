"""Exact ultrafilter extensions of finite frames.

Over a finite carrier every ultrafilter is principal, so an ultrafilter is
stored as its principal point and membership is O(1).  The extension relation
is still computed by literal powerset enumeration, bit-sliced: each of the 2^n
subsets is one bit of a per-point truth table (a 2^n-bit int), so a mode's
quantifier over all subsets is a few big-int ORs, ANDs and one subset test.
All three definitional modes are coded once, in `_mode_rows`, and evaluated
for every pair; any disagreement between them is a defect.  The construction
refuses to proceed past a configurable carrier size rather than silently
approximate.
"""

from __future__ import annotations

from typing import NamedTuple

from .caps import Budget
from .errors import DefectError, InputError
from .frame import Frame, Frozen, all_of, any_of, bits, table, transpose


class Ultrafilter(NamedTuple("Ultrafilter", [("frame", Frame), ("point", str)])):
    """A (necessarily principal) ultrafilter over a finite frame's vertex set; ``Ultrafilter(frame,
    point)`` checks the point, and ``Ultrafilter._make((frame, point))`` trusts it."""

    __slots__ = ()

    def __new__(cls, frame: Frame, point: str):
        frame.check_vertices([point])
        return super().__new__(cls, frame, point)

    def member(self, xs) -> bool:
        """X is in the ultrafilter iff the principal point lies in X."""
        return self.point in xs

    @property
    def name(self) -> str:
        return f"pi:{self.point}"


def enumerate_ultrafilters(frame: Frame) -> list[Ultrafilter]:
    """All ultrafilters over a finite carrier: one principal per vertex, its point not checked again."""
    return [Ultrafilter._make((frame, w)) for w in frame.vertices]


def _mode_rows(frame: Frame) -> dict[str, list[int]]:
    """R^ue under each definitional mode, as one target bitmask per source point.

    Every subset X of W is one bit of a 2^n-bit int, and T_j (`frame.table`) sets
    the bits of the subsets that contain j.  Each mode tests every pair through its
    own view of R, so a corrupted view shows as a disagreement: A and B in one pass
    over the tables per source point, C in one pass per target:

    mode A: u R v iff R-(X) in u for every X in v, i.e. every X containing v
            meets R(u): T_v within D_u, the OR of T_j over every j whose
            pred_mask holds u
    mode B: u R v iff every Y with l_R(Y) in u is in v, i.e. every Y
            containing R(u) contains v: B_u within T_v, B_u the AND of T_j
            over succ_mask[u] (all ones when u has no successors)
    mode C: u R v iff R+(X) in v for every X in u, i.e. every X containing u
            meets R-(v): T_u within P_v, the OR of T_j over every j whose
            succ_mask holds v
    """
    n = len(frame.vertices)
    Budget("powerset").charge(n)  # before any table is allocated
    succ, pred = frame.succ_mask, frame.pred_mask
    pred_holders, succ_holders = transpose(pred), transpose(succ)  # [w]: the points whose row holds w
    tables = [table(j, n) for j in range(n)]
    t_j = tables.__getitem__
    ones = (1 << (1 << n)) - 1
    a_rows, b_rows, c_rows = [0] * n, [0] * n, [0] * n
    for u in range(n):
        d_u, b_u, a, b = any_of(t_j, pred_holders[u]), all_of(t_j, succ[u], ones), 0, 0
        for v, t_v in enumerate(tables):
            if t_v & d_u == t_v:  # T_v within D_u
                a |= 1 << v
            if b_u & t_v == b_u:  # B_u within T_v
                b |= 1 << v
        a_rows[u], b_rows[u] = a, b
    for v in range(n):
        p_v, bit = any_of(t_j, succ_holders[v]), 1 << v
        for u, t_u in enumerate(tables):
            if t_u & p_v == t_u:  # T_u within P_v
                c_rows[u] |= bit
    return {"A": a_rows, "B": b_rows, "C": c_rows}


def ue_related(u: Ultrafilter, v: Ultrafilter, mode: str) -> bool:
    """Decide R^ue uv by definitional mode A, B or C, read off `_mode_rows`, which states them."""
    if u.frame != v.frame:
        raise InputError("ue_related: ultrafilters live over different carriers")
    if mode not in ("A", "B", "C"):
        raise InputError(f"unknown ue_related mode {mode!r}")
    index = u.frame.index
    return bool(_mode_rows(u.frame)[mode][index[u.point]] >> index[v.point] & 1)


class UEFrame(NamedTuple):
    """The ultrafilter extension of a finite frame, with its carrier of principals.  The one at
    position k, in ``ultrafilters`` and ``frame``, is principal at the base's point k: a set of
    base points and the set of ultrafilters it belongs to have one bitmask (`modal.UEModel`)."""

    base: Frame
    ultrafilters: tuple[Ultrafilter, ...]
    frame: Frame  # the extension as a plain Frame over ids ``pi:<original id>``

    @property
    def ue_edges(self) -> frozenset[tuple[str, str]]:
        """The edges between ultrafilter names "pi:<id>"."""
        return self.frame.edges


def build_ue(frame: Frame) -> UEFrame:
    """Construct the ultrafilter extension, cross-checking all three definitions.

    Raises DefectError if the modes ever disagree; this must never fire.
    """
    rows, ufs = _mode_rows(frame), enumerate_ultrafilters(frame)
    if not rows["A"] == rows["B"] == rows["C"]:
        i, j = next((i, j) for i in range(len(ufs)) for j in range(len(ufs))
                    if len({rows[m][i] >> j & 1 for m in "ABC"}) > 1)
        a, b, c = (bool(rows[m][i] >> j & 1) for m in "ABC")
        raise DefectError(f"ue_related modes disagree at ({ufs[i].name}, {ufs[j].name}): A={a} B={b} C={c}")
    return UEFrame(frame, tuple(ufs), Frame.from_rows(tuple(u.name for u in ufs), rows["A"]))


def canonical_embedding(frame: Frame) -> dict[str, Ultrafilter]:
    """The embedding w -> pi_w; an isomorphism onto the extension for finite frames."""
    return dict(zip(frame.vertices, enumerate_ultrafilters(frame)))


class Road(Frozen):
    """A simple path with per-step directions drawn from {R, R^-1}, each "R" or "R-".

    Waypoints may be vertices or ultrafilters; a road has at least one step, and its length
    is its number of steps.  Roads are immutable, hashable and compare by value.
    """

    __slots__ = ("waypoints", "directions")

    def __init__(self, waypoints: tuple, directions: tuple[str, ...]):
        if len(waypoints) < 2:
            raise InputError("a road has at least two waypoints")
        if len(directions) != len(waypoints) - 1:
            raise InputError("a road needs one direction per step")
        if len(set(waypoints)) != len(waypoints):
            raise InputError("road waypoints must be pairwise distinct")
        for d in directions:
            if d not in ("R", "R-"):
                raise InputError(f"unknown road direction {d!r}")
        object.__setattr__(self, "waypoints", waypoints)
        object.__setattr__(self, "directions", directions)

    def __reduce__(self):
        """Copies and unpickling go through the constructor, since the fields refuse assignment."""
        return Road, (self.waypoints, self.directions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Road):
            return NotImplemented
        return (self.waypoints, self.directions) == (other.waypoints, other.directions)

    def __hash__(self) -> int:
        return hash((self.waypoints, self.directions))

    def __repr__(self) -> str:
        return f"Road(waypoints={self.waypoints!r}, directions={self.directions!r})"

    def __len__(self) -> int:
        return len(self.directions)


def roads_between(frame: Frame, s: str, t: str, max_len: int) -> list[Road]:
    """All simple roads from s to t of length <= max_len, deterministically ordered.

    A road visits pairwise-distinct vertices, so for s == t the result is empty.
    Roads are sorted by waypoint load order, then by directions, R before R-.
    The search keeps its own stack, so a road may be longer than the
    interpreter's recursion limit.
    """
    frame.check_vertices([s, t])
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    start, goal, rows = frame.index[s], frame.index[t], (frame.succ_mask, frame.pred_mask)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    stack = [((start,), (), 1 << start)]
    while stack:
        path, dirs, seen = stack.pop()
        if path[-1] == goal:
            if dirs:
                found.append((path, dirs))
            continue  # t cannot reappear on a simple road, so no extension helps
        if len(dirs) >= max_len:
            continue
        for d, row in enumerate(rows):
            for nxt in bits(row[path[-1]] & ~seen):
                stack.append((path + (nxt,), dirs + (d,), seen | 1 << nxt))
    found.sort()
    return [Road(tuple(frame.vertices[i] for i in path), tuple(("R", "R-")[d] for d in dirs))
            for path, dirs in found]
