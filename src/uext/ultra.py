"""Exact ultrafilter extensions of finite frames.

Over a finite carrier every ultrafilter is principal, so an ultrafilter is
stored as its principal point and membership is O(1).  The extension relation
is still computed by literal powerset enumeration: one sweep over all 2^n
subsets, as int bitmasks over load order, evaluates all three definitional
modes for every pair, and any disagreement between them is a defect.  The
construction refuses to proceed past a configurable carrier size rather than
silently approximate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

from .caps import env_limit
from .errors import DefectError, InputError, ResourceError
from .frame import Frame

POWERSET_LIMIT_ENV = "UEXT_POWERSET_LIMIT"
DEFAULT_POWERSET_LIMIT = 16


@dataclass(frozen=True)
class Ultrafilter:
    """A (necessarily principal) ultrafilter over a finite frame's vertex set."""

    frame: Frame
    point: str

    def __post_init__(self):
        self.frame.check_vertices([self.point])

    def member(self, xs) -> bool:
        """X is in the ultrafilter iff the principal point lies in X."""
        return self.point in xs

    @property
    def name(self) -> str:
        return f"pi:{self.point}"


def enumerate_ultrafilters(frame: Frame) -> list[Ultrafilter]:
    """All ultrafilters over a finite carrier: one principal per vertex."""
    return [Ultrafilter(frame, w) for w in frame.vertices]


def _mode_rows(frame: Frame) -> dict[str, list[int]]:
    """R^ue under each definitional mode, as one target bitmask per source point.

    One sweep over every subset X of W (an int bitmask) folds all three modes:

    mode A: u R v iff R-(X) in u for every X in v, so the sources of v are
            the intersection of R-(X) over all X containing v
    mode B: u R v iff every Y with l_R(Y) in u is in v, so the targets of u
            are the intersection of all Y with u in l_R(Y)
    mode C: u R v iff R+(X) in v for every X in u, so the targets of u are
            the intersection of R+(X) over all X containing u

    Images follow the prefix recurrence img[X] = img[X - {i}] | R(i) for the
    lowest point i of X; l_R(Y) is tested point by point, not derived from R-.
    """
    n = len(frame.vertices)
    limit = env_limit(POWERSET_LIMIT_ENV, DEFAULT_POWERSET_LIMIT)
    if n > limit:
        raise ResourceError(
            f"powerset enumeration capped at |W| <= {limit} "
            f"(set {POWERSET_LIMIT_ENV} to raise); got |W| = {n}"
        )
    succ, pred = frame.succ_mask, frame.pred_mask
    full = (1 << n) - 1
    sources_a, targets_b, targets_c = [full] * n, [full] * n, [full] * n
    points = tuple((w, 1 << w, succ[w]) for w in range(n))
    for w, _, s in points:
        if not s:  # w in l_R(empty set)
            targets_b[w] = 0
    # one 64-bit slot per subset: no int object is kept per entry
    fwd, bwd = array("Q", [0]) * (1 << n), array("Q", [0]) * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        i = low.bit_length() - 1
        f = fwd[x] = fwd[x ^ low] | succ[i]
        b = bwd[x] = bwd[x ^ low] | pred[i]
        for w, bit, s in points:
            if x & bit:
                sources_a[w] &= b
                targets_c[w] &= f
            if s & x == s:
                targets_b[w] &= x
    targets_a = [sum(1 << v for v in range(n) if sources_a[v] >> u & 1) for u in range(n)]
    return {"A": targets_a, "B": targets_b, "C": targets_c}


def ue_related(u: Ultrafilter, v: Ultrafilter, mode: str) -> bool:
    """Decide R^ue uv by one of the three definitional enumerations.

    mode A: for every X in v, R-(X) in u
    mode B: {Y : l_R(Y) in u} is a subset of v
    mode C: {R+(X) : X in u} is a subset of v
    """
    if u.frame != v.frame:
        raise InputError("ue_related: ultrafilters live over different carriers")
    if mode not in ("A", "B", "C"):
        raise InputError(f"unknown ue_related mode {mode!r}")
    index = u.frame.index
    return bool(_mode_rows(u.frame)[mode][index[u.point]] >> index[v.point] & 1)


@dataclass(frozen=True)
class UEFrame:
    """The ultrafilter extension of a finite frame, with its carrier of principals."""

    base: Frame
    ultrafilters: tuple[Ultrafilter, ...]
    ue_edges: frozenset[tuple[str, str]]  # edges between ultrafilter names "pi:<id>"

    @cached_property
    def frame(self) -> Frame:
        """The extension viewed as a plain Frame over ids ``pi:<original id>``."""
        return Frame(tuple(u.name for u in self.ultrafilters), self.ue_edges)


def build_ue(frame: Frame) -> UEFrame:
    """Construct the ultrafilter extension, cross-checking all three definitions.

    Raises DefectError if the modes ever disagree; this must never fire.
    """
    rows = _mode_rows(frame)
    ufs = enumerate_ultrafilters(frame)
    edges = set()
    for i, u in enumerate(ufs):
        for j, v in enumerate(ufs):
            a, b, c = (bool(rows[m][i] >> j & 1) for m in "ABC")
            if not (a == b == c):
                raise DefectError(
                    f"ue_related modes disagree at ({u.name}, {v.name}): A={a} B={b} C={c}"
                )
            if a:
                edges.add((u.name, v.name))
    return UEFrame(frame, tuple(ufs), frozenset(edges))


def canonical_embedding(frame: Frame) -> dict[str, Ultrafilter]:
    """The embedding w -> pi_w; an isomorphism onto the extension for finite frames."""
    return {w: Ultrafilter(frame, w) for w in frame.vertices}


def distinguishing_elements(ultrafilters: list[Ultrafilter]) -> list[frozenset[str]]:
    """Pairwise-disjoint sets D_i with D_i in u_j iff i = j (singletons of the points)."""
    points = [u.point for u in ultrafilters]
    if len(set(points)) != len(points):
        raise InputError("distinguishing_elements: duplicate ultrafilter in input")
    return [frozenset([p]) for p in points]


@dataclass(frozen=True)
class Road:
    """A simple path with per-step directions drawn from {R, R^-1}.

    Waypoints may be vertices or ultrafilters; a road has at least one step.
    """

    waypoints: tuple
    directions: tuple[str, ...]  # each "R" or "R-"

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise InputError("a road has at least two waypoints")
        if len(self.directions) != len(self.waypoints) - 1:
            raise InputError("a road needs one direction per step")
        if len(set(self.waypoints)) != len(self.waypoints):
            raise InputError("road waypoints must be pairwise distinct")
        for d in self.directions:
            if d not in ("R", "R-"):
                raise InputError(f"unknown road direction {d!r}")

    def __len__(self) -> int:
        return len(self.directions)


def roads_between(frame: Frame, s: str, t: str, max_len: int) -> list[Road]:
    """All simple roads from s to t of length <= max_len, deterministically ordered.

    A road visits pairwise-distinct vertices, so for s == t the result is empty.
    """
    frame.check_vertices([s, t])
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    out: list[Road] = []

    def extend(path: list[str], dirs: list[str]):
        last = path[-1]
        if last == t:
            if dirs:
                out.append(Road(tuple(path), tuple(dirs)))
            return  # t cannot reappear on a simple road, so no extension helps
        if len(dirs) >= max_len:
            return
        for nxt in frame.vertices:
            if nxt in path:
                continue
            if frame.has_edge(last, nxt):
                extend(path + [nxt], dirs + ["R"])
            if frame.has_edge(nxt, last):
                extend(path + [nxt], dirs + ["R-"])

    extend([s], [])
    dir_rank = {"R": 0, "R-": 1}
    out.sort(
        key=lambda r: (
            tuple(frame.index[w] for w in r.waypoints),
            tuple(dir_rank[d] for d in r.directions),
        )
    )
    return out


def ultrafilter_road_delta(
    x: frozenset[str],
    road: Road,
    distinguishers: list[frozenset[str]],
) -> frozenset[str]:
    """The set chain Delta_n along an ultrafilter road, based at X.

    Each step intersects the forward or backward image (per the step direction)
    with the distinguishing element of the next waypoint.
    """
    first = road.waypoints[0]
    if not isinstance(first, Ultrafilter):
        raise InputError("ultrafilter_road_delta expects a road over ultrafilters")
    if len(distinguishers) != len(road.waypoints):
        raise InputError("one distinguishing element per waypoint is required")
    if not first.member(x):
        raise InputError("base set X must belong to the first waypoint ultrafilter")
    frame = first.frame
    delta = frame.mask(x)
    for i, direction in enumerate(road.directions):
        delta = frame.image(delta, direction == "R") & frame.mask(distinguishers[i + 1] & frame.index.keys())
    return frozenset(frame.names(delta))


def length_zero_delta(x: frozenset[str]) -> frozenset[str]:
    """Delta_0 = X, the base case of the road recursion."""
    return frozenset(x)
