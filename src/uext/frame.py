"""Finite directed graphs and the powerset operations everything else builds on.

Vertices are opaque string ids.  The vertex tuple fixes the load order; every
set-valued result is reported sorted by that order so outputs are
deterministic and diff-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputError

Edge = tuple[str, str]


@dataclass(frozen=True)
class Frame:
    """A finite directed graph ``<W, R>`` with ordered, uniquely named vertices."""

    vertices: tuple[str, ...]
    edges: frozenset[Edge]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise InputError(f"duplicate vertex id {v!r}")
            seen.add(v)
        for a, b in self.edges:
            if a not in seen or b not in seen:
                raise InputError(f"edge ({a!r}, {b!r}) has an endpoint outside the vertex set")

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def succ(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            out[a].add(b)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def pred(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            out[b].add(a)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def succ_mask(self) -> tuple[int, ...]:
        """Successor sets as int bitmasks over load order (bit i is vertices[i])."""
        return tuple(sum(1 << self.index[s] for s in self.succ[v]) for v in self.vertices)

    @cached_property
    def pred_mask(self) -> tuple[int, ...]:
        """Predecessor sets as int bitmasks over load order."""
        return tuple(sum(1 << self.index[s] for s in self.pred[v]) for v in self.vertices)

    @cached_property
    def _preimage_tables(self) -> tuple[list[int], ...]:
        """One table per 8 points from bit 8c: entry b is the union of the pred_masks
        of the points that b picks out of those 8, built by a prefix recurrence."""
        pred, n, tables = self.pred_mask, len(self.vertices), []
        for lo in range(0, n, 8):
            table = [0] * (1 << min(8, n - lo))
            for b in range(1, len(table)):
                low = b & -b
                table[b] = table[b ^ low] | pred[lo + low.bit_length() - 1]
            tables.append(table)
        return tuple(tables)

    def preimage(self, x: int) -> int:
        """R-(X) for the bitmask x: the points with a successor in X, one lookup per 8 points."""
        out = 0
        for c, table in enumerate(self._preimage_tables):
            out |= table[x >> 8 * c & 0xFF]
        return out

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    def sort(self, xs: Iterable[str]) -> list[str]:
        """Sort vertices by load order (the canonical output order)."""
        return sorted(xs, key=self.index.__getitem__)

    def check_vertices(self, xs: Iterable[str]) -> frozenset[str]:
        xs = frozenset(xs)
        unknown = xs - self.vertex_set
        if unknown:
            raise InputError(f"unknown vertex {min(unknown)!r}")
        return xs


@dataclass(frozen=True)
class DegreeReport:
    deg_plus: int
    deg_minus: int

    @property
    def deg(self) -> int:
        return self.deg_plus + self.deg_minus


@dataclass(frozen=True)
class Boundedness:
    max_deg_plus: int
    max_deg_minus: int
    max_deg: int


def relation_image(frame: Frame, x: Iterable[str], mode: str) -> frozenset[str]:
    """R+(X), R-(X), R(X) or l_R(X) for X a subset of the frame's vertices.

    mode 'forward'  -> R+(X) = {s : exists w in X with Rws}
    mode 'backward' -> R-(X) = {w : exists s in X with Rws}
    mode 'both'     -> R-(X) | R+(X)
    mode 'box'      -> l_R(X) = {w : every successor of w lies in X}
    """
    xs = frame.check_vertices(x)
    if mode == "forward":
        return frozenset().union(*(frame.succ[w] for w in xs)) if xs else frozenset()
    if mode == "backward":
        return frozenset().union(*(frame.pred[s] for s in xs)) if xs else frozenset()
    if mode == "both":
        return relation_image(frame, xs, "backward") | relation_image(frame, xs, "forward")
    if mode == "box":
        return frozenset(w for w in frame.vertices if frame.succ[w] <= xs)
    raise InputError(f"unknown relation_image mode {mode!r}")


def degree(frame: Frame, w: str) -> DegreeReport:
    """Out/in degree of a vertex; a self-loop counts once in each direction."""
    frame.check_vertices([w])
    return DegreeReport(len(frame.succ[w]), len(frame.pred[w]))


def boundedness(frame: Frame) -> Boundedness:
    """Per-frame degree maxima; all zero on the empty frame."""
    reports = [degree(frame, w) for w in frame.vertices]
    if not reports:
        return Boundedness(0, 0, 0)
    return Boundedness(
        max(r.deg_plus for r in reports),
        max(r.deg_minus for r in reports),
        max(r.deg for r in reports),
    )


def reverse(frame: Frame) -> Frame:
    """The same vertices with every edge flipped."""
    return Frame(frame.vertices, frozenset((b, a) for a, b in frame.edges))


def induced_subframe(frame: Frame, xs: Iterable[str]) -> Frame:
    xs = frame.check_vertices(xs)
    verts = tuple(v for v in frame.vertices if v in xs)
    return Frame(verts, frozenset((a, b) for a, b in frame.edges if a in xs and b in xs))


def frame_from_dict(doc: dict) -> Frame:
    """Build a Frame from the JSON document shape {"vertices": [...], "edges": [[a,b],...]}.

    Duplicate edges in the input are rejected, naming the duplicate.
    """
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise InputError('frame document must have "vertices" and "edges" fields')
    vertices = tuple(vertex_id(v) for v in json_array(doc["vertices"], '"vertices"'))
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for pair in json_array(doc["edges"], '"edges"'):
        e = json_pair(pair, "edge")
        if e in seen:
            raise InputError(f"duplicate edge [{e[0]!r}, {e[1]!r}] in input")
        seen.add(e)
        edges.append(e)
    return Frame(vertices, frozenset(edges))


def frame_to_dict(frame: Frame) -> dict:
    return {
        "vertices": list(frame.vertices),
        "edges": [[a, b] for a, b in sorted(frame.edges, key=lambda e: (frame.index[e[0]], frame.index[e[1]]))],
    }


def json_array(value, what: str) -> list:
    """value, checked to be a JSON array; what names it in the error."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array")
    return value


def json_pair(entry, what: str) -> Edge:
    """A [from, to] entry as a pair of vertex ids; what names the entry kind in the error."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise InputError(f"{what} entry {entry!r} is not a [from, to] pair")
    return vertex_id(entry[0]), vertex_id(entry[1])


def vertex_id(value) -> str:
    """A JSON vertex id, a string or an integer, as the string that names the vertex."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise InputError(f"vertex id {json.dumps(value)} is not a string or an integer")


def read_json(path: str, what: str):
    """The JSON document in file path; what names the file kind in the error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def load_frame(path: str) -> Frame:
    return frame_from_dict(read_json(path, "frame"))


def frame_to_dot(frame: Frame) -> str:
    lines = ['digraph "frame" {']
    for v in frame.vertices:
        lines.append(f"  {json.dumps(v)};")
    for a, b in sorted(frame.edges, key=lambda e: (frame.index[e[0]], frame.index[e[1]])):
        lines.append(f"  {json.dumps(a)} -> {json.dumps(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
