"""Finite directed graphs and the powerset operations everything else builds on.

Vertex ids are strings only at the I/O boundary: loaders, JSON and DOT output,
and the names in witnesses.  Below it a vertex is its index in the vertex
tuple (the load order) and a set of vertices is an int bitmask whose bit i is
vertices[i]; successor and predecessor sets are the rows succ_mask and
pred_mask, built once from the edges.  Every relation image and every test
of the lifted relation folds rows over a mask through `any_of` (a union) or
`all_of` (an intersection): R+(X) is the union of X's successor rows.  Hull
colours and bisimulation types are both refined by `refine`.  Every set-valued
result is reported in load order, so outputs are deterministic and diff-stable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InputError

Edge = tuple[str, str]
LETTER = re.compile(r"p\d+")  # a proposition letter, the only kind a valuation or a modal formula can name


def bits(mask: int) -> Iterator[int]:
    """The indices of mask's set bits, lowest (first in load order) first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def any_of(row, points: int) -> int:
    """The union of row(j) over the set bits j of points; 0 for the empty mask."""
    out = 0
    while points:
        low = points & -points
        out |= row(low.bit_length() - 1)
        points ^= low
    return out


def all_of(row, points: int, ones: int) -> int:
    """The intersection of row(j) over the set bits j of points; ones for the empty mask."""
    out = ones
    while points:
        low = points & -points
        out &= row(low.bit_length() - 1)
        points ^= low
    return out


def table(j: int, n: int) -> int:
    """T_j: the 2^n-bit int whose bit X is set iff j lies in subset X, the truth table both
    bit-sliced kernels start from (`ultra`'s subsets of W, `modal.frame_valid`'s valuations).

    Over the subsets below 2^(j+1) the pattern is 2^j zeros, then 2^j ones;
    doubling repeats it up to 2^n bits.
    """
    block = 1 << j
    t, width = ((1 << block) - 1) << block, 2 * block
    while width < 1 << n:
        t |= t << width
        width *= 2
    return t


def refine(colors: list, signatures) -> Iterator[list[int]]:
    """Yields each round's colours, the ranks of signatures(colors) in sorted order, up to the first
    round that splits no class.  A signature must fix its item's colour; raw keys may be the first colours."""
    split = True
    while split:
        sig = signatures(colors)
        ranks = {s: c for c, s in enumerate(sorted(set(sig)))}
        split, colors = len(ranks) > len(set(colors)), [ranks[s] for s in sig]
        yield colors


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
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def _rows(self, end: int) -> tuple[int, ...]:
        rows, index = [0] * len(self.vertices), self.index
        for e in self.edges:
            rows[index[e[end]]] |= 1 << index[e[1 - end]]
        return tuple(rows)

    @cached_property
    def succ_mask(self) -> tuple[int, ...]:
        """Successor sets as int bitmasks over load order (bit i is vertices[i])."""
        return self._rows(0)

    @cached_property
    def pred_mask(self) -> tuple[int, ...]:
        """Predecessor sets as int bitmasks over load order."""
        return self._rows(1)

    def image(self, x: int, forward: bool) -> int:
        """R+(X) if forward, else R-(X), for the bitmask x: the union of x's successor (predecessor) rows."""
        return any_of((self.succ_mask if forward else self.pred_mask).__getitem__, x)

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    def check_vertices(self, xs: Iterable[str]) -> frozenset[str]:
        xs = frozenset(xs)
        unknown = [x for x in xs if x not in self.index]
        if unknown:
            raise InputError(f"unknown vertex {min(unknown)!r}")
        return xs

    def position(self, w: str) -> int:
        """The load-order index of vertex w; an unknown name is an InputError."""
        if w not in self.index:
            raise InputError(f"unknown vertex {w!r}")
        return self.index[w]

    def mask(self, xs: Iterable[str]) -> int:
        """The bitmask of a set of vertex names; an unknown name is an InputError."""
        return sum(1 << self.index[x] for x in self.check_vertices(xs))

    def names(self, mask: int) -> list[str]:
        """The vertices in a bitmask, in load order."""
        return [self.vertices[i] for i in bits(mask)]

    def sorted_edges(self, mask: int = -1) -> list[Edge]:
        """The edges between the vertices in a bitmask (all by default), in load order."""
        verts, succ, full = self.vertices, self.succ_mask, (1 << len(self.vertices)) - 1
        return [(verts[i], verts[j]) for i in bits(mask & full) for j in bits(succ[i] & mask)]

    def restrict(self, mask: int) -> Frame:
        """The subframe induced by a bitmask, its vertices in load order."""
        return Frame(tuple(self.names(mask)), frozenset(self.sorted_edges(mask)))


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
    mode 'box'      -> l_R(X) = {w : every successor of w lies in X} = W - R-(W - X)
    """
    xs, full = frame.mask(x), (1 << len(frame.vertices)) - 1
    if mode == "forward":
        out = frame.image(xs, True)
    elif mode == "backward":
        out = frame.image(xs, False)
    elif mode == "both":
        out = frame.image(xs, True) | frame.image(xs, False)
    elif mode == "box":
        out = full ^ frame.image(full ^ xs, False)
    else:
        raise InputError(f"unknown relation_image mode {mode!r}")
    return frozenset(frame.names(out))


def degree(frame: Frame, w: str) -> DegreeReport:
    """Out/in degree of a vertex; a self-loop counts once in each direction."""
    i = frame.position(w)
    return DegreeReport(frame.succ_mask[i].bit_count(), frame.pred_mask[i].bit_count())


def boundedness(frame: Frame) -> Boundedness:
    """Per-frame degree maxima; all zero on the empty frame."""
    outs, ins = [r.bit_count() for r in frame.succ_mask], [r.bit_count() for r in frame.pred_mask]
    return Boundedness(max(outs, default=0), max(ins, default=0), max(map(sum, zip(outs, ins)), default=0))


def reverse(frame: Frame) -> Frame:
    """The same vertices with every edge flipped."""
    return Frame(frame.vertices, frozenset((b, a) for a, b in frame.edges))


def induced_subframe(frame: Frame, xs: Iterable[str]) -> Frame:
    return frame.restrict(frame.mask(xs))


FRAME_FIELDS = ("vertices", "edges")  # a frame document's fields; a model file adds "valuation"


def frame_from_dict(doc: dict, fields: tuple[str, ...] = FRAME_FIELDS + ("valuation",)) -> Frame:
    """Build a Frame from the JSON document shape {"vertices": [...], "edges": [[a,b],...]}.

    The document may have only the given fields: by default a model's
    "valuation" may ride along, read and checked by its loader, while a frame
    nested in a family is read with FRAME_FIELDS.  Any other field, and a
    duplicate edge, is rejected by name.
    """
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise InputError('frame document must have "vertices" and "edges" fields')
    known_fields(doc, fields, "frame document")
    vertices = tuple(vertex_id(v) for v in json_array(doc["vertices"], '"vertices"'))
    edges = distinct((json_pair(pair, "edge") for pair in json_array(doc["edges"], '"edges"')), "edge")
    return Frame(vertices, frozenset(edges))


def frame_to_dict(frame: Frame) -> dict:
    return {
        "vertices": list(frame.vertices),
        "edges": [[a, b] for a, b in frame.sorted_edges()],
    }


def known_fields(doc: dict, known: tuple[str, ...], what: str) -> None:
    """Refuse a JSON object with a field outside known, naming the first in sorted order; what
    names the object in the error."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise InputError(f"{what} has unknown field {unknown[0]!r} (known: {', '.join(known)})")


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


def distinct(items, what: str, where: str = "input") -> list:
    """The items in order, refusing the first that repeats; what names an item's kind and where
    the list it is in, in the error."""
    seen: dict = {}
    for x in items:
        if x in seen:
            raise InputError(f"duplicate {what} {list(x) if isinstance(x, tuple) else x!r} in {where}")
        seen[x] = None
    return list(seen)


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
    # ValueError covers JSON and UTF-8 decoding, RecursionError JSON nested past the stack
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def read_model(path: str) -> tuple[Frame, dict[str, frozenset[str]]]:
    """The frame in a model file, or in a frame file, and its valuation, empty when it has none.
    The valuation is checked all the same: an object from letters to lists of distinct vertices."""
    doc = read_json(path, "frame")
    frame = frame_from_dict(doc)
    val = doc.get("valuation", {})
    if not isinstance(val, dict):
        raise InputError("valuation must be an object mapping letters to vertex lists")
    for p in val:
        if not LETTER.fullmatch(p):
            raise InputError(f"valuation has unknown letter {p!r} (known: p followed by digits)")
    lists = {p: distinct((vertex_id(x) for x in json_array(xs, f"valuation of {p!r}")),
                         "vertex", f"valuation of {p!r}")
             for p, xs in val.items()}
    return frame, {p: frame.check_vertices(lists[p]) for p in sorted(lists)}


def load_frame(path: str) -> Frame:
    """The frame in a frame file, or in a model file, whose valuation is checked by read_model."""
    return read_model(path)[0]


def frame_to_dot(frame: Frame) -> str:
    lines = ['digraph "frame" {']
    for v in frame.vertices:
        lines.append(f"  {json.dumps(v)};")
    for a, b in frame.sorted_edges():
        lines.append(f"  {json.dumps(a)} -> {json.dumps(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
