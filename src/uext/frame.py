"""Finite directed graphs and the powerset operations everything else builds on.

Vertex ids are strings only at the I/O boundary: loaders, JSON and DOT output,
and the names in witnesses.  Below it a vertex is its index in the vertex
tuple (the load order) and a set of vertices is an int bitmask whose bit i is
vertices[i].  A frame is its successor rows, succ_mask: the reader writes them
in its one pass over a document, and every frame uext derives (a subframe, a
copy, a union, an extension) is built from rows by `Frame.from_rows`, never
from pairs of names and never checked twice.  The predecessor rows pred_mask
and the edge set of name pairs are derived from the rows when first read.
Every relation image and every test of the lifted relation folds rows over a
mask through `any_of` (a union) or `all_of` (an intersection): R+(X) is the
union of X's successor rows.  Hull colours and bisimulation types are both
refined by `refine`.  Every set-valued result is reported in load order, so
outputs are deterministic and diff-stable.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

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


class Frozen:
    """A class whose instances refuse attribute assignment and deletion; each fills its own
    fields through ``object.__setattr__`` or its ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Frame(Frozen):
    """A finite directed graph ``<W, R>`` with ordered, uniquely named vertices, held as its
    successor rows: bit j of succ_mask[i] is set iff vertices[i] R vertices[j].

    ``Frame(vertices, edges)`` is the public way in: it checks its edges in sorted order by the
    reader's one pass, `_rows`, so the faults it names are the reader's.  A frame uext derives
    itself (a hull, a copy, a union, an extension, an ultraproduct) is built by ``Frame.from_rows``
    from rows, and checked no second time.  The edge set of name pairs, the name index and the
    predecessor rows are derived from the rows when first read.  Frames are immutable and
    hashable, and two are equal exactly when their vertices and edges are.
    """

    vertices: tuple[str, ...]
    succ_mask: tuple[int, ...]  # successor sets as int bitmasks over load order (bit i is vertices[i])

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        vertices = tuple(vertices)
        # sorted, so the stray edge named is the least: an edge set has no order that could name the first
        self.__dict__.update(vertices=vertices, succ_mask=_rows(vertices, sorted(set(edges))))

    @classmethod
    def from_rows(cls, vertices: tuple[str, ...], succ) -> Frame:
        """The frame whose vertex i has the successor row succ[i], trusted: the ids are distinct
        and every row lies within len(vertices) bits."""
        frame = object.__new__(cls)
        frame.__dict__.update(vertices=vertices, succ_mask=tuple(succ))
        return frame

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self is other or (self.vertices == other.vertices and self.succ_mask == other.succ_mask)

    def __hash__(self) -> int:
        return hash((self.vertices, self.succ_mask))

    def __repr__(self) -> str:
        return f"Frame(vertices={self.vertices!r}, edges={self.sorted_edges()!r})"

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as (from, to) pairs of vertex ids."""
        verts = self.vertices
        return frozenset((verts[i], verts[j]) for i, row in enumerate(self.succ_mask) for j in bits(row))

    @cached_property
    def index(self) -> dict[str, int]:
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def pred_mask(self) -> tuple[int, ...]:
        """Predecessor sets as int bitmasks over load order: the successor rows transposed."""
        return transpose(self.succ_mask)

    def image(self, x: int, forward: bool) -> int:
        """R+(X) if forward, else R-(X), for the bitmask x: the union of x's successor (predecessor) rows."""
        return any_of((self.succ_mask if forward else self.pred_mask).__getitem__, x)

    def has_edge(self, a: str, b: str) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and bool(self.succ_mask[i] >> j & 1)

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

    def sorted_edges(self) -> list[Edge]:
        """The edges, in load order."""
        verts = self.vertices
        return [(verts[i], verts[j]) for i, row in enumerate(self.succ_mask) for j in bits(row)]

    def restrict(self, mask: int) -> Frame:
        """The subframe induced by a bitmask, its vertices in load order."""
        keep = list(bits(mask & (1 << len(self.vertices)) - 1))
        place = [0] * len(self.vertices)  # each kept vertex's bit in the subframe
        for k, i in enumerate(keep):
            place[i] = 1 << k
        succ = self.succ_mask
        return Frame.from_rows(tuple(self.vertices[i] for i in keep),
                               [relabel(succ[i] & mask, place) for i in keep])


def relabel(row: int, place) -> int:
    """The row with each set bit j moved to the bitmask place[j]."""
    out = 0
    while row:
        low = row & -row
        out |= place[low.bit_length() - 1]
        row ^= low
    return out


def transpose(rows) -> tuple[int, ...]:
    """The rows of the converse relation: bit i of row j is set iff bit j of rows[i] is."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(out)


def _first_repeat(items):
    """The first item equal to an earlier one."""
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)


class DegreeReport(NamedTuple):
    deg_plus: int
    deg_minus: int

    @property
    def deg(self) -> int:
        return self.deg_plus + self.deg_minus


class Boundedness(NamedTuple):
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
    return Frame.from_rows(frame.vertices, frame.pred_mask)


def induced_subframe(frame: Frame, xs: Iterable[str]) -> Frame:
    return frame.restrict(frame.mask(xs))


FRAME_FIELDS = ("vertices", "edges")  # a frame document's fields
MODEL_FIELDS = FRAME_FIELDS + ("valuation",)  # a model file's: a frame and the valuation on it


def frame_from_dict(doc: dict, fields: tuple[str, ...] = FRAME_FIELDS) -> Frame:
    """Build a Frame from the JSON document shape {"vertices": [...], "edges": [[a,b],...]}.

    The document may have only the given fields: a model file's reader lets
    its "valuation" ride along, to check it itself.  Any other field is
    rejected by name.  One pass over the edges checks each and sets its bit
    in the successor rows.  The first fault is reported in this order: the
    document's shape and ids, then within the edges in document order a
    malformed entry or a repeated edge, then a repeated vertex, then the
    first edge with an endpoint outside the vertex set.
    """
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise InputError('frame document must have "vertices" and "edges" fields')
    known_fields(doc, fields, "frame document")
    vertices = tuple(vertex_id(v) for v in json_array(doc["vertices"], '"vertices"'))
    pairs = (entry if type(entry) is list and len(entry) == 2 and type(entry[0]) is str and type(entry[1]) is str
             else json_pair(entry, "edge") for entry in json_array(doc["edges"], '"edges"'))
    return Frame.from_rows(vertices, _rows(vertices, pairs))


def _rows(vertices: tuple[str, ...], pairs: Iterable[Edge]) -> tuple[int, ...]:
    """The successor rows of the edges in pairs over vertices, checked in one pass over pairs in
    their order.  The first fault is reported in this order: within the pairs, a malformed one (the
    iterable raises as it is read) or a repeated edge, then a repeated vertex, then the first edge
    with an endpoint outside the vertex set."""
    index = dict(zip(vertices, range(len(vertices))))  # a repeated id keeps one position
    rows = [0] * len(vertices)
    outside: dict[Edge, None] = {}  # the edges with an endpoint outside the vertex set, in order
    for a, b in pairs:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            seen = (a, b) in outside
            outside[a, b] = None
        else:
            seen = rows[i] >> j & 1
            rows[i] |= 1 << j
        if seen:
            raise InputError(f"duplicate edge {[a, b]!r} in input")
    if len(index) < len(vertices):
        raise InputError(f"duplicate vertex id {_first_repeat(vertices)!r}")
    if outside:
        a, b = next(iter(outside))
        raise InputError(f"edge ({a!r}, {b!r}) has an endpoint outside the vertex set")
    return tuple(rows)


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


def read_model(path: str) -> tuple[Frame, dict[str, int]]:
    """The frame in a model file, or a frame file, and each letter's bitmask in sorted letter order
    (none without a valuation).  The valuation is checked once: letters to distinct vertices."""
    doc = read_json(path, "frame")
    frame = frame_from_dict(doc, MODEL_FIELDS)
    val = doc.get("valuation", {})
    if not isinstance(val, dict):
        raise InputError("valuation must be an object mapping letters to vertex lists")
    for p in val:
        if not LETTER.fullmatch(p):
            raise InputError(f"valuation has unknown letter {p!r} (known: p followed by digits)")
    lists = {p: distinct((vertex_id(x) for x in json_array(xs, f"valuation of {p!r}")),
                         "vertex", f"valuation of {p!r}")
             for p, xs in val.items()}
    return frame, {p: frame.mask(lists[p]) for p in sorted(lists)}


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
