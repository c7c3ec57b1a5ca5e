"""The string-set frame reader that `uext.frame.frame_from_dict` replaced, kept as its oracle.

It reads a frame document the slow way: every vertex id and edge as strings,
the edges into a set of pairs, then a second pass over that set for the
endpoints.  It refuses the first fault in the order the one-pass reader keeps:
the document's shape and vertex ids, then within the edges in document order
a malformed entry or a repeated edge, then a repeated vertex, then an
endpoint outside the vertex set.  The last check runs in document order here;
the string-set reader it was took the edges in set order, so a document with
several stray endpoints could be refused naming any of them.  The module
imports nothing from uext.
"""

import json


class Refused(Exception):
    """The reader's one error line."""


def vertex_id(value) -> str:
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise Refused(f"vertex id {json.dumps(value)} is not a string or an integer")


def read(doc, fields=("vertices", "edges")) -> tuple[tuple[str, ...], frozenset]:
    """The vertices and edge set of a frame document; a fault raises Refused with its line."""
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise Refused('frame document must have "vertices" and "edges" fields')
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise Refused(f"frame document has unknown field {unknown[0]!r} (known: {', '.join(fields)})")
    if not isinstance(doc["vertices"], list):
        raise Refused('"vertices" must be a JSON array')
    vertices = tuple(vertex_id(v) for v in doc["vertices"])
    if not isinstance(doc["edges"], list):
        raise Refused('"edges" must be a JSON array')
    edges: dict = {}
    for entry in doc["edges"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise Refused(f"edge entry {entry!r} is not a [from, to] pair")
        pair = vertex_id(entry[0]), vertex_id(entry[1])
        if pair in edges:
            raise Refused(f"duplicate edge {list(pair)!r} in input")
        edges[pair] = None
    seen: set = set()
    for v in vertices:
        if v in seen:
            raise Refused(f"duplicate vertex id {v!r}")
        seen.add(v)
    for a, b in edges:
        if a not in seen or b not in seen:
            raise Refused(f"edge ({a!r}, {b!r}) has an endpoint outside the vertex set")
    return vertices, frozenset(edges)
