"""Slow reference for simple roads between two vertices.

`roads` is the recursive search by vertex names: each step scans every
vertex for an unvisited successor or predecessor of the last waypoint.  The
module imports nothing from uext, so it stays independent of the mask-based
search it checks.  It recurses once per step, so it only suits short roads.
"""


def roads(vertices, edges, s, t, max_len):
    """Every simple road from s to t of length 1..max_len as (waypoints, directions),
    sorted by waypoint load order, then by directions with "R" before "R-"."""
    out = []

    def extend(path, dirs):
        last = path[-1]
        if last == t:
            if dirs:
                out.append((tuple(path), tuple(dirs)))
            return
        if len(dirs) >= max_len:
            return
        for nxt in vertices:
            if nxt in path:
                continue
            if (last, nxt) in edges:
                extend(path + [nxt], dirs + ["R"])
            if (nxt, last) in edges:
                extend(path + [nxt], dirs + ["R-"])

    extend([s], [])
    index = {v: i for i, v in enumerate(vertices)}
    out.sort(key=lambda r: ([index[w] for w in r[0]], [d == "R-" for d in r[1]]))
    return out
