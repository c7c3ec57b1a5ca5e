"""The stabilisation scan that counted a ray's hull types, kept as the census's oracle.

A ray's copies 0..n are hulled in an unrolling of 2n + 3 copies and certified row
by row.  The first copy from which every row equals copy n's stands for every
later copy (omega), and each copy before it counts once.  A line's copy 0, hulled
in copies -n-1..n+1, stands for all its copies.  Base vertices count once and
template vertices omega.  `uext.census.hull_census` counts a ray's copies 0..n-1
once and copy n as omega with no scan, so its document must equal the one read
off the scan here.

Families without a generator only.  Uses uext for `Frame`, `hull` and
`canonical_form`, which tests/test_hull_symmetry.py checks against networkx.
"""

from __future__ import annotations

from uext import Frame, canonical_form, hull

OMEGA = "w"


def _unroll(ray, copies: range, tag: str) -> Frame:
    """Copies of the period, v in copy k named tag.k:v, each seam edge joining copy k to k + 1."""
    name = "{}.{}:{}".format
    verts = tuple(name(tag, k, v) for k in copies for v in ray.period.vertices)
    edges = {(name(tag, k, a), name(tag, k, b)) for k in copies for a, b in ray.period.edges}
    edges |= {(name(tag, k, a), name(tag, k + 1, b)) for k in copies if k + 1 in copies for a, b in ray.seam}
    return Frame(verts, frozenset(edges))


def census_doc(fam, n: int) -> dict:
    """The census document ({"depth", "exact", "types"}) of a generator-free family at depth n."""
    certs: dict = {}

    def cert(h) -> str:
        if h not in certs:
            certs[h] = canonical_form(h).hex
        return certs[h]

    counted = []  # (hull, multiplicity) in the order the census meets them
    for frame, count in [(fam.base, 1), *((tpl, OMEGA) for tpl in fam.omega_templates)]:
        counted += [(hull(frame, w, n), count) for w in frame.vertices]
    for ri, ray in enumerate(fam.rays):
        tag = f"r{ri}"
        if ray.kind == "line":
            window = _unroll(ray, range(-n - 1, n + 2), tag)
            counted += [(hull(window, f"{tag}.0:{v}", n), OMEGA) for v in ray.period.vertices]
            continue
        window = _unroll(ray, range(2 * n + 3), tag)
        rows = [[hull(window, f"{tag}.{k}:{v}", n) for v in ray.period.vertices] for k in range(n + 1)]
        sigs = [[cert(h) for h in row] for row in rows]
        stab = next(k for k in range(n + 1) if all(sig == sigs[n] for sig in sigs[k:]))
        counted += [(h, OMEGA if k == stab else 1) for k in range(stab + 1) for h in rows[k]]

    types: dict = {}
    for h, count in counted:
        g = h.graph
        entry = types.setdefault(cert(h), {
            "multiplicity": 0,
            "representative": {"vertices": list(g.vertices), "edges": [list(e) for e in g.sorted_edges()],
                               "root": h.root},
            "unbounded_suspected": False,
        })
        m = entry["multiplicity"]
        entry["multiplicity"] = OMEGA if OMEGA in (count, m) else m + count
    return {"depth": n, "exact": True, "types": types}
