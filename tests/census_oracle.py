"""Three slow paths kept as oracles: the stabilisation scan that counted a ray's hull types,
the first-seen union by names that built expansions and skeletons, and the skeleton walk
that checked modal-logic coincidence.

A ray's copies 0..n are hulled in an unrolling of 2n + 3 copies and certified row
by row.  The first copy from which every row equals copy n's stands for every
later copy (omega), and each copy before it counts once.  A line's copy 0, hulled
in copies -n-1..n+1, stands for all its copies.  Base vertices count once and
template vertices omega.  `uext.census.hull_census` counts a ray's copies 0..n-1
once and copy n as omega with no scan, so its document must equal the one read
off the scan here.

The scan takes families without a generator only.  Uses uext for `Frame`, `hull`
and `canonical_form`, which tests/test_hull_symmetry.py checks against networkx.

`expansion` and `skeleton` build `uext.census.expand(fam, budget)` and
`ue_skeleton(fam, n).frame` from vertex names: each part is a list of names and
a set of name pairs, a builtin generator is the union of its components
(`evidence_oracle.builtin_union`), and `union` lists the parts' names in
first-seen order and unions their edges.  uext places the parts' rows side by
side, so the two must agree on the vertex order and the edges.  An id two parts
share raises ValueError with the line uext refuses it with.

`modal_logic_coincides` builds the whole skeleton, representatives and provenance
included, and walks its expansion vertices in load order, hulling each in the
skeleton's frame.  `uext.census.modal_logic_coincides` hulls the expansion alone
and builds no representative, so its answer and report, or its refusal, must
equal this one's on families whose ids do not collide with a representative's.
"""

from __future__ import annotations

from evidence_oracle import builtin_union
from uext import Frame, ResourceError, canonical_form, hull, ue_skeleton

OMEGA = "w"
CLASH = "vertex ids collide across family parts"


def _names(frame, copies, tag: str, seam=()) -> tuple[list[str], set[tuple[str, str]]]:
    """Copies of a frame, v in copy k named tag.k:v, each seam edge joining copy k to k + 1."""
    name = "{}.{}:{}".format
    verts = [name(tag, k, v) for k in copies for v in frame.vertices]
    edges = {(name(tag, k, a), name(tag, k, b)) for k in copies for a, b in frame.edges}
    edges |= {(name(tag, k, a), name(tag, k + 1, b)) for k in copies if k + 1 in copies for a, b in seam}
    return verts, edges


def _unroll(ray, copies: range, tag: str) -> Frame:
    return Frame(*_names(ray.period, copies, tag, ray.seam))


def union(parts, clash: str):
    """The parts' names in first-seen order and the union of their edges; an id that a part
    shares with the parts before it raises ValueError naming the least one, in the first such part."""
    verts: dict[str, None] = {}
    edges: set[tuple[str, str]] = set()
    for pv, pe in parts:
        shared = sorted(set(verts) & set(pv))
        if shared:
            raise ValueError(f"{clash}: {shared[0]!r}")
        verts.update(dict.fromkeys(pv))
        edges |= set(pe)
    return list(verts), edges


def expansion(fam, budget: int):
    """The base, budget copies of each template, each ray's copies 0..budget-1 (a line's
    -budget..budget), then the generator's first budget components."""
    parts = [(fam.base.vertices, fam.base.edges)]
    parts += [_names(tpl, range(budget), f"t{ti}") for ti, tpl in enumerate(fam.omega_templates)]
    for ri, ray in enumerate(fam.rays):
        copies = range(budget) if ray.kind == "ray" else range(-budget, budget + 1)
        parts.append(_names(ray.period, copies, f"r{ri}", ray.seam))
    frame = union(parts, CLASH)
    if fam.generator is not None:
        gen = builtin_union(fam.generator.name, budget)
        frame = union([frame, gen], "generator vertex ids collide with family parts")
    return frame


def skeleton(fam, census, budget: int):
    """The expansion, then each omega type's representative in the census, in certificate
    order, v of the i-th named repi:v."""
    omegas = sorted(cert for cert, m in census.entries.items() if m == OMEGA)
    parts = [expansion(fam, budget)]
    for i, cert in enumerate(omegas):
        g = census.representatives[cert].graph
        parts.append(([f"rep{i}:{v}" for v in g.vertices], {(f"rep{i}:{a}", f"rep{i}:{b}") for a, b in g.edges}))
    return union(parts, CLASH)


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


def modal_logic_coincides(fam, n: int) -> tuple[bool, dict]:
    """Each omega type of the depth-n skeleton's census matched to the first expansion vertex of
    its type, hulled in the skeleton; a generator family is refused after the skeleton is built."""
    sk = ue_skeleton(fam, n)
    if fam.generator is not None:
        raise ResourceError(f"modal coincidence is read off a census's omega types, and the census of "
                            f"generator {fam.generator.name!r} gives only lower bounds, with no omega type")
    omegas = sk.census.omega_types()
    first: dict[str, str] = {}
    for v, origin in sk.provenance.items():
        if all(cert in first for cert in omegas):
            break
        if origin == "expansion":
            first.setdefault(sk.census.certify(hull(sk.frame, v, n)), v)
    matches = {cert: first[cert] for cert in omegas if cert in first}
    unmatched = [cert for cert in omegas if cert not in first]
    return not unmatched, {"depth": n, "budget": sk.budget, "matches": matches, "unmatched": unmatched}
