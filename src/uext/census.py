"""Finitely-presented infinite frames and what can be decided about their
ultrafilter extensions at desk scale: hull-type censuses, extension skeletons,
and the verdict detectors (reflexive points, generated substructure,
modal-logic coincidence).

A presentation is a finite base, omega-multiplicity component templates,
periodic rays/lines, and an optional builtin generator.  "Infinitely realized"
is always computed, never assumed: templates carry declared omega
multiplicity, a ray's copies from n on share one omega type at depth n (a seam
edge moves one copy per step, so they see no end of the ray), and generators
only ever yield lower bounds.

Every renamed copy a presentation needs (template copies, ray unrollings, the
period-doubled ray quotient, skeleton representatives) is built by `_copies`,
and every presented frame (an expansion, a skeleton) by `_join`, which places
disjoint parts' successor rows side by side.  A builtin generator's components
overlap, so each builtin declares their union in closed form.  A hull is its
host's rows in BFS order (`uext.hulls`).  A census certifies each hull shape it
meets once: its memo is keyed by the hull's rows renumbered root first
(`RootedGraph.shape`), so isomorphic copies share one certificate, and the
first hull met with each certificate is its representative.  A representative's
load-order subframe is built only where it is printed (`census_to_dict`) or
placed in a skeleton.  `detect modal` reads the census and the expansion at the
skeleton's default budget, and builds no representative.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import InputError, ResourceError
from .frame import (FRAME_FIELDS, Frame, bits, distinct, frame_from_dict, frame_to_dict, json_array,
                    json_pair, known_fields, read_json)
from .hulls import RootedGraph, canonical_form, hull, rings

OMEGA = "w"
CLASH = "vertex ids collide across family parts"  # the line refusing an id that two parts share
GENERATOR_BUDGET = 16  # generator components in the expansion a census's lower bounds and a colouring read


# ---------------------------------------------------------------------------
# Presentations


class Ray(NamedTuple("Ray", [("period", Frame), ("seam", tuple), ("kind", str)])):
    """A periodic one-way ('ray') or two-way ('line') infinite graph.

    Copies of the period are indexed by naturals (ray) or integers (line);
    each seam edge (u, v) runs from u in copy k to v in copy k+1.
    """

    __slots__ = ()

    def __new__(cls, period: Frame, seam: tuple[tuple[str, str], ...], kind: str):
        if kind not in ("ray", "line"):
            raise InputError(f"ray kind must be 'ray' or 'line', got {kind!r}")
        for a, b in seam:
            period.check_vertices([a, b])
        return super().__new__(cls, period, seam, kind)


# builtin name -> (component i's vertex names, the union of components 0..count-1 as its vertex
# names in first-seen order and its successor rows, degree bound, chromatic number, out-degree
# witness).  A None bound or chromatic number is unbounded; an unbounded chromatic number is shown
# by component i, whose vertices form an (i + 1)-clique in the union of components 0..i.  The
# witness is a vertex whose out-degree grows without bound, None when every out-degree is finite.
GENERATORS = {
    # disjoint finite chains; component i is K_{i+1}, each point below every later one, and it
    # follows the i(i+1)/2 points of the components before it
    "chains_lt": (lambda i: tuple(f"c{i}:{j}" for j in range(i + 1)),
                  lambda count: (tuple(f"c{i}:{j}" for i in range(count) for j in range(i + 1)),
                                 [((2 << i) - (2 << j)) << i * (i + 1) // 2
                                  for i in range(count) for j in range(i + 1)]),
                  None, None, None),
    # the order on the naturals; component i puts every smaller natural below i: a strict chain
    "nat_lt": (lambda i: tuple(map(str, range(i + 1))),
               lambda count: (tuple(map(str, range(count))), [(1 << count) - (2 << j) for j in range(count)]),
               None, None, "0"),
    # the successor steps; component i is the step into i: a path
    "nat_succ": (lambda i: (str(i - 1), str(i)) if i else ("0",),
                 lambda count: (tuple(map(str, range(count))),
                                [(2 << j) & ((1 << count) - 1) for j in range(count)]),
                 2, 2, None),
}


class Generator(NamedTuple("Generator", [("name", str)])):
    __slots__ = ()

    def __new__(cls, name: str):
        if name not in GENERATORS:
            raise InputError(f"unknown generator builtin {name!r}")
        return super().__new__(cls, name)

    @property
    def degree_bound(self) -> int | None:
        return GENERATORS[self.name][2]

    @property
    def chromatic_number(self) -> int | None:
        return GENERATORS[self.name][3]

    @property
    def out_degree_witness(self) -> str | None:
        return GENERATORS[self.name][4]

    def vertices(self, i: int) -> tuple[str, ...]:
        """Component i's vertex names, in load order, without building its edges."""
        return GENERATORS[self.name][0](i)

    def expansion(self, count: int) -> Frame:
        """The union of components 0..count-1 (they may overlap), as GENERATORS declares it."""
        return Frame.from_rows(*GENERATORS[self.name][1](count))


class FamilyPresentation(NamedTuple):
    base: Frame = Frame.from_rows((), ())
    omega_templates: tuple[Frame, ...] = ()
    rays: tuple[Ray, ...] = ()
    generator: Generator | None = None

    @property
    def is_finite(self) -> bool:
        return not self.omega_templates and not self.rays and self.generator is None


def family_from_dict(doc: dict) -> FamilyPresentation:
    """Build a presentation from its JSON document; every field is optional, none unknown."""
    if not isinstance(doc, dict):
        raise InputError("family document must be a JSON object")
    known_fields(doc, ("base", "omega_templates", "rays", "generator"), "family document")
    base = frame_from_dict(doc["base"], FRAME_FIELDS) if "base" in doc else Frame.from_rows((), ())
    templates = json_array(doc.get("omega_templates", []), '"omega_templates"')
    templates = tuple(frame_from_dict(t, FRAME_FIELDS) for t in templates)
    rays = tuple(_ray_from_dict(r) for r in json_array(doc.get("rays", []), '"rays"'))
    gen = None
    if "generator" in doc:
        spec = doc["generator"]
        if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
            raise InputError('"generator" must be an object with a "name" string')
        known_fields(spec, ("name",), '"generator"')
        gen = Generator(spec["name"])
    return FamilyPresentation(base, templates, rays, gen)


def _ray_from_dict(doc) -> Ray:
    if not isinstance(doc, dict) or "period" not in doc:
        raise InputError('ray entry must be an object with a "period" frame')
    known_fields(doc, ("period", "seam", "kind"), "ray entry")
    period = frame_from_dict(doc["period"], FRAME_FIELDS)
    pairs = json_array(doc.get("seam", []), '"seam"')
    seam = tuple(distinct((json_pair(pair, "seam") for pair in pairs), "seam"))
    return Ray(period, seam, doc.get("kind", "ray"))


def load_family(path: str) -> FamilyPresentation:
    return family_from_dict(read_json(path, "family"))


# ---------------------------------------------------------------------------
# Expansion


def _join(parts: list[Frame], clash: str) -> Frame:
    """The parts side by side: their vertices in order, each part's rows shifted past the parts
    before it.  An id two parts share is refused with the clash line, naming the least id that
    the first part repeating one shares with the parts before it."""
    seen: set[str] = set()
    for p in parts:
        if not seen.isdisjoint(p.vertices):
            raise InputError(f"{clash}: {min(seen.intersection(p.vertices))!r}")
        seen.update(p.vertices)
    rows, start = [], 0
    for p in parts:
        rows += [row << start for row in p.succ_mask]
        start += len(p.vertices)
    return Frame.from_rows(tuple(v for p in parts for v in p.vertices), rows)


def _copies(frame: Frame, copies, name, seam=(), nxt=None) -> Frame:
    """Copies of frame, vertex v of copy k renamed name(k, v), copy by copy; each
    seam edge (a, b) runs from a in copy k to b in copy nxt(k) where that copy exists."""
    m = len(frame.vertices)
    offset = {k: c * m for c, k in enumerate(copies)}  # each copy's first position
    rows = [row << start for start in offset.values() for row in frame.succ_mask]
    for a, b in seam:
        i, j = frame.index[a], frame.index[b]
        for k, start in offset.items():
            if nxt(k) in offset:
                rows[start + i] |= 1 << offset[nxt(k)] + j
    return Frame.from_rows(tuple(name(k, v) for k in copies for v in frame.vertices), rows)


def _ray_unroll(ray: Ray, copies: range, tag: str) -> Frame:
    return _copies(ray.period, copies, lambda k, v: f"{tag}.{k}:{v}", ray.seam, lambda k: k + 1)


def expand(fam: FamilyPresentation, budget: int) -> Frame:
    """Deterministic finite truncation of the presented family."""
    if budget < 0:
        raise InputError("budget must be nonnegative")
    parts = [fam.base]
    for ti, tpl in enumerate(fam.omega_templates):
        parts.append(_copies(tpl, range(budget), lambda k, v: f"t{ti}.{k}:{v}"))
    for ri, ray in enumerate(fam.rays):
        copies = range(budget) if ray.kind == "ray" else range(-budget, budget + 1)
        parts.append(_ray_unroll(ray, copies, f"r{ri}"))
    frame = _join(parts, CLASH)
    if fam.generator is not None:
        # the generator's components may overlap each other, which its declared expansion
        # resolves, but must stay clear of the rest of the family
        gen = fam.generator.expansion(budget)
        frame = _join([frame, gen], "generator vertex ids collide with family parts")
    return frame


# ---------------------------------------------------------------------------
# Hull census


class HullCensus:
    """The multiplicity of each depth-n hull type, keyed by certificate hex, with the first hull met
    of each type.  Censuses compare by value, their memo of certificates aside, and are not hashable."""

    # the memo of certificates comes last: it is neither compared nor printed
    __slots__ = ("depth", "entries", "representatives", "exact", "unbounded_suspected", "certificates")

    def __init__(self, depth: int, entries: dict[str, object] | None = None,
                 representatives: dict[str, RootedGraph] | None = None, exact: bool = True,
                 unbounded_suspected: set[str] | None = None):
        self.depth, self.exact = depth, exact
        self.entries = {} if entries is None else entries  # cert hex -> int | "w"
        self.representatives = {} if representatives is None else representatives
        self.unbounded_suspected = set() if unbounded_suspected is None else unbounded_suspected
        self.certificates: dict[tuple[int, ...], str] = {}  # each hull shape is certified once: shape -> cert hex

    def __eq__(self, other) -> bool:
        if not isinstance(other, HullCensus):
            return NotImplemented
        fields = self.__slots__[:-1]
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        return f"HullCensus({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__[:-1])})"

    def certify(self, h: RootedGraph) -> str:
        cert = self.certificates.get(h.shape)
        if cert is None:
            cert = self.certificates[h.shape] = canonical_form(h).hex
        return cert

    def add(self, h: RootedGraph, count) -> None:
        cert = self.certify(h)
        self.representatives.setdefault(cert, h)
        prev = self.entries.get(cert, 0)
        self.entries[cert] = OMEGA if OMEGA in (count, prev) else prev + count

    def omega_types(self) -> list[str]:
        return sorted(c for c, m in self.entries.items() if m == OMEGA)


def hull_census(fam: FamilyPresentation, n: int) -> HullCensus:
    """Multiplicity map over depth-n rooted hull types of the presented family."""
    if n < 0:
        raise InputError("census depth must be nonnegative")
    if fam.generator is not None and fam.generator.degree_bound is None:
        raise ResourceError(f"census requires bounded degree, and generator {fam.generator.name!r} "
                            "has unbounded degree: its census would be infinite")
    census = HullCensus(depth=n)
    parts = [(fam.base, fam.base.vertices, 1), *((tpl, tpl.vertices, OMEGA) for tpl in fam.omega_templates)]
    for ri, ray in enumerate(fam.rays):
        # a seam edge moves one copy per step, so the depth-n hull of a ray's copy k spans
        # copies k-n..k+n and sees no end of the ray from k = n on: copies 0..n-1 count once
        # each and copy n stands for the rest.  Copy 0 of a line stands for all its copies.
        tag = f"r{ri}"
        if ray.kind == "ray":
            window = _ray_unroll(ray, range(2 * n + 1), tag)
            copies = [(k, 1) for k in range(n)] + [(n, OMEGA)]
        else:
            window = _ray_unroll(ray, range(-n, n + 1), tag)
            copies = [(0, OMEGA)]
        parts += [(window, [f"{tag}.{k}:{v}" for v in ray.period.vertices], count) for k, count in copies]
    for frame, roots, count in parts:
        for w in roots:
            census.add(hull(frame, w, n), count)
    if fam.generator is not None:
        _census_generator(census, fam.generator, n, GENERATOR_BUDGET)
    return census


def _census_generator(census: HullCensus, gen: Generator, n: int, budget: int) -> None:
    # streaming lower bounds: a vertex is counted only once its hull has
    # settled between the budget and the margin-extended expansion
    small, large = gen.expansion(budget), gen.expansion(budget + n + 1)
    census.exact = False
    counts: Counter[str] = Counter()
    for v in small.vertices:
        h = hull(small, v, n)
        cert = census.certify(h)
        if cert == census.certify(hull(large, v, n)):
            census.add(h, 1)
            counts[cert] += 1
    # types still being produced at the frontier are suspected unbounded
    half = gen.expansion(max(1, budget // 2))
    half_counts = Counter(census.certify(hull(half, v, n)) for v in half.vertices)
    census.unbounded_suspected.update(c for c, k in counts.items() if k > half_counts[c])


# ---------------------------------------------------------------------------
# Skeleton


class UESkeleton(NamedTuple):
    frame: Frame
    provenance: dict[str, str]
    census: HullCensus
    budget: int

    __hash__ = None


def _template_diameter(fam: FamilyPresentation) -> int:
    """The largest number of undirected steps from a template vertex to one it reaches."""
    ecc = [len(rings(t, i, len(t.vertices))) - 1 for t in fam.omega_templates for i in range(len(t.vertices))]
    return max(ecc, default=0)


def default_budget(fam: FamilyPresentation, n: int) -> int:
    # ensures seam types are fully visible before representatives are matched
    return max(4 * n, 2 * _template_diameter(fam) + n, 2)


def ue_skeleton(fam: FamilyPresentation, n: int, budget: int | None = None) -> UESkeleton:
    """Expansion truncation plus one representative per omega-multiplicity type."""
    if budget is None:
        budget = default_budget(fam, n)
    census = hull_census(fam, n)
    expansion = expand(fam, budget)
    provenance = {v: "expansion" for v in expansion.vertices}
    parts = [expansion]
    for idx, cert in enumerate(census.omega_types()):
        parts.append(_copies(census.representatives[cert].graph, (idx,), lambda k, v: f"rep{k}:{v}"))
        provenance.update(dict.fromkeys(parts[-1].vertices, f"type:{cert}"))
    # a representative's name may not be an expansion vertex's
    return UESkeleton(_join(parts, CLASH), provenance, census, budget)


# ---------------------------------------------------------------------------
# Coloring and clique bounds


def _neighbours(frame: Frame) -> list[int]:
    """Each vertex's neighbours in the underlying undirected graph, loops dropped, as bitmasks."""
    return [(s | p) & ~(1 << i) for i, (s, p) in enumerate(zip(frame.succ_mask, frame.pred_mask))]


def greedy_coloring(frame: Frame) -> dict[str, int]:
    """Proper coloring on non-loop edges, <= maxdeg+1 colors, load-order greedy."""
    colors: list[int] = []
    for i, adj in enumerate(_neighbours(frame)):
        taken = {colors[j] for j in bits(adj & ((1 << i) - 1))}  # the neighbours already coloured
        colors.append(min(set(range(len(taken) + 1)) - taken))
    return dict(zip(frame.vertices, colors))


def clique_lower_bound(frame: Frame) -> tuple[int, list[str]]:
    """A greedy clique in the underlying undirected graph (chromatic lower bound)."""
    adj = _neighbours(frame)
    best: list[int] = []
    for seed in range(len(adj)):
        # take, in load order, each vertex adjacent to the whole clique so far
        clique, common = [seed], adj[seed]
        while common:
            v = (common & -common).bit_length() - 1
            clique.append(v)
            common &= adj[v]
        if len(clique) > len(best):
            best = clique
    return len(best), [frame.vertices[i] for i in best]


# ---------------------------------------------------------------------------
# Verdicts


class Verdict(NamedTuple("Verdict", [("kind", str), ("evidence", str), ("data", dict)])):
    """A detector's answer, "yes" or "no", its evidence and its data (none by default); not hashable."""

    __slots__ = ()
    __hash__ = None

    def __new__(cls, kind: str, evidence: str, data: dict | None = None):
        return super().__new__(cls, kind, evidence, {} if data is None else data)


INEQUIVALENCE_SENTENCES = ("forall x. ~R(x,x)", "exists x. R(x,x)")


def _loops(frame: Frame) -> list[str]:
    return [v for i, (v, row) in enumerate(zip(frame.vertices, frame.succ_mask)) if row >> i & 1]


def reflexive_point_in_ue(fam: FamilyPresentation, chi_threshold: int) -> Verdict:
    """Does the ultrafilter extension of the family have a reflexive point?

    A loop settles Yes via its principal ultrafilter.  A loop-free frame's
    extension has a reflexive point iff its chromatic number is infinite
    (Goldblatt, Hodkinson and Venema, BSL 2004).  Bases, templates and periodic
    rays are finitely coloured, which the colourings show; a builtin generator
    declares its chromatic number.  The threshold decides nothing: it sets the
    size, chi_threshold + 1, of the clique shown for an unbounded generator.
    """
    if chi_threshold < 0:
        raise InputError("chi threshold must be nonnegative")
    if fam.is_finite:
        loops = _loops(fam.base)
        if loops:
            return Verdict("yes", f"reflexive point {loops[0]!r} (principal ultrafilter)")
        return Verdict("no", "finite loop-free frame; its extension is isomorphic to it",
                       {"coloring": greedy_coloring(fam.base)})

    parts = list(_finite_parts(fam))
    for part_name, frame in parts:
        loops = _loops(frame)
        if loops:
            return Verdict("yes", f"reflexive point {loops[0]!r} in {part_name}")
    gen = fam.generator
    if gen is not None and gen.chromatic_number is None:
        clique = list(gen.vertices(chi_threshold))  # a clique, as GENERATORS declares
        return Verdict(
            "yes",
            f"chromatic lower bound {len(clique)} > {chi_threshold} "
            f"reached by component index {chi_threshold}",
            {"component_index": chi_threshold, "clique": clique,
             "inequivalence_sentences": INEQUIVALENCE_SENTENCES},
        )
    colorings = {part_name: greedy_coloring(frame) for part_name, frame in parts}
    if gen is not None:
        # load-order greedy over a monotone presentation is a stabilizing
        # schema: later budgets only append vertices, never recolor
        colorings["generator"] = greedy_coloring(gen.expansion(GENERATOR_BUDGET))
    used = max((len(set(c.values())) for c in colorings.values()), default=0)
    return Verdict("no", f"uniform coloring schema with <= {used} colors", {"colorings": colorings})


def _finite_parts(fam: FamilyPresentation):
    """Finite frames whose coloring schemas cover the non-generator parts."""
    if fam.base.vertices:
        yield "base", fam.base
    for ti, tpl in enumerate(fam.omega_templates):
        yield f"template {ti}", tpl
    for ri, ray in enumerate(fam.rays):
        yield f"ray {ri} (period-doubled quotient)", _ray_quotient(ray)


def _ray_quotient(ray: Ray) -> Frame:
    """Period x {even, odd} quotient; a proper coloring of it lifts periodically."""
    return _copies(ray.period, (0, 1), lambda p, v: f"{v}@{p}", ray.seam, lambda p: 1 - p)


def generated_substructure_verdict(fam: FamilyPresentation) -> Verdict:
    """Is the family a generated substructure of its ultrafilter extension?

    Yes exactly when every vertex has finite out-degree.  Bases, templates and
    rays have it; a builtin generator declares a vertex whose out-degree grows
    without bound, or none, and the No evidence is that vertex's out-degree
    across expansions.
    """
    witness = None if fam.generator is None else fam.generator.out_degree_witness
    if witness is None:
        return Verdict("yes", "presentation guarantees finite out-degree everywhere")
    degrees = {}
    for b in (4, 8, 16, 32):
        expansion = fam.generator.expansion(b)
        degrees[b] = expansion.succ_mask[expansion.position(witness)].bit_count()
    return Verdict("no", f"out-degree of vertex {witness!r} grows without bound",
                   {"witness": witness, "degrees": degrees})


def modal_logic_coincides(fam: FamilyPresentation, n: int) -> tuple[bool, dict]:
    """Check every omega-type of the depth-n census is realized in the expansion at the
    default budget.

    Rooted hull isomorphism implies n-bisimilarity of the roots, which is what
    equality of the modal logics needs at depth n.  An unmatched type would
    falsify the census, so a False return is a defect detector.  A generator's
    census gives lower bounds with no omega types, so a family with one is
    refused, as over a limit, rather than answered with nothing checked; bad
    input is refused first, by the census and the expansion.
    """
    budget = default_budget(fam, n)
    census = hull_census(fam, n)
    expansion = expand(fam, budget)
    if fam.generator is not None:
        raise ResourceError(f"modal coincidence is read off a census's omega types, and the census of "
                            f"generator {fam.generator.name!r} gives only lower bounds, with no omega type")
    omegas = census.omega_types()
    first: dict[str, str] = {}  # each hull type's first expansion vertex in load order
    for v in expansion.vertices:
        if all(cert in first for cert in omegas):
            break  # only the first vertex of each omega-type is reported
        first.setdefault(census.certify(hull(expansion, v, n)), v)
    matches = {cert: first[cert] for cert in omegas if cert in first}
    unmatched = [cert for cert in omegas if cert not in first]
    return not unmatched, {"depth": n, "budget": budget, "matches": matches, "unmatched": unmatched}


# ---------------------------------------------------------------------------
# Serialization helpers


def census_to_dict(census: HullCensus) -> dict:
    types = {}
    for cert in sorted(census.entries):
        rep = census.representatives[cert]
        types[cert] = {
            "multiplicity": census.entries[cert],
            "representative": {**frame_to_dict(rep.graph), "root": rep.root},
            "unbounded_suspected": cert in census.unbounded_suspected,
        }
    return {"depth": census.depth, "exact": census.exact, "types": types}
