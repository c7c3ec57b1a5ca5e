"""Seeded inputs for the four workloads, each paired with its oracle check.

A workload is a fixed, ordered pass of operations.  One operation is one
``uext`` command line over files written here; its check receives the exit
code and stdout and returns None when the answer is right, else a reason.
The size classes that carry the time are fixed by the workload; the seed
picks edges, valuations and points inside them, and the shapes of the small
asymmetric families, so passes built from different seeds cost about the
same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as O


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[int, str], str | None]


class Inputs:
    """Writes generated documents to numbered files in one directory."""

    def __init__(self, workdir: Path, seed: int, workload: str):
        self.dir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.count = 0

    def write(self, doc: dict) -> str:
        self.count += 1
        path = self.dir / f"in{self.count:03d}.json"
        path.write_text(json.dumps(doc))
        return str(path)


class _Mismatch(Exception):
    pass


def _json(rc: int, out: str):
    if rc != 0:
        raise _Mismatch(f"exit code {rc}, expected 0")
    return json.loads(out)


def checked(fn):
    """Turn a check that raises _Mismatch or fails to parse into one that returns a reason."""

    def check(rc: int, out: str):
        try:
            fn(rc, out)
        except _Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None

    return check


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise _Mismatch(what)


# ---------------------------------------------------------------------------
# Frame generators


def random_frame(rng: random.Random, n: int, density: float, loops: int = 0, prefix: str = "w"):
    """n points, exactly round(density * n * (n-1)) non-loop edges, and `loops` loops."""
    verts = tuple(f"{prefix}{i}" for i in range(n))
    pairs = [(a, b) for a in verts for b in verts if a != b]
    edges = set(rng.sample(pairs, round(density * len(pairs))))
    edges |= {(v, v) for v in rng.sample(verts, loops)}
    return verts, frozenset(edges)


def regular_frame(rng, n: int, out_deg: int, loops: int = 0):
    """Every point gets out_deg random successors other than itself; `loops` points also get a loop."""
    verts = tuple(f"w{i}" for i in range(n))
    edges = {(v, t) for v in verts for t in rng.sample([u for u in verts if u != v], out_deg)}
    edges |= {(v, v) for v in rng.sample(verts, loops)}
    return verts, frozenset(edges)


def _shuffled(rng, n: int):
    verts = [f"w{i}" for i in range(n)]
    rng.shuffle(verts)
    return verts


def transitive_frame(rng, sizes):
    """A preorder: clusters of the given sizes, each cluster seeing itself and all later ones."""
    order = _shuffled(rng, sum(sizes))
    rank = {}
    for block, size in enumerate(sizes):
        for v in order[sum(sizes[:block]):sum(sizes[:block + 1])]:
            rank[v] = block
    verts = tuple(f"w{i}" for i in range(len(order)))
    return verts, frozenset((a, b) for a in verts for b in verts if rank[a] <= rank[b])


def symmetric_frame(rng, n: int, matchings: int):
    """The union of random perfect matchings on an even number of points."""
    verts = tuple(f"w{i}" for i in range(n))
    edges = set()
    for _ in range(matchings):
        order = _shuffled(rng, n)
        for a, b in zip(order[::2], order[1::2]):
            edges |= {(a, b), (b, a)}
    return verts, frozenset(edges)


def equivalence_frame(rng, sizes):
    """An equivalence relation with classes of the given sizes."""
    order = _shuffled(rng, sum(sizes))
    cls = {}
    for c, size in enumerate(sizes):
        for v in order[sum(sizes[:c]):sum(sizes[:c + 1])]:
            cls[v] = c
    verts = tuple(f"w{i}" for i in range(len(order)))
    return verts, frozenset((a, b) for a in verts for b in verts if cls[a] == cls[b])


def linear_order(m: int, prefix: str = "x"):
    verts = tuple(f"{prefix}{i}" for i in range(m))
    return verts, frozenset((verts[i], verts[j]) for i in range(m) for j in range(i + 1, m))


def break_property(rng, frame, prop: str):
    """Damage a frame that has prop so that it loses it, with the damage listed first.

    frame_valid tries valuations in binary order over the load order, so
    putting the damaged points first makes the counterexample one of the
    first few valuations whatever the seed.
    """
    verts, edges = frame
    succ = O.succ_map(frame)
    v = rng.choice(verts)
    if prop == "T":
        edges, first = edges - {(v, v)}, sorted(succ[v] - {v}) + [v]
    elif prop == "D":
        edges, first = frozenset(e for e in edges if e[0] != v), [v]
    elif prop == "B":
        b = rng.choice(sorted(succ[v] - {v}))
        edges, first = edges - {(b, v)}, [v]
    else:
        # a point a of the top cluster sees b, and b gets an edge down to c
        top = [w for w in verts if all((x, w) in edges for x in succ[w])]
        a, b = rng.sample(top, 2)
        c = rng.choice([w for w in verts if w not in succ[a]])
        edges, first = edges | {(b, c)}, sorted(succ[a])
    return tuple(first) + tuple(w for w in verts if w not in first), edges


def star(k: int):
    verts = ("c",) + tuple(f"l{i}" for i in range(k))
    return verts, frozenset(("c", f"l{i}") for i in range(k))


def kmm_root(m: int):
    a = [f"a{i}" for i in range(m)]
    b = [f"b{i}" for i in range(m)]
    return tuple(["r"] + a + b), frozenset([("r", x) for x in a] + [(x, y) for x in a for y in b])


def clique(k: int, prefix: str = "k"):
    verts = tuple(f"{prefix}{i}" for i in range(k))
    return verts, frozenset((a, b) for a in verts for b in verts if a != b)


def random_connected(rng, n: int, extra: int, prefix: str):
    """A random weakly connected loop-free digraph: a random tree plus extra edges."""
    verts = tuple(f"{prefix}{i}" for i in range(n))
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((verts[i], verts[j]) if rng.random() < 0.5 else (verts[j], verts[i]))
    pairs = [(a, b) for a in verts for b in verts if a != b and (a, b) not in edges]
    edges |= set(rng.sample(pairs, min(extra, len(pairs))))
    return verts, frozenset(edges)


def random_ray(rng, size: int, kind: str, loop: bool = False) -> dict:
    period = random_connected(rng, size, rng.randrange(2), "v")
    if loop:
        period = period[0], period[1] | {(period[0][0], period[0][0])}
    seam = {(rng.choice(period[0]), rng.choice(period[0])) for _ in range(rng.randint(1, 2))}
    return {"period": O.frame_doc(period), "seam": sorted(list(e) for e in seam), "kind": kind}


# ---------------------------------------------------------------------------
# Operations and their checks


def op_ue_build(path, frame) -> Op:
    @checked
    def check(rc, out):
        doc = _json(rc, out)
        _expect(doc["vertices"] == [f"pi:{v}" for v in frame[0]], "extension carrier differs")
        edges = [tuple(e) for e in doc["edges"]]
        _expect(len(edges) == len(set(edges)), "duplicate extension edge")
        _expect(set(edges) == {(f"pi:{a}", f"pi:{b}") for a, b in frame[1]},
                "extension edges differ from the frame's (a finite frame is isomorphic to its extension)")

    return Op("ue build", ["ue", "build", path], check)


def op_ue_cross_check(path) -> Op:
    @checked
    def check(rc, out):
        _expect(_json(rc, out) == {"frame": path, "modes_agree": True}, "cross-check did not agree")

    return Op("ue cross-check", ["ue", "cross-check", path], check)


# one-free-variable formulas with their direct meaning at w
LOS_FORMULAS = [
    ("exists y. R(x,y)", lambda s, w: bool(s[w])),
    ("R(x,x)", lambda s, w: w in s[w]),
    ("exists y. (R(x,y) & R(y,x))", lambda s, w: any(w in s[y] for y in s[w])),
    ("forall y. (R(x,y) -> exists z. R(y,z))", lambda s, w: all(s[y] for y in s[w])),
]


def op_los_like(path, frame, which: int, at: str) -> Op:
    text, meaning = LOS_FORMULAS[which]
    truth = meaning(O.succ_map(frame), at)

    @checked
    def check(rc, out):
        _expect(_json(rc, out) == {"agrees": True, "extension_side": truth, "membership_side": truth},
                f"los-like should agree on {truth}")

    return Op("fo los-like", ["fo", "los-like", path, text, "--at", at], check)


AXIOMS = {
    "T": (("imp", ("box", ("p", "p0")), ("p", "p0")), O.is_reflexive),
    "4": (("imp", ("box", ("p", "p0")), ("box", ("box", ("p", "p0")))), O.is_transitive),
    "B": (("imp", ("p", "p0"), ("box", ("dia", ("p", "p0")))), O.is_symmetric),
    "D": (("imp", ("box", ("p", "p0")), ("dia", ("p", "p0"))), O.is_serial),
}


def op_modal_valid(path, frame, axiom: str) -> Op:
    formula, prop = AXIOMS[axiom]
    valid = prop(frame)

    @checked
    def check(rc, out):
        doc = _json(rc, out)
        _expect(doc["valid"] is valid, f"axiom {axiom} validity should be {valid}")
        if valid:
            _expect(set(doc) == {"valid"}, "counterexample reported for a valid axiom")
            return
        world = doc["counter_world"]
        val = {p: set(xs) for p, xs in doc["counter_valuation"].items()}
        _expect(world in frame[0], "counter_world is not a point of the frame")
        _expect(world not in O.truth_set(frame, val, formula), "counterexample does not refute the axiom")

    return Op("modal valid", ["modal", "valid", path, O.modal_text(formula)], check)


def op_modal_eval(path, frame, val, formula, at) -> Op:
    truth = at in O.truth_set(frame, val, formula)

    @checked
    def check(rc, out):
        _expect(_json(rc, out) == {"holds": truth}, f"truth at {at} should be {truth}")

    return Op("modal eval", ["modal", "eval", path, O.modal_text(formula), "--at", at], check)


def op_bisim(p1, m1, w1, p2, m2, w2, depth) -> Op:
    truth = O.bisimilar_upto(m1, w1, m2, w2, depth)

    @checked
    def check(rc, out):
        _expect(_json(rc, out) == {"bisimilar": truth, "depth": depth}, f"bisimilar should be {truth}")

    return Op("bisim", ["bisim", p1, p2, "--at1", w1, "--at2", w2, "--depth", str(depth)], check)


FO_SENTENCES = {
    "transitive": ("forall x. forall y. forall z. ((R(x,y) & R(y,z)) -> R(x,z))", O.is_transitive),
    "euclidean": ("forall x. forall y. forall z. ((R(x,y) & R(x,z)) -> R(y,z))", O.is_euclidean),
    "connected": ("forall x. forall y. forall z. ((R(x,y) & R(x,z)) -> (y=z | (R(y,z) | R(z,y))))",
                  O.is_connected_right),
}


def op_fo_eval(path, frame, name: str) -> Op:
    text, prop = FO_SENTENCES[name]
    truth = prop(frame)

    @checked
    def check(rc, out):
        _expect(_json(rc, out) == {"holds": truth}, f"{name} should be {truth}")

    return Op("fo eval", ["fo", "eval", path, text], check)


def op_fo_ef(p1, m: int, p2, n: int, rounds: int) -> Op:
    k = O.ef_linear_min_rounds(m, n)
    if k is not None and k > rounds:
        k = None
    want = {"min_spoiler_rounds": k, "equivalent_up_to": rounds if k is None else k - 1}

    @checked
    def check(rc, out):
        _expect(_json(rc, out) == want, f"L_{m} vs L_{n}: expected {want}")

    return Op("fo ef", ["fo", "ef", p1, p2, "--max-rounds", str(rounds)], check)


def _census_types(census: dict, fam: dict, depth: int) -> O.IsoClasses:
    """Check a census document; return its types as rooted-isomorphism classes."""
    _expect(census["depth"] == depth, "census depth differs")
    classes = O.IsoClasses()
    for cert, entry in census["types"].items():
        rep = entry["representative"]
        frame = O.frame_of(rep)
        _expect(O.hull_of(frame, rep["root"], depth)[0] == frame[0],
                "a representative is not the depth-n hull of its root")
        g = O.rooted_digraph(frame, rep["root"])
        _expect(classes.find(g) is None, "two census types are rooted-isomorphic")
        classes.add(g, cert)
    if fam.get("generator"):
        _expect(census["exact"] is False, "a generator census cannot be exact")
        return classes
    _expect(census["exact"] is True, "a census without generator should be exact")
    expected = O.census_expectation(fam, depth)
    _expect(len(expected) == len(census["types"]), "census has the wrong number of types")
    for g, mult in expected:
        cert = classes.find(g)
        _expect(cert is not None, "a hull type of the family is missing from the census")
        _expect(census["types"][cert]["multiplicity"] == mult, "census multiplicity differs")
    return classes


def op_census(path, fam, depth) -> Op:
    @checked
    def check(rc, out):
        _census_types(_json(rc, out), fam, depth)

    return Op("census", ["census", path, "--depth", str(depth)], check)


def op_skeleton(path, fam, depth) -> Op:
    @checked
    def check(rc, out):
        doc = _json(rc, out)
        census = doc["census"]
        _census_types(census, fam, depth)
        prov = doc["provenance"]
        _expect(set(prov) == set(doc["frame"]["vertices"]), "provenance does not cover the skeleton")
        omega = {c for c, e in census["types"].items() if e["multiplicity"] == O.OMEGA}
        tagged = {t[len("type:"):] for t in prov.values() if t != "expansion"}
        _expect(tagged == omega, "skeleton representatives differ from the omega types")
        skel = O.frame_of(doc["frame"])
        for cert in omega:
            keep = {v for v, t in prov.items() if t == f"type:{cert}"}
            part = (tuple(v for v in skel[0] if v in keep),
                    frozenset(e for e in skel[1] if e[0] in keep and e[1] in keep))
            rep = O.frame_of(census["types"][cert]["representative"])
            _expect(O.rooted_isomorphic(O.rooted_digraph(part, None), O.rooted_digraph(rep, None)),
                    "a skeleton representative is not a copy of its type")

    return Op("skeleton", ["skeleton", path, "--depth", str(depth)], check)


def op_detect_modal(path, depth) -> Op:
    @checked
    def check(rc, out):
        doc = _json(rc, out)
        _expect(doc["coincides"] is True and doc["report"]["unmatched"] == [],
                "an omega type is not realised in the expansion")

    return Op("detect modal", ["detect", "modal", path, "--depth", str(depth)], check)


def op_detect_reflexive(path, fam, chi: int | None = None) -> Op:
    truth = O.reflexive_truth(fam)

    @checked
    def check(rc, out):
        verdict = _json(rc, out)["verdict"]
        _expect(verdict in ("unknown", truth), f"reflexive verdict {verdict!r}, truth is {truth!r}")

    extra = [] if chi is None else ["--chi-threshold", str(chi)]
    return Op("detect reflexive", ["detect", "reflexive", path] + extra, check)


def op_detect_generated(path, fam) -> Op:
    truth = O.generated_truth(fam)

    @checked
    def check(rc, out):
        verdict = _json(rc, out)["verdict"]
        _expect(verdict in ("unknown", truth), f"generated verdict {verdict!r}, truth is {truth!r}")

    return Op("detect generated", ["detect", "generated", path], check)


class CertRegistry:
    """Hull certificates seen so far, to check equal certificate iff rooted isomorphism."""

    def __init__(self):
        self.by_cert: dict[str, object] = {}
        self.classes = O.IsoClasses()


def op_hull(path, frame, at, depth, registry: CertRegistry) -> Op:
    h = O.hull_of(frame, at, depth)
    dist = O.undirected_dist(h, at)

    @checked
    def check(rc, out):
        doc = _json(rc, out)
        got = O.frame_of(doc["frame"])
        _expect(doc["root"] == at and doc["depth"] == depth, "hull root or depth differs")
        _expect(set(got[0]) == set(h[0]) and got[1] == h[1], "hull frame differs")
        _expect(doc["size"] == len(h[0]), "hull size differs")
        if depth >= 1:
            _expect(set(doc["endpoints"]) == {v for v, d in dist.items() if d == depth},
                    "hull endpoints differ")
        _expect(doc["formula"].count("exists ") == len(h[0]) - 1,
                "hull formula should quantify every non-root point once")
        g = O.rooted_digraph(h, at)
        cert = doc["certificate"]
        if cert in registry.by_cert:
            _expect(O.rooted_isomorphic(registry.by_cert[cert], g),
                    "equal certificates on non-isomorphic hulls")
        else:
            _expect(registry.classes.find(g) is None, "isomorphic hulls got different certificates")
            registry.by_cert[cert] = g
            registry.classes.add(g, cert)

    return Op("hull", ["hull", path, "--at", at, "--depth", str(depth), "--formula"], check)


# ---------------------------------------------------------------------------
# Workloads


def ue_extension(inp: Inputs, root: Path) -> list[Op]:
    """Extension building on n = 8..12: the powerset wall puts the time in ultra."""
    rng = inp.rng
    # (n, edge density, loops), one frame per entry, in size classes of about
    # equal cost: the median falls inside the eight n=9 frames and the 90th
    # percentile inside the five n=10 frames, whatever the seed.
    strata = ([(8, 0.1, 0), (8, 0.1, 1), (8, 0.1, 2), (9, 0.1, 1), (9, 0.1, 0), (9, 0.1, 0)]
              + [(9, 0.3, 0)] * 8 + [(9, 0.6, 1)] + [(10, 0.3, 0)] * 5 + [(12, 0.1, 1)])
    ops = []
    for i, (n, density, loops) in enumerate(strata):
        frame = regular_frame(rng, n, round(density * (n - 1)), loops)
        path = inp.write(O.frame_doc(frame))
        if i % 3 == 0:
            ops.append(op_ue_build(path, frame))
        elif i % 3 == 1:
            ops.append(op_ue_cross_check(path))
        else:
            ops.append(op_los_like(path, frame, (i // 3) % len(LOS_FORMULAS), rng.choice(frame[0])))
    return ops


def _deep_formula(rng, depth: int):
    """A random formula of modal depth `depth` mixing both letters and all connectives."""
    if depth == 0:
        return ("p", rng.choice(["p0", "p1"]))
    sub = _deep_formula(rng, depth - 1)
    side = ("p", rng.choice(["p0", "p1"]))
    shape = rng.randrange(4)
    if shape == 0:
        return ("dia", ("or", sub, side))
    if shape == 1:
        return ("box", ("imp", side, sub))
    if shape == 2:
        return ("dia", ("and", ("not", side), sub))
    return ("or", ("dia", sub), ("box", side))


def _chain(op: str, depth: int, core):
    return core if depth == 0 else (op, _chain(op, depth - 1, core))


# <>^d of a contradiction and []^d of a tautology: pointwise evaluation visits
# every path of length d, so the cost is fixed by the out-degree and d.
_FALSE = ("and", ("p", "p0"), ("not", ("p", "p0")))
_TRUE = ("or", ("p", "p1"), ("not", ("p", "p1")))


def _random_valuation(rng, verts, letters=("p0", "p1")):
    return {p: set(rng.sample(verts, len(verts) // 2)) for p in letters}


def _model_doc(frame, val):
    return {**O.frame_doc(frame), "valuation": {p: sorted(xs) for p, xs in val.items()}}


def _blow_up(rng, frame, val):
    """Two copies of every point, each copy of a successor kept at random: a bisimilar model."""
    verts = tuple(f"{v}.{i}" for v in frame[0] for i in (0, 1))
    edges = set()
    for a, b in frame[1]:
        for i in (0, 1):
            for j in rng.choice([(0,), (1,), (0, 1)]):
                edges.add((f"{a}.{i}", f"{b}.{j}"))
    val2 = {p: {f"{v}.{i}" for v in xs for i in (0, 1)} for p, xs in val.items()}
    return (verts, frozenset(edges)), val2


def logic_games(inp: Inputs, root: Path) -> list[Op]:
    """Modal validity, deep evaluation, bisimulation, FO evaluation and EF games."""
    rng = inp.rng
    valid_frames = {
        "T": lambda n: regular_frame(rng, n, 2, loops=n),
        "4": lambda n: transitive_frame(rng, [n // 3, n // 3, n - 2 * (n // 3)]),
        "B": lambda n: symmetric_frame(rng, n, 2),
        "D": lambda n: regular_frame(rng, n, 2),
    }
    ops = []
    for axiom, sizes in (("T", (11, 10)), ("4", (11, 9)), ("B", (12, 10)), ("D", (11, 10))):
        for n in sizes:
            frame = valid_frames[axiom](n)
            broken = break_property(rng, frame, axiom)
            # broken: the enumeration stops at a counterexample; valid: it runs over every valuation
            ops.append(op_modal_valid(inp.write(O.frame_doc(broken)), broken, axiom))
            ops.append(op_modal_valid(inp.write(O.frame_doc(frame)), frame, axiom))
    for i in range(6):
        frame = regular_frame(rng, 10, 3)
        val = _random_valuation(rng, frame[0])
        path = inp.write(_model_doc(frame, val))
        for formula in (_chain("dia", 7, _FALSE), _chain("box", 7, _TRUE)):
            ops.append(op_modal_eval(path, frame, val, formula, rng.choice(frame[0])))
    for depth in (4, 6, 8):
        base = regular_frame(rng, 7, 2)
        bval = _random_valuation(rng, base[0])
        big, bigval = _blow_up(rng, base, bval)
        p1, p2 = inp.write(_model_doc(base, bval)), inp.write(_model_doc(big, bigval))
        for _ in range(2):
            w = rng.choice(base[0])
            ops.append(op_bisim(p1, (base, bval), w, p2, (big, bigval), f"{w}.{rng.randrange(2)}", depth))
    for name, frame in (("transitive", transitive_frame(rng, [5, 4, 4])),
                        ("euclidean", equivalence_frame(rng, [5, 4, 4])),
                        ("connected", linear_order(13, "w")),
                        ("transitive", transitive_frame(rng, [4, 5, 4]))):
        ops.append(op_fo_eval(inp.write(O.frame_doc(frame)), frame, name))
    for m, n in ((5, 6), (6, 7), (4, 9), (7, 8), (7, 9), (8, 9)):
        pa = inp.write(O.frame_doc(linear_order(m)))
        pb = inp.write(O.frame_doc(linear_order(n)))
        ops.append(op_fo_ef(pa, m, pb, n, 4))
    return ops


def _asym_family(rng, i: int) -> dict:
    """Asymmetric families: random templates, rays and lines, with or without a base."""
    kind = i % 4
    if kind == 0:
        tpl = random_connected(rng, rng.randint(3, 5), 2, "t")
        return {"omega_templates": [O.frame_doc(tpl)]}
    if kind == 1:
        return {"rays": [random_ray(rng, rng.randint(1, 4), "ray")]}
    if kind == 2:
        return {"rays": [random_ray(rng, rng.randint(1, 3), "line")]}
    base = random_connected(rng, rng.randint(3, 6), 2, "b")
    return {"base": O.frame_doc(base), "rays": [random_ray(rng, rng.randint(1, 3), "ray")]}


def hull_census(inp: Inputs, root: Path) -> list[Op]:
    """Censuses, skeletons, detectors and hulls over symmetric and asymmetric families."""
    rng = inp.rng
    ops = []
    registry = CertRegistry()

    def tpl(frame):
        return {"omega_templates": [O.frame_doc(frame)]}

    # symmetric templates: factorial individualisation in canonical labelling.
    # Two 7-leaf stars sit above a block of seven 50-70 ms operations, so the
    # 90th percentile falls inside that block.
    for k, d in ((4, 2), (5, 2), (6, 1), (7, 1)):
        fam = tpl(star(k))
        ops.append(op_census(inp.write(fam), fam, d))
    for m, d in ((3, 2), (4, 1), (3, 3)):
        fam = tpl(kmm_root(m))
        ops.append(op_census(inp.write(fam), fam, d))
    for fam, d in ((tpl(star(5)), 2), (tpl(kmm_root(3)), 3), (tpl(star(6)), 1)):
        ops.append(op_skeleton(inp.write(fam), fam, d))
    for fam, d in ((tpl(star(4)), 2), (tpl(star(5)), 1), (tpl(kmm_root(3)), 1)):
        ops.append(op_detect_modal(inp.write(fam), d))
    # hulls of the symmetric shapes beside a random host frame
    for shape, at, d in ((kmm_root(3), "a0", 2), (star(6), "c", 1), (kmm_root(4), "r", 2),
                         (star(7), "c", 1), (star(6), "c", 2), (kmm_root(4), "a1", 1)):
        host = random_connected(rng, 6, 3, "h")
        frame = (shape[0] + host[0], shape[1] | host[1])
        ops.append(op_hull(inp.write(O.frame_doc(frame)), frame, at, d, registry))
    # a class of near-equal hulls, about 5 ms each, that holds the median: the
    # asymmetric operations around it change cost with the seed
    for shape, at, d in ((kmm_root(3), "a1", 2), (kmm_root(3), "a2", 2), (kmm_root(4), "a0", 1),
                         (kmm_root(4), "a2", 1), (kmm_root(4), "a3", 1), (kmm_root(3), "b0", 2)):
        host = random_connected(rng, 6, 3, "h")
        frame = (shape[0] + host[0], shape[1] | host[1])
        ops.append(op_hull(inp.write(O.frame_doc(frame)), frame, at, d, registry))

    # asymmetric families: colour refinement alone settles the labelling
    for i in range(12):
        fam = _asym_family(rng, i)
        path = inp.write(fam)
        d = 1 + i % 3
        if i % 4 == 3:
            ops.append(op_detect_modal(path, d))
        else:
            ops.append((op_census, op_skeleton, op_census)[i % 4](path, fam, d))
    for i in range(4):
        frame = random_connected(rng, 14, 6, "g")
        ops.append(op_hull(inp.write(O.frame_doc(frame)), frame, rng.choice(frame[0]), 2 + i % 2, registry))

    # verdict detectors: loops, cliques above the threshold, and the builtins
    k11 = O.frame_doc(clique(11))
    loop_tpl = {"vertices": ["z"], "edges": [["z", "z"]]}
    det = [
        ({"base": k11}, None),
        ({"omega_templates": [k11, loop_tpl]}, None),
        ({"omega_templates": [k11]}, 12),
        ({"rays": [random_ray(rng, 3, "ray", loop=True)]}, None),
        (_asym_family(rng, 0), None),
        (_asym_family(rng, 1), None),
        ({"generator": {"name": "nat_lt"}}, None),
        ({"generator": {"name": "chains_lt"}}, None),
        ({"generator": {"name": "nat_succ"}}, None),
    ]
    for fam, chi in det:
        ops.append(op_detect_reflexive(inp.write(fam), fam, chi))
    for fam in ({"generator": {"name": "nat_lt"}}, {"generator": {"name": "chains_lt"}},
                {"generator": {"name": "nat_succ"}}, _asym_family(rng, 2)):
        ops.append(op_detect_generated(inp.write(fam), fam))
    fam = {"generator": {"name": "nat_succ"}}
    ops.append(op_census(inp.write(fam), fam, 2))
    return ops


def cli_small(inp: Inputs, root: Path) -> list[Op]:
    """Every subcommand on the shipped fixtures and on frames of at most five points."""
    rng = inp.rng
    fx = root / "fixtures"
    tri = O.frame_of(json.loads((fx / "triangle.json").read_text()))
    tri_doc = json.loads((fx / "triangle_model.json").read_text())
    tri_model = (O.frame_of(tri_doc), {p: set(xs) for p, xs in tri_doc["valuation"].items()})
    fams = {name: json.loads((fx / f"{name}.json").read_text()) for name in ("nat_succ", "chains_lt", "nat_lt")}
    registry = CertRegistry()
    ops = []
    for i in range(3):
        n = 4 + i % 2
        frame = random_frame(rng, n, 0.35, loops=i % 2)
        path = inp.write(O.frame_doc(frame))
        val = _random_valuation(rng, frame[0])
        mpath = inp.write(_model_doc(frame, val))
        at = rng.choice(frame[0])
        ops += [
            op_ue_build(path, frame),
            op_ue_cross_check(path),
            op_los_like(path, frame, i % len(LOS_FORMULAS), at),
            op_modal_valid(path, frame, "TDB4"[i]),
            op_modal_eval(mpath, frame, val, _deep_formula(rng, 2), at),
            op_bisim(mpath, (frame, val), at, str(fx / "triangle_model.json"), tri_model, "a", 2),
            op_fo_eval(path, frame, ("transitive", "euclidean", "connected")[i]),
            op_fo_ef(inp.write(O.frame_doc(linear_order(2 + i))), 2 + i,
                     inp.write(O.frame_doc(linear_order(3 + i))), 3 + i, 3),
            op_hull(path, frame, at, 1, registry),
        ]
    tri_path = str(fx / "triangle.json")
    ops += [
        op_ue_build(tri_path, tri),
        op_modal_eval(str(fx / "triangle_model.json"), *tri_model, ("dia", ("p", "p0")), "a"),
        op_hull(tri_path, tri, "a", 1, registry),
        op_census(str(fx / "nat_succ.json"), fams["nat_succ"], 1),
        op_skeleton(str(fx / "nat_succ.json"), fams["nat_succ"], 1),
        op_detect_modal(str(fx / "nat_succ.json"), 1),
        op_detect_reflexive(str(fx / "nat_succ.json"), fams["nat_succ"]),
        op_detect_generated(str(fx / "nat_lt.json"), fams["nat_lt"]),
        op_detect_generated(str(fx / "chains_lt.json"), fams["chains_lt"]),
    ]
    small = random_connected(rng, 4, 1, "s")
    fam = {"omega_templates": [O.frame_doc(small)]}
    ops.append(op_census(inp.write(fam), fam, 1))
    return ops


WORKLOADS = {
    "ue-extension": ue_extension,
    "hull-census": hull_census,
    "logic-games": logic_games,
    "cli-small": cli_small,
}

# Families for which uext's reflexive-point detector is known to answer an
# unsound "yes" (a clique above the threshold in a finite part of a loop-free
# family whose chromatic number is finite).  They run outside the timed
# passes and are reported on their own.
def reflexive_probes(inp: Inputs) -> list[tuple[str, Op]]:
    k11 = O.frame_doc(clique(11))
    point = {"vertices": ["z"], "edges": []}
    probes = [
        ("K11 base", {"base": k11}),
        ("K11 base + point template", {"base": k11, "omega_templates": [point]}),
        ("ray with K11 period", {"rays": [{"period": k11, "seam": [["k0", "k0"]], "kind": "ray"}]}),
    ]
    return [(name, op_detect_reflexive(inp.write(fam), fam)) for name, fam in probes]
