"""Shared random generators and output capture for the test suite."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import json

from uext import (Frame, InputError, Model, ResourceError, canonical_form, endpoints, family_from_dict,
                  frame_from_dict, frame_to_dict, generated_substructure_verdict, greedy_coloring, hull, hull_census,
                  hull_formula, modal_logic_coincides, reflexive_point_in_ue, relation_image, rooted_iso,
                  ue_skeleton)
from uext.census import census_to_dict, clique_lower_bound
from uext.frame import MODEL_FIELDS
from uext.cli import main
import uext.fo
from uext.fo import (Eq, Exists, Forall, Rel, distinguishing_sentence, ef_min_rounds, eval_fo, format_fo, free_vars,
                     parse_fo, spoiler_line)
from uext.modal import (And, Box, Dia, Falsum, Imp, Not, Or, Prop, eval_modal, format_modal, frame_valid,
                        modally_equivalent_upto, n_bisimilar, parse_modal, truth_set)

CAP_VARS = ("UEXT_POWERSET_LIMIT", "UEXT_VALUATION_LIMIT", "UEXT_GAME_LIMIT", "UEXT_EF_MEMO_LIMIT",
            "UEXT_ASSIGNMENT_LIMIT")
# a recursion limit about 70 frames above a test's own stack: a game's scan and witness, which
# never recurse, run within it at any round count
LOW_LIMIT = 100
PARSERS = {"modal": (parse_modal, format_modal), "fo": (parse_fo, format_fo)}


def cli_outcome(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run; help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parse_outcome(logic: str, text: str) -> str:
    """The formatted parse of text in logic "modal" or "fo", or the CLI's error line."""
    parse, fmt = PARSERS[logic]
    try:
        return fmt(parse(text))
    except InputError as exc:
        return f"error: {exc}"


def game_outcome(case: dict) -> dict:
    """The case with the game outputs on its EF frame pair or its pointed model pair."""
    out = dict(case)
    if "frames" in case:
        f1, f2 = (frame_from_dict(doc) for doc in case["frames"])
        k = case["rounds"]
        phi = distinguishing_sentence(f1, f2, k)
        out.update(min_rounds=ef_min_rounds(f1, f2, k), spoiler_line=spoiler_line(f1, f2, k),
                   sentence=None if phi is None else format_fo(phi))
        return out
    m1, m2 = (Model.make(frame_from_dict(doc, MODEL_FIELDS), doc["valuation"]) for doc in case["models"])
    (w1, w2), n = case["at"], case["depth"]
    _, phi = modally_equivalent_upto(m1, w1, m2, w2, n, case["letters"])
    out.update(bisimilar=n_bisimilar(m1, w1, m2, w2, n), witness=None if phi is None else format_modal(phi))
    return out


def modal_truth_outcome(case: dict) -> dict:
    """The case with its truth set and truth at one world, or its frame validity verdict.

    A counterexample is written as the CLI writes it: the refuting world and
    each letter's sorted extension.
    """
    out = dict(case)
    phi = parse_modal(case["formula"])
    if "model" in case:
        doc = case["model"]
        m = Model.make(frame_from_dict(doc, MODEL_FIELDS), doc["valuation"])
        out.update(truth_set=in_load_order(m.frame, truth_set(m, phi)), holds=eval_modal(m, case["at"], phi))
        return out
    ok, counter = frame_valid(frame_from_dict(case["frame"]), phi)
    out.update(valid=ok, counter_world=None, counter_valuation=None)
    if counter is not None:
        cm, cw = counter
        out.update(counter_world=cw, counter_valuation={p: sorted(xs) for p, xs in valuation(cm).items()})
    return out


class RecordingBudget(uext.fo.Budget):
    """An FO evaluation's Budget that adds what it spends to the class's running total."""

    total = 0

    def charge(self, n: int) -> None:
        super().charge(n)
        RecordingBudget.total += n


def charged(fn):
    """fn()'s value and the assignments charged by the FO evaluations it ran."""
    RecordingBudget.total = 0
    saved, uext.fo.Budget = uext.fo.Budget, RecordingBudget
    try:
        return fn(), RecordingBudget.total
    finally:
        uext.fo.Budget = saved


def fo_truth_outcome(case: dict) -> dict:
    """The case with eval_fo's answer under its assignment and the assignments charged, and for a
    formula with one free variable, that variable's column mask and its charge."""
    out = dict(case)
    f, phi = frame_from_dict(case["frame"]), parse_fo(case["formula"])
    holds, spent = charged(lambda: eval_fo(f, phi, case["assignment"]))
    out.update(holds=holds, charged=spent)
    if len(free_vars(phi)) == 1:
        (x,) = free_vars(phi)
        mask, spent = charged(lambda: uext.fo._evaluate(f, phi, {}, column=x))
        out.update(column=x, mask=mask, column_charged=spent)
    return out


def successors(frame: Frame) -> dict[str, frozenset[str]]:
    """Each vertex's successor set, read off the edges (the shape the oracles take)."""
    out: dict[str, set[str]] = {v: set() for v in frame.vertices}
    for a, b in frame.edges:
        out[a].add(b)
    return {v: frozenset(s) for v, s in out.items()}


def valuation(model: Model) -> dict[str, frozenset[str]]:
    """Each letter's extension as a set of names (the shape the oracles take)."""
    return {p: frozenset(model.frame.names(mask)) for p, mask in model.masks.items()}


def in_load_order(frame: Frame, xs) -> list[str]:
    return [v for v in frame.vertices if v in xs]


def hull_outcome(case: dict) -> dict:
    """The case with what the hull and census layers say about its frame, hull pair or family.

    Sets are written in load order and maps keyed in load order, so the record
    does not depend on string-hash order.  An input error or a resource limit is
    written as its CLI line.
    """
    out = dict(case)
    if "frame" in case:
        f = frame_from_dict(case["frame"])
        h = hull(f, case["root"], case["depth"])
        order = lambda xs: [v for v in h.graph.vertices if v in xs]  # noqa: E731
        out.update(certificate=canonical_form(h).hex, layers={v: h.layers[v] for v in order(h.layers)},
                   endpoints=order(endpoints(h)) if h.depth >= 1 else None,
                   formula=hull_formula(h),
                   images={mode: [v for v in f.vertices if v in relation_image(f, case["subset"], mode)]
                           for mode in ("forward", "backward", "both", "box")},
                   coloring=greedy_coloring(f), clique=list(clique_lower_bound(f)))
    elif "pair" in case:
        (f1, f2), (r1, r2), n = (frame_from_dict(d) for d in case["pair"]), case["roots"], case["depth"]
        h1, h2 = hull(f1, r1, n), hull(f2, r2, n)
        iso, witness = rooted_iso(h1, h2)
        out.update(iso=iso, witness=None if witness is None else {v: witness[v] for v in h1.graph.vertices})
    else:
        fam, n = family_from_dict(case["family"]), case["depth"]

        def attempt(fn):
            try:
                return fn()
            except InputError as exc:
                return f"error: {exc}"
            except ResourceError as exc:
                return f"resource limit: {exc}"

        def skeleton():
            sk = ue_skeleton(fam, n)
            return {"frame": frame_to_dict(sk.frame), "provenance": sk.provenance,
                    "census": census_to_dict(sk.census)}

        def verdict(v):
            return {"verdict": v.kind, "evidence": v.evidence, "data": v.data}

        out.update(census=attempt(lambda: census_to_dict(hull_census(fam, n))), skeleton=attempt(skeleton),
                   reflexive=attempt(lambda: verdict(reflexive_point_in_ue(fam, case["chi_threshold"]))),
                   generated=attempt(lambda: verdict(generated_substructure_verdict(fam))),
                   modal=attempt(lambda: dict(zip(("coincides", "report"), modal_logic_coincides(fam, n)))))
    return json.loads(json.dumps(out))


def model_doc(model: Model) -> dict:
    return {**frame_to_dict(model.frame),
            "valuation": {p: in_load_order(model.frame, xs) for p, xs in valuation(model).items()}}


def random_frame(rng: random.Random, max_n: int = 6, edge_p: float = 0.35) -> Frame:
    n = rng.randint(1, max_n)
    verts = tuple(f"w{i}" for i in range(n))
    edges = frozenset(
        (a, b) for a in verts for b in verts if rng.random() < edge_p
    )
    return Frame(verts, edges)


def random_bounded_frame(rng: random.Random, max_n: int, max_deg: int) -> Frame:
    n = rng.randint(1, max_n)
    verts = [f"w{i}" for i in range(n)]
    edges: set[tuple[str, str]] = set()
    deg = {v: 0 for v in verts}
    attempts = 3 * n * max_deg
    for _ in range(attempts):
        a, b = rng.choice(verts), rng.choice(verts)
        if (a, b) in edges or deg[a] >= max_deg or deg[b] >= max_deg:
            continue
        edges.add((a, b))
        deg[a] += 1
        if b != a:
            deg[b] += 1
    return Frame(tuple(verts), frozenset(edges))


def random_modal(rng: random.Random, depth: int, letters: list[str], size: int = 12):
    """A random formula of modal depth at most `depth` and about `size` nodes."""
    choices = ["prop"]
    if size > 1:
        choices += ["not", "and", "or", "imp"]
        if depth > 0:
            choices += ["dia", "box", "dia"]
    kind = rng.choice(choices)
    if kind == "prop":
        return Prop(rng.choice(letters)) if letters else Falsum()
    if kind == "not":
        return Not(random_modal(rng, depth, letters, size - 1))
    if kind == "dia":
        return Dia(random_modal(rng, depth - 1, letters, size - 1))
    if kind == "box":
        return Box(random_modal(rng, depth - 1, letters, size - 1))
    half = (size - 1) // 2
    l = random_modal(rng, depth, letters, half)
    r = random_modal(rng, depth, letters, half)
    return {"and": And, "or": Or, "imp": Imp}[kind](l, r)


FO_VARS = ("x", "y", "z")


def random_fo(rng: random.Random, rank: int, size: int):
    """A random formula over x, y, z of quantifier rank at most `rank` and about `size` nodes."""
    kinds = ["atom"]
    if size > 1:
        kinds += ["neg", "and", "or", "imp"]
        if rank > 0:
            kinds += ["exists", "forall"] * 2
    kind = rng.choice(kinds)
    if kind == "atom":
        return (Rel if rng.random() < 0.6 else Eq)(rng.choice(FO_VARS), rng.choice(FO_VARS))
    if kind == "neg":
        return Not(random_fo(rng, rank, size - 1))
    if kind in ("exists", "forall"):
        return (Exists if kind == "exists" else Forall)(rng.choice(FO_VARS), random_fo(rng, rank - 1, size - 1))
    half = (size - 1) // 2
    return {"and": And, "or": Or, "imp": Imp}[kind](random_fo(rng, rank, half), random_fo(rng, rank, half))


def random_valuation(rng: random.Random, frame: Frame, letters: list[str]):
    return {
        p: [w for w in frame.vertices if rng.random() < 0.5] for p in letters
    }


def all_3vertex_frames():
    """All 512 labeled digraphs on vertices a, b, c."""
    verts = ("a", "b", "c")
    slots = [(x, y) for x in verts for y in verts]
    for mask in range(512):
        edges = frozenset(slots[i] for i in range(9) if mask & (1 << i))
        yield Frame(verts, edges)


def linear_order(n: int, prefix: str = "v") -> Frame:
    """The strict linear order L_n on prefix0 < prefix1 < ... (every edge from a point to each later one)."""
    verts = tuple(f"{prefix}{i}" for i in range(n))
    edges = frozenset((verts[i], verts[j]) for i in range(n) for j in range(i + 1, n))
    return Frame(verts, edges)


def star(k: int) -> Frame:
    """Centre c over k leaves."""
    return Frame(("c",) + tuple(f"l{i}" for i in range(k)), frozenset(("c", f"l{i}") for i in range(k)))


def kmm_root(m: int) -> Frame:
    """K_{m,m} with every edge from side a to side b, and a root r over side a."""
    a, b = [f"a{i}" for i in range(m)], [f"b{i}" for i in range(m)]
    return Frame(tuple(["r"] + a + b), frozenset([("r", x) for x in a] + [(x, y) for x in a for y in b]))
