"""Shared random generators and output capture for the test suite."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from uext import Frame, InputError, Model, frame_from_dict, frame_to_dict
from uext.cli import main
from uext.fo import distinguishing_sentence, ef_min_rounds, format_fo, parse_fo, spoiler_line
from uext.modal import (And, Box, Dia, Falsum, Imp, Not, Or, Prop, eval_modal, format_modal, frame_valid,
                        modally_equivalent_upto, n_bisimilar, parse_modal, truth_set)

CAP_VARS = ("UEXT_POWERSET_LIMIT", "UEXT_VALUATION_LIMIT", "UEXT_GAME_LIMIT", "UEXT_EF_MEMO_LIMIT",
            "UEXT_ASSIGNMENT_LIMIT")
PARSERS = {"modal": (parse_modal, format_modal), "fo": (parse_fo, format_fo)}


def cli_outcome(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parse_outcome(logic: str, text: str) -> str:
    """The formatted parse of text in logic "modal" or "fo", or the CLI's error line."""
    parse, fmt = PARSERS[logic]
    try:
        return fmt(parse(text))
    except InputError as exc:
        return f"error: {exc}"


def game_outcome(case: dict) -> dict:
    """The case with the game outputs on its EF frame pair or its pointed model pair.

    A modal witness is pinned only when none of its rounds is a back move
    (Spoiler moving in the second model): a back move is written "[]...", and
    was written "~<>..." by the build that recorded games.jsonl.
    """
    out = dict(case)
    if "frames" in case:
        f1, f2 = (frame_from_dict(doc) for doc in case["frames"])
        k = case["rounds"]
        phi = distinguishing_sentence(f1, f2, k)
        out.update(min_rounds=ef_min_rounds(f1, f2, k), spoiler_line=spoiler_line(f1, f2, k),
                   sentence=None if phi is None else format_fo(phi))
        return out
    m1, m2 = (Model.make(frame_from_dict(doc), doc["valuation"]) for doc in case["models"])
    (w1, w2), n = case["at"], case["depth"]
    _, phi = modally_equivalent_upto(m1, w1, m2, w2, n, case["letters"])
    text = None if phi is None else format_modal(phi)
    out.update(bisimilar=n_bisimilar(m1, w1, m2, w2, n),
               witness=None if text is None or "~<>" in text or "[]" in text else text)
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
        m = Model.make(frame_from_dict(doc), doc["valuation"])
        out.update(truth_set=m.frame.sort(truth_set(m, phi)), holds=eval_modal(m, case["at"], phi))
        return out
    ok, counter = frame_valid(frame_from_dict(case["frame"]), phi)
    out.update(valid=ok, counter_world=None, counter_valuation=None)
    if counter is not None:
        cm, cw = counter
        out.update(counter_world=cw, counter_valuation={p: sorted(xs) for p, xs in cm.valuation})
    return out


def model_doc(model: Model) -> dict:
    return {**frame_to_dict(model.frame), "valuation": {p: model.frame.sort(xs) for p, xs in model.valuation}}


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
