"""Record the golden files in this directory from the uext on the import path.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

cli.json holds exit code, stdout and stderr of each subcommand on fixtures/;
help.json holds the -h output of uext and of every command path, printed at
HELP_COLUMNS terminal columns;
modal_parse.jsonl and fo_parse.jsonl hold seeded token strings, valid and
invalid, each with its formatted parse or its error line; games.jsonl holds
seeded EF frame pairs and pointed model pairs with their game outputs;
modal_truth.jsonl holds seeded models with a formula's truth set and its truth
at one world, and seeded frames with a formula's validity verdict and
counterexample; fo_truth.jsonl holds seeded frames of 1-5 points, each with
an FO formula of rank at most 3 over x, y, z and an assignment of its free
variables, eval_fo's answer and the assignments it charged, and for a formula
with one free variable, that variable's column mask from fo._evaluate and its
charge; hulls.jsonl holds seeded frames, stars and K_mm+root shapes
with a hull's certificate, layers, endpoints and formula, the four relation
images of a subset, a colouring and a clique, then pairs of hulls (relabelled
copies among them) with their rooted isomorphism, then seeded families with
census, skeleton and the three detector outputs.
Re-record only when a change means to alter these outputs.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from helpers import (CAP_VARS, cli_outcome, fo_truth_outcome, game_outcome, hull_outcome,  # noqa: E402
                     modal_truth_outcome, kmm_root, model_doc, parse_outcome, random_bounded_frame, random_fo,
                     random_frame, random_modal, random_valuation, star)
from uext import Frame, Model, format_fo, format_modal, frame_to_dict  # noqa: E402
from uext.fo import free_vars  # noqa: E402
from uext.cli import COMMANDS  # noqa: E402

CORPUS_SEED = 20240527
CORPUS_SIZE = 1000
GAME_EF_PAIRS, GAME_MODAL_PAIRS = 200, 400
TRUTH_MODELS, VALIDITY_FRAMES = 400, 200
FO_TRUTH_CASES = 300
HULL_FRAMES, HULL_PAIRS, HULL_FAMILIES = 150, 100, 60

T, M = "fixtures/triangle.json", "fixtures/triangle_model.json"
SUCC, LT, CHAINS = "fixtures/nat_succ.json", "fixtures/nat_lt.json", "fixtures/chains_lt.json"

CLI_ARGV = [
    ["ue", "build", T],
    ["ue", "build", T, "--dot"],
    ["ue", "build", M],
    ["ue", "build", "fixtures/missing.json"],
    ["ue", "cross-check", T],
    ["modal", "eval", M, "<>p0 & []p0", "--at", "a"],
    ["modal", "eval", M, "[]p0 -> p0", "--at", "c"],
    ["modal", "eval", M, "<>(p0 | ~p1) -> []<>p0", "--at", "b"],
    ["modal", "eval", M, "p0 &", "--at", "a"],
    ["modal", "eval", M, "p0 $ p1", "--at", "a"],
    ["modal", "eval", M, "p0", "--at", "z"],
    ["modal", "valid", T, "[]p0 -> p0"],
    ["modal", "valid", T, "[]p0 -> [][]p0"],
    ["modal", "valid", T, "<>p0 -> <>p1"],
    ["bisim", M, M, "--at1", "b", "--at2", "c", "--depth", "1"],
    ["bisim", M, M, "--at1", "a", "--at2", "a", "--depth", "3"],
    ["bisim", M, M, "--at1", "a", "--at2", "b", "--depth", "-1"],
    ["fo", "eval", T, "forall x. ~R(x,x)"],
    ["fo", "eval", T, "R(x,y)", "--let", "x=a", "--let", "y=b"],
    ["fo", "eval", T, "exists x. forall y. (R(x,y) | x=y)"],
    ["fo", "eval", T, "R(x,y)"],
    ["fo", "eval", T, "exists x R(x,x)"],
    ["fo", "eval", T, "R(x,x)", "--let", "x"],
    ["fo", "ef", T, M],
    ["fo", "ef", T, M, "--max-rounds", "0"],
    ["fo", "los-like", T, "exists y. R(x,y)", "--at", "a"],
    ["fo", "los-like", T, "R(x,x)", "--at", "b"],
    ["fo", "los-like", T, "R(x,y)", "--at", "a"],
    ["hull", T, "--at", "a", "--depth", "0"],
    ["hull", T, "--at", "a", "--depth", "1", "--formula"],
    ["hull", T, "--at", "b", "--depth", "2", "--formula"],
    ["hull", T, "--at", "a", "--depth", "-1"],
    ["census", SUCC, "--depth", "1"],
    ["census", SUCC, "--depth", "2"],
    ["census", LT, "--depth", "1"],
    ["census", CHAINS, "--depth", "1"],
    ["skeleton", SUCC, "--depth", "1"],
    ["skeleton", SUCC, "--depth", "2", "--budget", "3"],
    ["detect", "reflexive", SUCC],
    ["detect", "reflexive", SUCC, "--chi-threshold", "1"],
    ["detect", "reflexive", LT],
    ["detect", "reflexive", CHAINS],
    ["detect", "generated", SUCC],
    ["detect", "generated", LT],
    ["detect", "generated", CHAINS],
    ["detect", "modal", SUCC, "--depth", "2"],
    ["detect", "modal", SUCC, "--depth", "1", "--budget", "2"],
    ["detect", "modal", LT],
]

HELP_COLUMNS = 80

# Grammar tokens and near misses; pieces are joined with random spacing, so
# adjacent pieces can also merge into one token or into a different one.
MODAL_NOISE = ["p", "q", "P0", "1", "-", "<", ">", "[", "]", "!", "$", "p0p1", "(", ")", "&&"]
FO_VARS = ["x", "y", "z1", "_v", "xR"]
FO_NOISE = ["R", "exists", "forall", "Rx", "existsx", "1", "!", "==", "=>", "-", ".", ",", "(", ")",
            "#", "x.", "R(", "forall.", "E"]
SPACES = ["", " ", " ", " ", "  ", "\t"]


def modal_tokens(rng: random.Random, depth: int) -> list[str]:
    r = rng.random()
    if depth == 0 or r < 0.3:
        return [rng.choice(["p0", "p1", "p23"])]
    if r < 0.5:
        return [rng.choice(["~", "<>", "[]"])] + modal_tokens(rng, depth - 1)
    toks = modal_tokens(rng, depth - 1) + [rng.choice(["&", "|", "->"])] + modal_tokens(rng, depth - 1)
    return ["(", *toks, ")"] if rng.random() < 0.5 else toks


def fo_tokens(rng: random.Random, depth: int) -> list[str]:
    r = rng.random()
    if depth == 0 or r < 0.3:
        a, b = rng.choice(FO_VARS), rng.choice(FO_VARS)
        return ["R", "(", a, ",", b, ")"] if rng.random() < 0.6 else [a, "=", b]
    if r < 0.4:
        return ["~"] + fo_tokens(rng, depth - 1)
    if r < 0.6:
        return [rng.choice(["exists", "forall"]), rng.choice(FO_VARS), "."] + fo_tokens(rng, depth - 1)
    toks = fo_tokens(rng, depth - 1) + [rng.choice(["&", "|", "->"])] + fo_tokens(rng, depth - 1)
    return ["(", *toks, ")"] if rng.random() < 0.5 else toks


LOGICS = {
    "modal": (modal_tokens, MODAL_NOISE + ["~", "<>", "[]", "&", "|", "->", "p0"]),
    "fo": (fo_tokens, FO_NOISE + FO_VARS + ["~", "&", "|", "->", "="]),
}


def corpus(logic: str, seed: int, size: int) -> list[str]:
    """size strings: a third well formed, a third mutated, a third token soup."""
    grow, pieces = LOGICS[logic]
    rng = random.Random(f"{logic}:{seed}")
    out = ["", " ", "\t "]
    while len(out) < size:
        kind = len(out) % 3
        if kind == 2:
            toks = [rng.choice(pieces) for _ in range(rng.randint(1, 8))]
        else:
            toks = grow(rng, rng.randint(0, 4))
            if kind == 1:
                for _ in range(rng.randint(1, 2)):
                    i = rng.randrange(len(toks) + 1)
                    op = rng.randrange(3)
                    if op == 0 and toks:
                        del toks[min(i, len(toks) - 1)]
                    elif op == 1:
                        toks.insert(i, rng.choice(pieces))
                    else:
                        toks = toks[:i]
        text = "".join(tok + rng.choice(SPACES) for tok in toks)
        out.append(rng.choice(SPACES) + text)
    return out[:size]


def game_cases(seed: int, ef_pairs: int, modal_pairs: int) -> list[dict]:
    """EF pairs of frames with at most 5 points and pointed model pairs over p0, p1."""
    rng = random.Random(f"games:{seed}")
    cases = []
    for _ in range(ef_pairs):
        f1, f2 = random_frame(rng, 5), random_frame(rng, 5)
        cases.append({"frames": [frame_to_dict(f1), frame_to_dict(f2)], "rounds": rng.randint(0, 3)})
    for _ in range(modal_pairs):
        m1, m2 = (Model.make(f, random_valuation(rng, f, ["p0", "p1"]))
                  for f in (random_frame(rng, 5), random_frame(rng, 5)))
        cases.append({"models": [model_doc(m1), model_doc(m2)],
                      "at": [rng.choice(m1.frame.vertices), rng.choice(m2.frame.vertices)],
                      "depth": rng.randint(0, 4), "letters": ["p0", "p1"][:rng.randint(0, 2)]})
    return cases


def modal_truth_cases(seed: int, models: int, frames: int) -> list[dict]:
    """Models of at most 7 points with 0-2 letters and formulas of depth 0-5, then frames of
    at most 5 points with formulas over at most 2 letters.  Formulas are kept as the text
    the parser reads back; one over no letters is written with p0, unknown to its model."""
    rng = random.Random(f"modal_truth:{seed}")
    cases = []
    for _ in range(models):
        f = random_frame(rng, 7)
        m = Model.make(f, random_valuation(rng, f, ["p0", "p1"][:rng.randint(0, 2)]))
        phi = random_modal(rng, rng.randint(0, 5), ["p0", "p1", "p2"][:rng.randint(0, 3)], rng.randint(1, 16))
        cases.append({"model": model_doc(m), "formula": format_modal(phi), "at": rng.choice(f.vertices)})
    for _ in range(frames):
        f = random_frame(rng, 5)
        phi = random_modal(rng, rng.randint(0, 3), ["p0", "p1"][:rng.randint(0, 2)], rng.randint(1, 12))
        cases.append({"frame": frame_to_dict(f), "formula": format_modal(phi)})
    return cases


def fo_truth_cases(seed: int, size: int) -> list[dict]:
    """Frames of 1-5 points with formulas over x, y, z of rank at most 3, shadowed quantifiers
    among them, each with an assignment of its free variables."""
    rng = random.Random(f"fo_truth:{seed}")
    cases = []
    for _ in range(size):
        f = random_frame(rng, 5)
        phi = random_fo(rng, rng.randint(0, 3), rng.randint(1, 14))
        cases.append({"frame": frame_to_dict(f), "formula": format_fo(phi),
                      "assignment": {x: rng.choice(f.vertices) for x in sorted(free_vars(phi))}})
    return cases


def relabelled(rng: random.Random, f: Frame) -> tuple[Frame, dict[str, str]]:
    """f under fresh names in a shuffled load order, and the renaming."""
    names = dict(zip(f.vertices, rng.sample([f"u{i}" for i in range(len(f.vertices))], len(f.vertices))))
    order = rng.sample(list(f.vertices), len(f.vertices))
    return Frame(tuple(names[v] for v in order), frozenset((names[a], names[b]) for a, b in f.edges)), names


def loop_free(f: Frame) -> Frame:
    return Frame(f.vertices, frozenset((a, b) for a, b in f.edges if a != b))


def small_ray(rng: random.Random) -> dict:
    period = loop_free(random_frame(rng, 3, 0.3))
    verts = period.vertices
    seam = sorted({(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(1, 2))})
    return {"period": frame_to_dict(period), "seam": [list(e) for e in seam], "kind": rng.choice(["ray", "line"])}


def hull_cases(seed: int, frames: int, pairs: int, families: int) -> list[dict]:
    """Frames of at most 9 points, stars with 1-6 leaves and K_mm+root with m <= 4, each with a
    root, a depth of 0-3 and a subset; then pairs of hulls; then families, mostly loop-free.  The families' builtin
    generators are nat_succ and nat_lt: chains_lt's verdicts are pinned by cli.json."""
    rng = random.Random(f"hulls:{seed}")
    shapes = [star(k) for k in range(1, 7)] + [kmm_root(m) for m in range(1, 5)]
    cases = []
    for i in range(frames):
        f = shapes[i] if i < len(shapes) else (
            random_bounded_frame(rng, 9, 3) if i % 2 else random_frame(rng, 9, rng.choice([0.1, 0.2, 0.3])))
        cases.append({"frame": frame_to_dict(f), "root": rng.choice(f.vertices), "depth": rng.choice([0, 1, 2, 2, 3]),
                      "subset": [v for v in f.vertices if rng.random() < 0.4]})
    for i in range(pairs):
        f1 = shapes[i] if i < len(shapes) else random_bounded_frame(rng, 8, 3)
        r1 = rng.choice(f1.vertices)
        kind = i % 3
        if kind == 0:  # a relabelled copy: isomorphic
            f2, names = relabelled(rng, f1)
            r2 = names[r1]
        elif kind == 1:  # the same frame at another root
            f2, r2 = f1, rng.choice(f1.vertices)
        else:  # an unrelated frame
            f2 = random_bounded_frame(rng, 8, 3)
            r2 = rng.choice(f2.vertices)
        cases.append({"pair": [frame_to_dict(f1), frame_to_dict(f2)], "roots": [r1, r2],
                      "depth": rng.randint(0, 3)})
    for _ in range(families):
        doc: dict = {}
        part = lambda f: frame_to_dict(f if rng.random() < 0.3 else loop_free(f))  # noqa: E731
        if rng.random() < 0.6:
            doc["base"] = part(random_bounded_frame(rng, 5, 2))
        doc["omega_templates"] = [part(random_bounded_frame(rng, 4, 2)) for _ in range(rng.randint(0, 2))]
        doc["rays"] = [small_ray(rng) for _ in range(rng.randint(0, 2))]
        gen = rng.choice([None, None, "nat_succ", "nat_lt"])
        if gen is not None:
            doc["generator"] = {"name": gen}
        cases.append({"family": doc, "depth": rng.randint(0, 2), "chi_threshold": rng.randint(1, 10)})
    return cases


def main() -> None:
    if not Path("fixtures").is_dir():
        sys.exit("run from the repository root")
    for var in CAP_VARS:
        if var in os.environ:
            sys.exit(f"unset {var} before recording")
    cases = [cli_outcome(argv) for argv in CLI_ARGV]
    (HERE / "cli.json").write_text(json.dumps(cases, indent=1) + "\n")
    os.environ["COLUMNS"] = str(HELP_COLUMNS)
    cases = [cli_outcome([*path, "-h"]) for path in [(), *COMMANDS]]
    (HERE / "help.json").write_text(json.dumps({"columns": HELP_COLUMNS, "cases": cases}, indent=1) + "\n")
    for logic in LOGICS:
        lines = [json.dumps([t, parse_outcome(logic, t)]) for t in corpus(logic, CORPUS_SEED, CORPUS_SIZE)]
        (HERE / f"{logic}_parse.jsonl").write_text("\n".join(lines) + "\n")
    lines = [json.dumps(game_outcome(case)) for case in game_cases(CORPUS_SEED, GAME_EF_PAIRS, GAME_MODAL_PAIRS)]
    (HERE / "games.jsonl").write_text("\n".join(lines) + "\n")
    lines = [json.dumps(modal_truth_outcome(case))
             for case in modal_truth_cases(CORPUS_SEED, TRUTH_MODELS, VALIDITY_FRAMES)]
    (HERE / "modal_truth.jsonl").write_text("\n".join(lines) + "\n")
    lines = [json.dumps(fo_truth_outcome(case)) for case in fo_truth_cases(CORPUS_SEED, FO_TRUTH_CASES)]
    (HERE / "fo_truth.jsonl").write_text("\n".join(lines) + "\n")
    lines = [json.dumps(hull_outcome(case)) for case in hull_cases(CORPUS_SEED, HULL_FRAMES, HULL_PAIRS, HULL_FAMILIES)]
    (HERE / "hulls.jsonl").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
