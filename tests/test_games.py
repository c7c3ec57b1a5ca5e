"""Both games against the pair-position search in tests/game_oracle.py, deep witnesses included, and
the pinned witnesses of tests/golden/games.jsonl read by the oracle's own evaluators."""

import json
import random
import sys
from pathlib import Path

import pytest

import bisim_oracle
import game_oracle as O
import modal_oracle
from helpers import LOW_LIMIT, linear_order, model_doc, random_frame, random_valuation, successors, valuation
from uext import Frame, Model, frame_from_dict, frame_to_dict
from uext.frame import MODEL_FIELDS
from uext.fo import _EFGame, distinguishing_sentence, ef_equivalent, ef_min_rounds, format_fo, spoiler_line
from uext.modal import Prop, _BisimGame, distinguishing_formula, modally_equivalent_upto, n_bisimilar, parse_modal

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = [json.loads(line) for line in (ROOT / "tests" / "golden" / "games.jsonl").read_text().splitlines()]
PAIRS = 320


def relabelled(rng: random.Random, f: Frame) -> tuple[Frame, dict[str, str]]:
    """f under fresh names in a shuffled load order, and the renaming."""
    names = dict(zip(f.vertices, rng.sample([f"u{i}" for i in range(len(f.vertices))], len(f.vertices))))
    order = rng.sample(list(f.vertices), len(f.vertices))
    return Frame(tuple(names[v] for v in order), frozenset((names[a], names[b]) for a, b in f.edges)), names


def edgeless(rng: random.Random) -> Frame:
    return Frame(tuple(f"e{i}" for i in range(rng.randint(1, 5))), frozenset())


def frame_pair(rng: random.Random, i: int) -> tuple[Frame, Frame]:
    """Random pairs, isomorphic pairs, edgeless pairs and edgeless against random, in turn."""
    kind = i % 4
    f1 = edgeless(rng) if kind == 2 else random_frame(rng, 5)
    if kind == 1:
        return f1, relabelled(rng, f1)[0]
    return f1, edgeless(rng) if kind >= 2 else random_frame(rng, 5)


def test_ef_agrees_with_the_pair_position_search():
    # rounds 0-6 reach and pass the clip, max(|F1|, |F2|) + 1 <= 6; a typing that also
    # skipped a fresh element would answer some edgeless pair too early
    rng, lost = random.Random(1101), 0
    for i in range(PAIRS):
        f1, f2 = frame_pair(rng, i)
        d1, d2, k = frame_to_dict(f1), frame_to_dict(f2), rng.randint(0, 6)
        phi = distinguishing_sentence(f1, f2, k)
        assert ef_equivalent(f1, f2, k) == O.ef_equivalent(d1, d2, k), (d1, d2, k)
        assert ef_min_rounds(f1, f2, k) == O.ef_min_rounds(d1, d2, k), (d1, d2, k)
        assert spoiler_line(f1, f2, k) == O.spoiler_line(d1, d2, k), (d1, d2, k)
        assert (phi and O.tree(phi)) == O.distinguishing_sentence(d1, d2, k), (d1, d2, k)
        lost += phi is not None
    assert 100 <= lost <= PAIRS - 100


def test_ef_witnesses_agree_with_the_search_where_a_pair_is_played_again(monkeypatch):
    # a pair played again leaves its position's tuples one shorter, so it reads a round count's
    # types below the one the scan stopped at: the one read of the level tables off the scan.
    # Lines and sentences probe such positions whenever Spoiler tries an element already
    # played; played from one, every answer and witness agrees with the pair-position search
    rng, probes, wins, lost = random.Random(1103), [], _EFGame.wins, 0

    def probed(game, pos, k):
        if k and len(game.sides(pos)[0]) < len(pos):
            probes.append(pos)
        return wins(game, pos, k)

    monkeypatch.setattr(_EFGame, "wins", probed)
    for i in range(PAIRS // 2):
        f1, f2 = frame_pair(rng, i)
        d1, d2, k = frame_to_dict(f1), frame_to_dict(f2), rng.randint(1, 6)
        phi = distinguishing_sentence(f1, f2, k)
        assert spoiler_line(f1, f2, k) == O.spoiler_line(d1, d2, k), (d1, d2, k)
        assert (phi and O.tree(phi)) == O.distinguishing_sentence(d1, d2, k), (d1, d2, k)
        game, search = _EFGame(f1, f2), O.EFGame(d1, d2)
        game.least((), k)
        first, second = [(rng.randrange(len(f1.vertices)), rng.randrange(len(f2.vertices))) for _ in range(2)]
        for pos in ((first, first), (first, second, first), (first, second, second)):
            if not all(search.check(pos[:j]) for j in range(1, len(pos))):
                continue  # play goes on only from positions whose atoms agree
            n = game.least(pos, k)
            assert n == search.least(pos, k), (d1, d2, pos, k)
            lost += n is not None
            if n:
                assert game.spoiler_move(pos, n) == search.spoiler_move(pos, n), (d1, d2, pos, n)
                assert O.tree(game.distinguish(pos, n)) == search.distinguish(pos, n), (d1, d2, pos, n)
    assert len(probes) >= 500 and lost >= 80


def model_pair(rng: random.Random, i: int) -> tuple[Model, Model]:
    """Random pairs, a model against a relabelled copy, and edgeless models, in turn."""
    kind = i % 3
    f1 = edgeless(rng) if kind == 2 else random_frame(rng, 5)
    m1 = Model.make(f1, random_valuation(rng, f1, ["p0", "p1"][:rng.randint(0, 2)]))
    if kind == 1:
        f2, names = relabelled(rng, f1)
        return m1, Model.make(f2, {p: [names[w] for w in ws] for p, ws in valuation(m1).items()})
    f2 = edgeless(rng) if kind == 2 else random_frame(rng, 5)
    return m1, Model.make(f2, random_valuation(rng, f2, ["p0", "p1"][:rng.randint(0, 2)]))


def test_bisim_agrees_with_the_pair_position_search():
    rng, lost = random.Random(1102), 0
    for i in range(PAIRS):
        m1, m2 = model_pair(rng, i)
        d1, d2 = model_doc(m1), model_doc(m2)
        w1, w2, n = rng.choice(m1.frame.vertices), rng.choice(m2.frame.vertices), rng.randint(0, 6)
        letters, case = sorted(m1.masks)[:rng.randint(0, 2)], (d1, w1, d2, w2, n)
        phi = distinguishing_formula(m1, w1, m2, w2, n, letters)
        assert n_bisimilar(m1, w1, m2, w2, n) == O.n_bisimilar(*case), case
        assert (phi and O.tree(phi)) == O.distinguishing_formula(*case, letters), case
        lost += phi is not None
    assert 80 <= lost <= PAIRS - 80


def chain(n: int, prefix: str, cycle: bool = False) -> Frame:
    v = tuple(f"{prefix}{i}" for i in range(n))
    return Frame(v, frozenset((v[i], v[(i + 1) % n]) for i in range(n if cycle else n - 1)))


def test_bisim_at_the_largest_admitted_depth_runs():
    # two 100-point models clip every depth to 200; the chains' witness has depth 99
    cycle = Model.make(chain(100, "c", cycle=True), {"p0": ["c0"]})
    assert n_bisimilar(cycle, "c0", cycle, "c0", 3000)
    assert distinguishing_formula(cycle, "c0", cycle, "c1", 3000, ["p0"]) is not None
    line = Model.make(chain(100, "v"), {})
    assert n_bisimilar(line, "v0", line, "v0", 200)
    phi, succ = distinguishing_formula(line, "v0", line, "v1", 200, []), successors(line.frame)
    assert O.modal_depth(phi) == 99 and modal_oracle.holds(succ, {}, "v0", phi)
    assert not modal_oracle.holds(succ, {}, "v1", phi)


def ladder(rungs: int) -> Model:
    """rungs + 1 levels of two worlds a_i, b_i, each seeing both worlds of the level above."""
    levels = [(f"a{i}", f"b{i}") for i in range(rungs + 1)]
    edges = frozenset((x, y) for low, high in zip(levels, levels[1:]) for x in low for y in high)
    return Model.make(Frame(sum(levels, ()), edges), {})


def test_each_subgame_of_a_witness_is_solved_once(monkeypatch):
    # from the foot of a 12-rung ladder against an 11-rung one, Spoiler climbs on board 1 and
    # both of Duplicator's answers lead to the same subgames a rung up: 2^12 branches of play
    # but 24 distinct (position, rounds) pairs, and Spoiler's move is sought once in each
    asked, spoiler_move = [], _BisimGame.spoiler_move

    def counted(self, pos, k):
        asked.append((pos, k))
        return spoiler_move(self, pos, k)

    monkeypatch.setattr(_BisimGame, "spoiler_move", counted)
    high, low = ladder(12), ladder(11)
    phi = distinguishing_formula(high, "a0", low, "a0", 100, [])
    assert len(asked) == len(set(asked)) <= 24
    assert O.tree(phi) == O.distinguishing_formula(model_doc(high), "a0", model_doc(low), "a0", 100, [])
    assert O.modal_depth(phi) == 12 and modal_oracle.holds(successors(high.frame), {}, "a0", phi)
    assert not modal_oracle.holds(successors(low.frame), {}, "a0", phi)


def marked_cycle(n: int, marked: int) -> Model:
    """An n-cycle with p0 at marked worlds spaced evenly around it."""
    f = chain(n, "c", cycle=True)
    return Model.make(f, {"p0": [f"c{i}" for i in range(0, n, n // marked)] if marked else []})


@pytest.mark.parametrize("n", [67, 100, 150])
def test_bisim_verdict_past_the_stack(n):
    # the n-cycle with one marked world and the 2n-cycle with two agree at every depth; the
    # refinement of their union is stable after about n rounds, so 10^6 rounds cost no more
    assert n_bisimilar(marked_cycle(n, 1), "c0", marked_cycle(2 * n, 2), "c0", 10**6)
    assert n_bisimilar(marked_cycle(n, 1), "c1", marked_cycle(2 * n, 2), f"c{n + 1}", 10**6)
    assert not n_bisimilar(marked_cycle(n, 1), "c0", marked_cycle(2 * n, 2), "c1", 10**6)


@pytest.mark.parametrize("marked, typed", [(1, 19_800), (0, 200)])
def test_bisim_refines_no_round_past_the_stable_one(marked, typed):
    # two identical 100-cycles: with one marked world the union's 200 worlds split one class
    # more each round up to 100 classes at round 98, and round 99 splits nothing; unmarked,
    # round 1 splits nothing.  Every later count up to the clip, 200, reads the stable round
    m = marked_cycle(100, marked)
    game = _BisimGame(m, m, ["p0"])
    assert game.least((0, 100), 3000) is None and game.typed <= typed


def test_bisim_verdict_is_stable_past_the_clip():
    # the union's partition is stable by round |W1| + |W2|, so depth 10^6 answers as that depth
    # does, and as the oracle's refinement at that depth
    rng = random.Random(1103)
    for i in range(200):
        m1, m2 = model_pair(rng, i)
        w1, w2 = rng.choice(m1.frame.vertices), rng.choice(m2.frame.vertices)
        clip, d1, d2 = len(m1.frame.vertices) + len(m2.frame.vertices), model_doc(m1), model_doc(m2)
        truth = bisim_oracle.n_bisimilar((successors(m1.frame), valuation(m1)), w1,
                                         (successors(m2.frame), valuation(m2)), w2,
                                         clip, sorted(m1.masks.keys() | m2.masks.keys()))
        assert n_bisimilar(m1, w1, m2, w2, 10**6) == n_bisimilar(m1, w1, m2, w2, clip) == truth, (d1, w1, d2, w2)


def test_ef_at_the_largest_admitted_rounds_runs():
    # typing a 200-element tuple is out of reach, so the game runs under a low fixed limit
    # instead; edgeless frames of 5 and 6 points are told apart only at 6
    f1, f2 = (Frame(tuple(f"{p}{i}" for i in range(n)), frozenset()) for p, n in (("a", 5), ("b", 6)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(LOW_LIMIT)
    try:
        assert ef_min_rounds(f1, f2, 6) == 6 and len(spoiler_line(f1, f2, 6)) == 12
        phi = distinguishing_sentence(f1, f2, 6)
    finally:
        sys.setrecursionlimit(limit)
    assert O.quantifier_rank(phi) == 6
    assert O.fo_holds(frame_to_dict(f1), phi) and not O.fo_holds(frame_to_dict(f2), phi)


def test_ef_pair_told_apart_at_rank_1_costs_rank_1(monkeypatch):
    # every answer scans up from 0 rounds, so 10-point frames told apart by a loop are settled
    # at 1 round under a cap that typing them at 8 rounds would pass many times over
    v = tuple(f"v{i}" for i in range(10))
    looped, plain = (Frame(v, frozenset([(v[1], v[2])] + loop)) for loop in ([(v[0], v[0])], []))
    monkeypatch.setenv("UEXT_EF_MEMO_LIMIT", "100")
    for rounds in (8, 11, 3000):
        assert not ef_equivalent(looped, plain, rounds) and ef_min_rounds(looped, plain, rounds) == 1
        assert spoiler_line(looped, plain, rounds) == ["S:1:v0", "D:2:v0"]
        phi = distinguishing_sentence(looped, plain, rounds)
        assert O.tree(phi) == O.read_fo("exists x0. R(x0,x0)")


def test_pairs_told_apart_at_round_0_or_1_answer_every_question_at_3000_rounds():
    # the clips are 300 and 301 rounds, but the scan stops at the first count where the states'
    # types differ, so these cost what round 0 or 1 costs
    cycle = chain(150, "c", cycle=True)
    m1, m2 = Model.make(cycle, {"p0": ["c0"]}), Model.make(cycle, {"p0": ["c1"]})
    assert not n_bisimilar(m1, "c0", m2, "c0", 3000)
    assert distinguishing_formula(m1, "c0", m2, "c0", 3000, ["p0"]) == Prop("p0")
    assert modally_equivalent_upto(m1, "c0", m2, "c0", 3000, ["p0"]) == (False, Prop("p0"))
    v = tuple(f"v{i}" for i in range(300))
    looped, plain = Frame(v, frozenset([("v0", "v0")])), Frame(v, frozenset())
    assert not ef_equivalent(looped, plain, 3000) and ef_min_rounds(looped, plain, 3000) == 1
    assert spoiler_line(looped, plain, 3000) == ["S:1:v0", "D:2:v0"]
    assert format_fo(distinguishing_sentence(looped, plain, 3000)) == "exists x0. R(x0,x0)"


def test_isomorphic_seven_point_frames_are_typed_to_the_clip():
    # Duplicator survives every count, so the scan types both frames up to the clip, 8 rounds
    f = chain(7, "v")
    g, _ = relabelled(random.Random(7), f)
    assert ef_equivalent(f, g, 8) and ef_min_rounds(f, g, 3000) is None
    assert spoiler_line(f, g, 8) == [] and distinguishing_sentence(f, g, 8) is None


def ef_counters(f1: Frame, f2: Frame, rounds: int) -> tuple:
    """The scan's answer and the typing counters it leaves: states typed and types."""
    game = _EFGame(f1, f2)
    return game.least((), rounds), game.typed, len(game.types)


# (least, typed, types) for L_m vs L_n, 2 <= m <= n <= 7, at 5 rounds
ORDER_COUNTERS = [
    (None, 26, 9), (2, 22, 6), (2, 30, 6), (2, 40, 6), (2, 52, 6), (2, 66, 6),
    (None, 92, 29), (3, 93, 26), (3, 148, 29), (3, 231, 30), (3, 348, 31),
    (None, 386, 100), (3, 181, 28), (3, 264, 29), (3, 381, 30), (None, 1300, 227),
    (3, 319, 28), (3, 436, 29), (None, 3910, 462), (3, 519, 28), (None, 10076, 745),
]


def test_ef_typing_counters_are_pinned_on_linear_orders():
    # the typing lists injective tuples and types one diagonal per round count: these counts are
    # the work it does, so a rewrite of it that types a tuple twice, or one Duplicator never needs,
    # changes them; the types count also tells rank-0 atoms apart from interned type ids
    counts = [ef_counters(linear_order(m), linear_order(n, "w"), 5) for m in range(2, 8) for n in range(m, 8)]
    assert counts == ORDER_COUNTERS


# the same counters for 40 seeded pairs of at most 6 points, at 6 rounds
RANDOM_COUNTERS = [
    (2, 52, 11), (None, 26, 9), (1, 10, 2), (2, 88, 15), (1, 7, 2), (None, 26, 6),
    (2, 46, 11), (2, 30, 9), (2, 36, 8), (None, 7824, 1553), (2, 46, 11), (1, 8, 2),
    (2, 66, 13), (None, 92, 31), (1, 11, 2), (2, 52, 11), (1, 5, 2), (None, 1952, 575),
    (1, 8, 2), (2, 88, 15), (1, 8, 2), (None, 92, 10), (2, 26, 6), (2, 30, 9),
    (2, 88, 14), (None, 26, 9), (1, 11, 2), (None, 8, 3), (2, 58, 12), (None, 8, 3),
    (1, 11, 2), (2, 58, 11), (1, 13, 2), (None, 26, 6), (1, 7, 2), (2, 58, 12),
    (1, 6, 2), (None, 26, 9), (2, 54, 12), (1, 11, 2),
]


def test_ef_typing_counters_are_pinned_on_random_pairs():
    # every fourth pair is a relabelled copy, which is typed all the way to 6 rounds
    rng, counts = random.Random(1907), []
    for i in range(40):
        f1 = random_frame(rng, 6)
        f2 = relabelled(rng, f1)[0] if i % 4 == 1 else random_frame(rng, 6)
        counts.append(ef_counters(f1, f2, 6))
    assert counts == RANDOM_COUNTERS


# (least, typed) at depth 10^6: worlds typed over the union's refined rounds
BISIM_COUNTERS = [
    (0, 0), (None, 56), (0, 0), (0, 0), (None, 2), (1, 9), (0, 0), (None, 48), (0, 0), (0, 0), (None, 70),
    (0, 0), (None, 14), (None, 30), (1, 8), (0, 0), (None, 2), (0, 0), (1, 6), (None, 28), (0, 0), (1, 7),
    (None, 4), (1, 8), (0, 0), (None, 16), (1, 9), (1, 11), (None, 8), (1, 9), (1, 6), (None, 6), (None, 5),
    (1, 6), (None, 56), (1, 9), (0, 0), (None, 24), (0, 0), (0, 0), (None, 12), (0, 0), (1, 9), (None, 2),
    (1, 9), (1, 3), (None, 2), (1, 11), (0, 0), (None, 2), (2, 20), (0, 0), (None, 4), (0, 0), (1, 6),
    (None, 4), (1, 10), (1, 8), (None, 12), (0, 0),
]


def test_bisim_typing_counters_are_pinned_on_random_models():
    # every third pair is a relabelled copy asked at a world and its image, which refines to
    # the stable round
    rng, counts = random.Random(1908), []
    for i in range(60):
        f1 = random_frame(rng, 7, 0.25)
        m1, w1 = Model.make(f1, random_valuation(rng, f1, ["p0"])), rng.randrange(len(f1.vertices))
        if i % 3 == 1:
            f2, names = relabelled(rng, f1)
            m2 = Model.make(f2, {p: [names[w] for w in ws] for p, ws in valuation(m1).items()})
            w2 = f2.position(names[f1.vertices[w1]])
        else:
            f2 = random_frame(rng, 7, 0.25)
            m2, w2 = Model.make(f2, random_valuation(rng, f2, ["p0"])), rng.randrange(len(f2.vertices))
        game = _BisimGame(m1, m2, ["p0"])
        counts.append((game.least((w1, len(f1.vertices) + w2), 10**6), game.typed))
    assert counts == BISIM_COUNTERS


def test_repeat_pairs_and_broken_atoms_type_nothing_new():
    # a pair played again is left out of the states typed, and a last step whose atoms disagree
    # is lost before any typing
    f1, f2 = chain(4, "a"), chain(4, "b", cycle=True)
    game = _EFGame(f1, f2)
    assert game.sides(((0, 0), (2, 1), (0, 0), (2, 1))) == ((0, 2), (0, 1))
    survives, typed = game.wins(((0, 0),), 2), game.typed
    assert game.wins(((0, 0), (0, 0)), 2) == game.wins(((0, 0), (0, 0), (0, 0)), 2) == survives
    assert not game.wins(((0, 0), (0, 1)), 2) and not game.wins(((0, 0), (3, 3)), 2)
    assert game.typed == typed


@pytest.mark.parametrize("kind", ["frames", "models"])
def test_pinned_witnesses_hold_by_the_oracle_evaluators(kind):
    # each pinned sentence is true on frame 1, false on frame 2 and of rank min_rounds; each
    # pinned modal witness is true at w1, false at w2 and of the least separating depth
    cases = [case for case in GOLDEN if kind in case]
    assert len(cases) == {"frames": 200, "models": 400}[kind]
    witnesses = 0
    for case in cases:
        if kind == "frames":
            d1, d2 = case["frames"]
            if case["sentence"] is None:
                continue
            phi = O.read_fo(case["sentence"])
            assert O.fo_holds(d1, phi) and not O.fo_holds(d2, phi), case
            assert O.quantifier_rank(phi) == case["min_rounds"], case
        else:
            (d1, d2), (w1, w2) = case["models"], case["at"]
            if case["witness"] is None:
                continue
            phi = parse_modal(case["witness"])
            m1, m2 = ((successors(frame_from_dict(d, MODEL_FIELDS)), {p: set(ws) for p, ws in d["valuation"].items()})
                      for d in (d1, d2))
            assert modal_oracle.holds(*m1, w1, phi) and not modal_oracle.holds(*m2, w2, phi), case
            least = next(n for n in range(case["depth"] + 1)
                         if not bisim_oracle.n_bisimilar(m1, w1, m2, w2, n, case["letters"]))
            assert O.modal_depth(phi) == least, case
        witnesses += 1
    assert witnesses >= 100


def comb(levels: int, p0_at_tip: bool) -> Model:
    """A path v0 -> ... -> v<levels>, loaded first, each of its points with three leaves labelled
    nothing, p0 and p1; p0 also holds at the path's tip when p0_at_tip."""
    path = [f"v{i}" for i in range(levels + 1)]
    leaves = [(f"l{i}:{j}", v) for i, v in enumerate(path) for j in range(3)]
    edges = list(zip(path, path[1:])) + [(v, leaf) for leaf, v in leaves]
    val = {"p0": [leaf for leaf, _ in leaves[1::3]] + path[-1:] * p0_at_tip,
           "p1": [leaf for leaf, _ in leaves[2::3]]}
    return Model.make(Frame(tuple(path) + tuple(leaf for leaf, _ in leaves), frozenset(edges)), val)


@pytest.mark.parametrize("order", ["tip first", "plain first"])
def test_deep_witness_with_several_parts_per_round(order):
    # each round's witness joins a deep part (the path) to shallow ones (the leaves), so it nests
    # several levels per round; parts are de-duplicated by identity, never hashed or compared
    # as whole trees, so the guard's round count is all the stack a witness needs
    tip, plain = comb(150, True), comb(150, False)
    m1, m2 = (tip, plain) if order == "tip first" else (plain, tip)
    phi = distinguishing_formula(m1, "v0", m2, "v0", 200, ["p0", "p1"])
    assert phi is not None
    d1, d2 = ((successors(m.frame), valuation(m)) for m in (m1, m2))
    assert modal_oracle.holds(*d1, "v0", phi) and not modal_oracle.holds(*d2, "v0", phi)
    depth = O.modal_depth(phi)  # the least separating depth: the models part there, not one before
    assert not bisim_oracle.n_bisimilar(d1, "v0", d2, "v0", depth, ["p0", "p1"])
    assert bisim_oracle.n_bisimilar(d1, "v0", d2, "v0", depth - 1, ["p0", "p1"])
