import itertools
import math
import random
import sys
from types import SimpleNamespace

import pytest

import uext.ultra
from uext import (
    Frame,
    InputError,
    ResourceError,
    Ultrafilter,
    build_ue,
    distinguishing_sentence,
    ef_equivalent,
    ef_min_rounds,
    eval_fo,
    format_fo,
    frame_to_dict,
    index_ultrafilter,
    los_like_check,
    parse_fo,
    quantifier_rank,
    sentences_upto,
    spoiler_line,
    ultraproduct,
)
from uext.fo import Eq, Exists, Forall, Rel, _EFGame, free_vars
from uext.syntax import Imp, Not, Or

import game_oracle as O
from helpers import LOW_LIMIT, linear_order, random_frame
from product_oracle import ultraproduct as product_oracle

TRI = Frame(("a", "b", "c"), frozenset([("a", "b"), ("a", "c"), ("b", "c")]))


def test_parse_quantifier_scope_is_maximal():
    phi = parse_fo("exists x. R(x,y) & x=y")
    assert isinstance(phi, Exists)
    assert free_vars(phi) == {"y"}


def test_parse_connectives():
    phi = parse_fo("~R(x,y) -> x=y | R(y,x)")
    assert phi == Imp(Not(Rel("x", "y")), Or(Eq("x", "y"), Rel("y", "x")))


def test_parse_errors():
    with pytest.raises(InputError):
        parse_fo("exists. R(x,x)")
    with pytest.raises(InputError):
        parse_fo("R(x)")
    with pytest.raises(InputError):
        parse_fo("forall exists. x=x")


def test_format_round_trip():
    for text in [
        "forall x. ~R(x,x)",
        "exists x. exists y. (R(x,y) & ~x=y)",
        "forall x. (exists y. R(x,y) -> exists y. R(y,x))",
    ]:
        phi = parse_fo(text)
        assert parse_fo(format_fo(phi)) == phi


def test_eval_basics():
    assert eval_fo(TRI, parse_fo("forall x. ~R(x,x)"))
    assert eval_fo(TRI, parse_fo("exists x. forall y. (x=y | R(x,y))"))
    assert not eval_fo(TRI, parse_fo("exists x. R(x,x)"))
    assert eval_fo(TRI, parse_fo("R(x,y)"), {"x": "a", "y": "b"})


def test_eval_unbound_variable():
    with pytest.raises(InputError):
        eval_fo(TRI, parse_fo("R(x,y)"), {"x": "a"})


def test_quantifier_rank():
    assert quantifier_rank(parse_fo("R(x,y)")) == 0
    assert quantifier_rank(parse_fo("exists x. forall y. R(x,y)")) == 2
    # quantifier scope is maximal, so the second exists nests inside the first
    assert quantifier_rank(parse_fo("exists x. R(x,x) & exists y. R(y,y)")) == 2
    assert quantifier_rank(parse_fo("(exists x. R(x,x)) & (exists y. R(y,y))")) == 1


def test_ef_isomorphic_frames_indistinguishable():
    rng = random.Random(3)
    for _ in range(20):
        f = random_frame(rng, 5)
        perm = list(f.vertices)
        rng.shuffle(perm)
        ren = dict(zip(f.vertices, perm))
        g = Frame(tuple(perm), frozenset((ren[a], ren[b]) for a, b in f.edges))
        assert ef_equivalent(f, g, 4)


def test_ef_linear_orders_3_vs_4():
    k = ef_min_rounds(linear_order(3), linear_order(4, "w"), 5)
    assert k == 3
    assert ef_equivalent(linear_order(3), linear_order(4, "w"), 2)
    assert not ef_equivalent(linear_order(3), linear_order(4, "w"), 3)


def test_spoiler_line_length():
    line = spoiler_line(linear_order(3), linear_order(4, "w"), 3)
    spoiler_moves = [step for step in line if step.startswith("S:")]
    assert len(spoiler_moves) == 3


def test_distinguishing_sentence_separates():
    f1, f2 = linear_order(3), linear_order(4, "w")
    phi = distinguishing_sentence(f1, f2, 3)
    assert phi is not None
    assert free_vars(phi) == frozenset()
    assert quantifier_rank(phi) <= 3
    assert eval_fo(f1, phi) != eval_fo(f2, phi)


def test_distinguishing_sentence_none_when_equivalent():
    assert distinguishing_sentence(linear_order(3), linear_order(3, "w"), 4) is None


def test_sentence_search_agrees_with_game():
    f1, f2 = linear_order(3), linear_order(4, "w")
    # no rank-2 sentence separates them, matching duplicator's 2-round win,
    # while the synthesized rank-3 sentence does
    assert all(eval_fo(f1, s) == eval_fo(f2, s) for s in sentences_upto(2))
    phi = distinguishing_sentence(f1, f2, 3)
    assert quantifier_rank(phi) <= 3
    assert eval_fo(f1, phi) != eval_fo(f2, phi)


def test_los_like_on_random_frames():
    rng = random.Random(9)
    formulas = [
        parse_fo("exists y. R(x,y)"),
        parse_fo("forall y. (R(x,y) -> exists z. R(y,z))"),
        parse_fo("R(x,x)"),
        parse_fo("exists y. (R(y,x) & ~x=y)"),
    ]
    for _ in range(25):
        f = random_frame(rng, 5)
        w = rng.choice(f.vertices)
        for phi in formulas:
            ok, _, _ = los_like_check(f, phi, Ultrafilter(f, w))
            assert ok


def test_los_like_catches_a_broken_extension(monkeypatch):
    # the membership side is read on the frame, so dropping pi_a's out-edges from the
    # extension of a -> b -> c shows as disagreement
    chain = Frame(("a", "b", "c"), frozenset([("a", "b"), ("b", "c")]))
    ue = build_ue(chain).frame
    broken = Frame(ue.vertices, frozenset((x, y) for x, y in ue.edges if x != "pi:a"))
    monkeypatch.setattr(uext.ultra, "build_ue", lambda frame: SimpleNamespace(frame=broken))
    assert los_like_check(chain, parse_fo("exists y. R(x,y)"), Ultrafilter(chain, "a")) == (False, False, True)


def test_los_like_needs_one_free_variable():
    with pytest.raises(InputError):
        los_like_check(TRI, parse_fo("forall x. ~R(x,x)"), Ultrafilter(TRI, "a"))


def test_ultraproduct_principal_is_factor():
    factors = [TRI, linear_order(2, "u"), linear_order(3, "z")]
    d = index_ultrafilter(3, 1)
    up = ultraproduct(factors, d)
    # with a principal ultrafilter the product is elementarily the chosen factor
    for text in ["exists x. R(x,x)", "forall x. exists y. R(x,y)",
                 "exists x. forall y. (x=y | R(x,y))"]:
        phi = parse_fo(text)
        assert eval_fo(up.frame, phi) == eval_fo(factors[1], phi)


def test_ultraproduct_diagonal_embeds_chosen_factor():
    cycle = Frame(("v0", "v1", "v2"), frozenset([("v0", "v1"), ("v1", "v2"), ("v2", "v0")]))
    factors = [linear_order(3), cycle]
    d = index_ultrafilter(2, 0)
    up = ultraproduct(factors, d)
    for a, b in itertools.product(factors[0].vertices, repeat=2):
        assert up.frame.has_edge(up.diagonal(a), up.diagonal(b)) == factors[0].has_edge(a, b)


@pytest.mark.parametrize("names, point", [(("i", "j"), "i"), (("0", "5"), "5")])
def test_ultraproduct_index_must_name_a_factor(names, point):
    # the principal point names a factor only as "0", "1", ...: any other is an input error,
    # not a ValueError or IndexError from reading it as an int
    d = Ultrafilter(Frame(names, frozenset()), point)
    message = rf"^index ultrafilter is principal at '{point}', not at an index below 2$"
    with pytest.raises(InputError, match=message):
        ultraproduct([TRI, TRI], d)


def test_ultraproduct_matches_product_oracle():
    # classes, edges and representatives against the full choice-function enumeration
    rng = random.Random(73)
    empties = 0
    for _ in range(500):
        factors = [random_frame(rng, 4, 0.4) if rng.random() < 0.9 else Frame((), frozenset())
                   for _ in range(rng.randint(1, 4))]
        i0 = rng.randrange(len(factors))
        up = ultraproduct(factors, index_ultrafilter(len(factors), i0))
        order, edges, reps = product_oracle([(f.vertices, f.edges) for f in factors], i0)
        assert up.frame.vertices == tuple(order)
        assert up.frame.edges == frozenset(edges)
        assert up.representatives == tuple(reps)
        empties += not order
    assert empties > 20


def test_ultraproduct_of_many_factors():
    # 10^12 choice functions, 10 classes: the representatives are built, not searched for
    factors = [linear_order(10, f"f{k}_") for k in range(12)]
    up = ultraproduct(factors, index_ultrafilter(12, 5))
    assert up.frame.vertices == factors[5].vertices
    assert up.frame.edges == factors[5].edges
    assert up.representatives[3] == tuple("f5_3" if k == 5 else f"f{k}_0" for k in range(12))


def test_sentences_upto_rejects_negative_rank():
    with pytest.raises(InputError, match="max_rank must be nonnegative"):
        sentences_upto(-1)


def test_ef_rounds_clip_at_isomorphism_bound():
    # past max(|F1|, |F2|) + 1 rounds the verdict is isomorphism: the unclipped game agrees
    rng = random.Random(61)
    for _ in range(60):
        f1, f2 = random_frame(rng, 3), random_frame(rng, 3)
        bound = max(len(f1.vertices), len(f2.vertices)) + 1
        game = _EFGame(f1, f2)
        assert {game.wins((), k) for k in range(bound, bound + 3)} == {ef_equivalent(f1, f2, bound + 5)}
        assert ef_min_rounds(f1, f2, bound + 5) == ef_min_rounds(f1, f2, bound)
        phi = distinguishing_sentence(f1, f2, bound + 5)
        if phi is not None:  # read off the clipped game: rank <= bound, true in f1, false in f2
            assert quantifier_rank(phi) <= bound and eval_fo(f1, phi) and not eval_fo(f2, phi)
            assert spoiler_line(f1, f2, bound + 5)


def test_line_and_sentence_are_read_at_the_least_round_count():
    # a line holds exactly ef_min_rounds Spoiler moves, each answered on the other board, and
    # the sentence has that rank (no sentence of lower rank separates the frames)
    rng, lost = random.Random(73), 0
    for _ in range(300):
        f1, f2, rounds = random_frame(rng, 5), random_frame(rng, 5), rng.randint(0, 4)
        k = ef_min_rounds(f1, f2, rounds)
        line, phi = spoiler_line(f1, f2, rounds), distinguishing_sentence(f1, f2, rounds)
        if k is None:
            assert line == [] and phi is None
            continue
        lost += 1
        assert [step[0] for step in line] == ["S", "D"] * k, line
        assert all(int(s[2]) + int(d[2]) == 3 for s, d in zip(line[::2], line[1::2])), line
        assert quantifier_rank(phi) == k and eval_fo(f1, phi) and not eval_fo(f2, phi)
    assert lost >= 150


def test_one_game_answers_every_round_count_as_fresh_games_do():
    # the memo and the intern table are shared by all round counts; asked in any order, one
    # game agrees with a fresh game per count
    rng = random.Random(31)
    for _ in range(150):
        f1, f2 = random_frame(rng, 4), random_frame(rng, 4)
        shared, counts = _EFGame(f1, f2), list(range(5))
        rng.shuffle(counts)
        for k in counts:
            assert shared.wins((), k) == _EFGame(f1, f2).wins((), k), (f1, f2, k)


def test_ef_min_rounds_builds_one_game(monkeypatch):
    built, init = [], _EFGame.__init__

    def counted(game, f1, f2):
        built.append(game)
        init(game, f1, f2)

    monkeypatch.setattr(_EFGame, "__init__", counted)
    assert ef_min_rounds(linear_order(3), linear_order(4, "w"), 5) == 3
    assert len(built) == 1


def test_ef_clip_past_the_stack_is_refused_when_reached(monkeypatch):
    # 300 rounds clip to 251, past Python's default stack, but the scan types from 0 rounds up:
    # isomorphic frames are refused by the memo cap long before it reaches 251
    edgeless = Frame(tuple(f"v{i}" for i in range(250)), frozenset())
    monkeypatch.setenv("UEXT_EF_MEMO_LIMIT", "1000")
    with pytest.raises(ResourceError, match=r"^EF memo table exceeded cap 1000 \(set UEXT_EF_MEMO_LIMIT\)$"):
        ef_equivalent(edgeless, edgeless, 300)
    monkeypatch.delenv("UEXT_EF_MEMO_LIMIT")
    # neither the scan nor the witness recurses, so on a stack a few dozen frames above the test's
    # own the scan answers to the clip and the witness is the one built at the default limit
    small, limit = Frame(edgeless.vertices[:5], frozenset()), sys.getrecursionlimit()
    witness = distinguishing_sentence(linear_order(3), linear_order(4, "w"), 300)
    sys.setrecursionlimit(LOW_LIMIT)
    try:
        assert ef_equivalent(small, small, 300) is True
        assert distinguishing_sentence(linear_order(3), linear_order(4, "w"), 300) == witness
    finally:
        sys.setrecursionlimit(limit)
    assert O.quantifier_rank(witness) == 3
    assert O.fo_holds(frame_to_dict(linear_order(3)), witness)
    assert not O.fo_holds(frame_to_dict(linear_order(4, "w")), witness)
    # ef_min_rounds plays, and so checks, only the rounds it needs: a loop settles it in one
    assert ef_min_rounds(edgeless, Frame(edgeless.vertices, frozenset([("v0", "v0")])), 300) == 1


def test_fo_evaluation_too_deep_for_the_stack_is_one_resource_error():
    # evaluation recurses once per level: a 2,000-deep ~ chain built in code ends in one
    # resource error naming its depth, from eval_fo and los_like_check alike, while a 150-deep
    # chain, past the parser's bound, evaluates
    loop = Frame(("a", "b"), frozenset([("a", "a")]))
    deep, shallow = Rel("x", "x"), Rel("x", "x")
    for _ in range(2000):
        deep = Not(deep)
    for _ in range(150):
        shallow = Not(shallow)
    message = r"^FO evaluation ran out of interpreter stack on a formula 2001 levels deep$"
    with pytest.raises(ResourceError, match=message):
        eval_fo(loop, deep, {"x": "a"})
    with pytest.raises(ResourceError, match=message):
        los_like_check(loop, deep, Ultrafilter(loop, "a"))
    assert eval_fo(loop, shallow, {"x": "a"}) is True and eval_fo(loop, shallow, {"x": "b"}) is False
    assert los_like_check(loop, shallow, Ultrafilter(loop, "b")) == (True, False, False)


def test_ef_cap_is_checked_before_a_diagonal_is_typed(monkeypatch):
    # two 60-point edgeless frames at 4 rounds: round count 4 holds 11,703,240 tuples of length 4
    # per frame, past the default cap, and is refused on its exact count before any of it is
    # listed or typed; the counts 1 to 3 are typed in full, lengths 0 to 2 listed
    monkeypatch.delenv("UEXT_EF_MEMO_LIMIT", raising=False)
    edgeless = Frame(tuple(f"v{i}" for i in range(60)), frozenset())
    game = _EFGame(edgeless, edgeless)
    with pytest.raises(ResourceError, match=r"^EF memo table exceeded cap 4194304 \(set UEXT_EF_MEMO_LIMIT\)$"):
        game.least((), 4)
    assert game.typed == 2 * sum(math.perm(60, length) for d in range(1, 4) for length in range(d + 1))
    assert list(game.diagonals) == [1, 2, 3]
    assert [len(atoms) for atoms in game.atoms] == [3, 3]  # lengths 0, 1 and 2
    assert [reached for reached, _ in game.profiles] == [1, 1]
