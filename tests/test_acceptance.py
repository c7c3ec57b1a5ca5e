"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is produced by an independent oracle (brute-force
enumeration, a second definition, or a hand-checkable closed form), never by
the code under test.
"""

import itertools
import random
import time

from uext import (
    FamilyPresentation,
    Frame,
    Generator,
    Model,
    Ray,
    Ultrafilter,
    build_ue,
    canonical_form,
    degree,
    distinguishing_sentence,
    ef_equivalent,
    ef_min_rounds,
    enumerate_ultrafilters,
    eval_fo,
    extend_model,
    generated_substructure_verdict,
    hull,
    hull_census,
    hull_formula,
    index_ultrafilter,
    modal_logic_coincides,
    parse_fo,
    quantifier_rank,
    reflexive_point_in_ue,
    reverse,
    rooted_iso,
    sentences_upto,
    truth_membership_check,
    ue_related,
    ultraproduct,
    ue_skeleton,
)
from uext.census import OMEGA
from uext.fo import free_vars

import iso_oracle
from helpers import (
    all_3vertex_frames,
    random_bounded_frame,
    random_frame,
    random_modal,
    random_valuation,
    successors,
)

SUCC_RAY = FamilyPresentation(
    rays=(Ray(Frame(("v",), frozenset()), (("v", "v"),), "ray"),)
)


def report(line: str) -> None:
    print(f"\n{line}")


def corpus(seed: int, count: int, max_n: int = 6):
    rng = random.Random(seed)
    yield from all_3vertex_frames()
    for _ in range(count):
        yield random_frame(rng, max_n=max_n)


def test_01_three_definition_agreement():
    t0 = time.time()
    for f in corpus(101, 500):
        us = enumerate_ultrafilters(f)
        for u, v in itertools.product(us, repeat=2):
            a = ue_related(u, v, "A")
            b = ue_related(u, v, "B")
            c = ue_related(u, v, "C")
            assert a == b == c
            # oracle: over a finite frame principal extensions mirror base edges
            assert a == f.has_edge(u.point, v.point)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(f"criterion 01 three-definition agreement: PASS ({elapsed:.1f}s)")


def test_02_canonical_embedding_isomorphism():
    for f in corpus(102, 500):
        ue = build_ue(f)
        assert len(ue.frame.vertices) == len(f.vertices)
        assert set(ue.frame.vertices) == {f"pi:{w}" for w in f.vertices}
        assert ue.frame.edges == {(f"pi:{a}", f"pi:{b}") for a, b in f.edges}
    report("criterion 02 canonical embedding is an isomorphism: PASS")


def test_03_truth_membership_lemma():
    rng = random.Random(103)
    checked = 0
    for _ in range(200):
        f = random_frame(rng, max_n=6)
        letters = ["p0", "p1", "p2"][: rng.randint(1, 3)]
        m = Model.make(f, random_valuation(rng, f, letters))
        uem = extend_model(m)
        for _ in range(50):
            phi = random_modal(rng, rng.randint(0, 4), letters)
            assert truth_membership_check(uem, phi)
            checked += 1
    assert checked >= 200 * 50
    report(f"criterion 03 truth-membership lemma on {checked} checks: PASS")


def test_04_degree_transfer_and_exactness():
    # oracle: recompute degrees on both frames by direct successor counting
    rng = random.Random(104)
    frames = list(all_3vertex_frames()) + [random_frame(rng, 6) for _ in range(120)]
    for f in frames:
        ue = build_ue(f)
        bound = max((len(s) for s in successors(f).values()), default=0)
        for w in f.vertices:
            d_ue = degree(ue.frame, f"pi:{w}")
            assert d_ue.deg_plus <= bound
            assert d_ue.deg_plus == degree(f, w).deg_plus
            # exactness: the bound is attained upstairs iff attained at the point
            assert (d_ue.deg_plus == bound) == (degree(f, w).deg_plus == bound)
    report("criterion 04 degree transfer and exactness: PASS")


def test_05_reflexivity_transfer():
    for f in all_3vertex_frames():
        ue = build_ue(f)
        for w in f.vertices:
            # oracle: {v : Rvv} belongs to the principal ultrafilter at w iff Rww
            assert ue.frame.has_edge(f"pi:{w}", f"pi:{w}") == f.has_edge(w, w)
    report("criterion 05 reflexivity transfer: PASS")


def test_06_inverse_commutation():
    rng = random.Random(106)
    frames = list(all_3vertex_frames()) + [random_frame(rng, 6) for _ in range(120)]
    for f in frames:
        lhs = build_ue(reverse(f)).frame.edges
        rhs = reverse(build_ue(f).frame).edges
        assert lhs == rhs
    report("criterion 06 inverse commutation (exact edge sets): PASS")


def test_07_successor_ray_fixture():
    t0 = time.time()
    for n in (1, 2, 3):
        c = hull_census(SUCC_RAY, n)
        omegas = c.omega_types()
        assert len(omegas) == 1
        finite = sorted(m for m in c.entries.values() if m != OMEGA)
        assert finite == [1] * n
        # oracle: the omega representative is a 2n+1 integer-line window
        k = 2 * n + 1
        window = Frame(
            tuple(f"z{i}" for i in range(k)),
            frozenset((f"z{i}", f"z{i+1}") for i in range(k - 1)),
        )
        from uext import RootedGraph

        expected = RootedGraph(window, f"z{n}", n)
        assert rooted_iso(c.representatives[omegas[0]], expected)[0]
    sk = ue_skeleton(SUCC_RAY, 2)
    assert any(p.startswith("type:") for p in sk.provenance.values())
    for n in (1, 2, 3):
        ok, rep = modal_logic_coincides(SUCC_RAY, n)
        assert ok, rep
    elapsed = time.time() - t0
    assert elapsed < 10
    report(f"criterion 07 successor-ray census, skeleton, modal coincidence: PASS ({elapsed:.1f}s)")


def test_08_reflexive_point_verdicts():
    t0 = time.time()
    chains = FamilyPresentation(generator=Generator("chains_lt"))
    v = reflexive_point_in_ue(chains, 10)
    assert v.kind == "yes"
    assert "chromatic" in v.evidence
    assert v.data["component_index"] <= 11
    v = reflexive_point_in_ue(SUCC_RAY, 10)
    assert v.kind == "no"
    coloring = v.data["colorings"]["ray 0 (period-doubled quotient)"]
    assert max(coloring.values()) + 1 == 2
    elapsed = time.time() - t0
    assert elapsed < 10
    report(f"criterion 08 reflexive-point verdicts with evidence: PASS ({elapsed:.1f}s)")


def test_09_nat_lt_fixture():
    nat_lt = FamilyPresentation(generator=Generator("nat_lt"))
    g = generated_substructure_verdict(nat_lt)
    assert g.kind == "no" and g.data["witness"] == "0"
    v = reflexive_point_in_ue(nat_lt, 10)
    assert v.kind == "yes"
    s1, s2 = v.data["inequivalence_sentences"]
    assert (s1, s2) == ("forall x. ~R(x,x)", "exists x. R(x,x)")
    # oracle: the first sentence holds in every finite expansion, and the
    # second holds in any frame with a reflexive point
    from uext import expand

    assert eval_fo(expand(nat_lt, 6), parse_fo(s1))
    loop = Frame(("r",), frozenset([("r", "r")]))
    assert eval_fo(loop, parse_fo(s2))
    report("criterion 09 strict-order fixture verdicts and sentence pair: PASS")


def test_10_los_on_finite_ultraproducts():
    rng = random.Random(110)
    sentence_pool = [parse_fo(s) for s in [
        "exists x. R(x,x)",
        "forall x. ~R(x,x)",
        "exists x. exists y. (R(x,y) & ~x=y)",
        "forall x. exists y. R(x,y)",
        "exists x. forall y. (x=y | R(x,y))",
        "forall x. forall y. (R(x,y) -> R(y,x))",
    ]]
    instances = 0
    while instances < 100:
        k = rng.randint(1, 4)
        factors = [random_frame(rng, 5) for _ in range(k)]
        i0 = rng.randrange(k)
        d = index_ultrafilter(k, i0)
        up = ultraproduct(factors, d)
        for phi in rng.sample(sentence_pool, 3):
            assert quantifier_rank(phi) <= 2
            # oracle: product truth iff the agreement set belongs to d
            truth_set = frozenset(str(i) for i in range(k) if eval_fo(factors[i], phi))
            assert eval_fo(up.frame, phi) == d.member(truth_set)
        instances += 1
    report(f"criterion 10 Los biconditional on {instances} finite ultraproducts: PASS")


def linear_order(n: int, prefix: str) -> Frame:
    verts = tuple(f"{prefix}{i}" for i in range(n))
    return Frame(verts, frozenset(
        (verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)
    ))


def test_11_ef_solver_oracle():
    rng = random.Random(111)
    for _ in range(30):
        f = random_frame(rng, 5)
        perm = list(f.vertices)
        rng.shuffle(perm)
        ren = dict(zip(f.vertices, perm))
        g = Frame(tuple(perm), frozenset((ren[a], ren[b]) for a, b in f.edges))
        for k in range(5):
            assert ef_equivalent(f, g, k)
    f3, f4 = linear_order(3, "v"), linear_order(4, "w")
    k = ef_min_rounds(f3, f4, 6)
    assert k == 3  # oracle: linear orders of sizes m < m' agree up to rounds r iff m >= 2^r - 1
    # the sentence search agrees: nothing of lower rank separates, and a
    # synthesized sentence of rank k does
    assert all(eval_fo(f3, s) == eval_fo(f4, s) for s in sentences_upto(k - 1))
    phi = distinguishing_sentence(f3, f4, k)
    assert free_vars(phi) == frozenset() and quantifier_rank(phi) <= k
    assert eval_fo(f3, phi) != eval_fo(f4, phi)
    report("criterion 11 EF solver vs sentence search: PASS")


def test_12_hull_cross_oracle():
    t0 = time.time()
    rng = random.Random(112)
    hulls = []
    for _ in range(1000):
        f = random_bounded_frame(rng, 10, 3)
        w = rng.choice(f.vertices)
        n = rng.randint(0, 2)
        hulls.append((f, w, hull(f, w, n)))
    checked = 0
    for (f1, w1, h1), (f2, w2, h2) in zip(hulls, hulls[1:] + hulls[:1]):
        if h1.depth != h2.depth:
            continue
        by_cert = canonical_form(h1).certificate == canonical_form(h2).certificate
        by_iso = rooted_iso(h1, h2)[0]
        by_oracle = iso_oracle.rooted_iso(*((h.graph.vertices, h.graph.edges, h.root) for h in (h1, h2)))[0]
        by_formula = eval_fo(f2, parse_fo(hull_formula(h1)), {"x": w2})
        assert by_cert == by_iso == by_oracle == by_formula
        checked += 1
    assert checked >= 300
    elapsed = time.time() - t0
    assert elapsed < 120
    report(f"criterion 12 hull certificate/iso/backtracker/formula agreement on {checked} pairs: PASS ({elapsed:.1f}s)")
