import random

import pytest

import uext.census as census_mod
from uext import (
    FamilyPresentation,
    Frame,
    Generator,
    InputError,
    Ray,
    ResourceError,
    build_ue,
    canonical_form,
    expand,
    family_from_dict,
    generated_substructure_verdict,
    greedy_coloring,
    hull,
    hull_census,
    modal_logic_coincides,
    reflexive_point_in_ue,
    rooted_iso,
    ue_skeleton,
)
from uext.census import GENERATORS, OMEGA, census_to_dict, clique_lower_bound, default_budget

import census_oracle
import evidence_oracle
from helpers import random_bounded_frame, successors

SUCC_RAY = FamilyPresentation(
    rays=(Ray(Frame(("v",), frozenset()), (("v", "v"),), "ray"),)
)
SUCC_LINE = FamilyPresentation(
    rays=(Ray(Frame(("v",), frozenset()), (("v", "v"),), "line"),)
)
CHAINS = FamilyPresentation(generator=Generator("chains_lt"))
NAT_LT = FamilyPresentation(generator=Generator("nat_lt"))


def test_family_from_dict():
    fam = family_from_dict({
        "base": {"vertices": ["a"], "edges": [["a", "a"]]},
        "omega_templates": [{"vertices": ["t"], "edges": []}],
        "rays": [{"period": {"vertices": ["v"], "edges": []},
                  "seam": [["v", "v"]], "kind": "ray"}],
    })
    assert fam.base.has_edge("a", "a")
    assert len(fam.omega_templates) == 1
    assert fam.rays[0].kind == "ray"
    with pytest.raises(InputError):
        family_from_dict({"generator": {"name": "nosuch"}})


def test_ray_seam_endpoints_validated():
    with pytest.raises(InputError):
        Ray(Frame(("v",), frozenset()), (("v", "q"),), "ray")


def test_expand_ray_is_a_path():
    f = expand(SUCC_RAY, 5)
    assert len(f.vertices) == 5
    assert len(f.edges) == 4
    degs = sorted(len(s) for s in successors(f).values())
    assert degs == [0, 1, 1, 1, 1]


def test_expand_line_is_symmetric_window():
    f = expand(SUCC_LINE, 3)
    assert len(f.vertices) == 7
    assert len(f.edges) == 6


def test_expand_is_monotone():
    small, large = expand(NAT_LT, 4), expand(NAT_LT, 8)
    assert set(small.vertices) <= set(large.vertices)
    assert small.edges <= large.edges


def test_expand_rejects_id_collisions():
    fam = FamilyPresentation(
        base=Frame(("0",), frozenset()), generator=Generator("nat_lt")
    )
    with pytest.raises(InputError, match="collide"):
        expand(fam, 3)


def test_skeleton_rejects_representative_id_collisions():
    # the representative of the looped template's type is named rep0:t, like the
    # base vertex; merging them used to give that base vertex a loop, silently
    fam = family_from_dict({"base": {"vertices": ["rep0:t"], "edges": []},
                            "omega_templates": [{"vertices": ["t"], "edges": [["t", "t"]]}]})
    with pytest.raises(InputError, match="^vertex ids collide across family parts: 'rep0:t'$"):
        ue_skeleton(fam, 1)
    # detect modal builds no representative, so the base's name clashes with nothing
    ok, report = modal_logic_coincides(fam, 1)
    assert ok and list(report["matches"].values()) == ["t0.0:t"] and report["unmatched"] == []


def test_census_ray_depths_1_to_3():
    for n in (1, 2, 3):
        c = hull_census(SUCC_RAY, n)
        omegas = c.omega_types()
        assert len(omegas) == 1
        finite = [m for m in c.entries.values() if m != OMEGA]
        assert finite == [1] * n  # one origin type per copy that still sees the end
        rep = c.representatives[omegas[0]]
        assert len(rep.graph.vertices) == 2 * n + 1  # integer-line window


def test_census_line_all_omega():
    c = hull_census(SUCC_LINE, 2)
    assert list(c.entries.values()) == [OMEGA]


def test_census_template_is_omega():
    tpl = Frame(("t0", "t1"), frozenset([("t0", "t1")]))
    c = hull_census(FamilyPresentation(omega_templates=(tpl,)), 1)
    assert set(c.entries.values()) == {OMEGA}


def _ray_corpus(seed: int, size: int) -> list[FamilyPresentation]:
    """Seeded bases and templates with one or two rays or lines, some of them seamless."""
    rng = random.Random(seed)
    fams = []
    for _ in range(size):
        rays = []
        for _ in range(rng.randint(1, 2)):
            period = random_bounded_frame(rng, 3, 2)
            seam = tuple((rng.choice(period.vertices), rng.choice(period.vertices)) for _ in range(rng.choice((0, 1, 1, 2))))
            rays.append(Ray(period, seam, rng.choice(("ray", "ray", "line"))))
        fams.append(FamilyPresentation(
            base=random_bounded_frame(rng, 4, 2) if rng.random() < 0.5 else Frame((), frozenset()),
            omega_templates=tuple(random_bounded_frame(rng, 3, 2) for _ in range(rng.randint(0, 1))),
            rays=tuple(rays),
        ))
    return fams


def test_census_equals_the_stabilisation_scan():
    # the n-step rule (copies 0..n-1 once, copy n as omega) against the scan it replaced
    fams = _ray_corpus(seed=20, size=300)
    rays = [ray for fam in fams for ray in fam.rays]
    assert any(ray.kind == "ray" and not ray.seam for ray in rays)  # every copy of the same type
    assert any(ray.kind == "line" for ray in rays)
    assert any(len(fam.rays) == 2 for fam in fams)
    assert any(fam.omega_templates for fam in fams) and any(fam.base.vertices for fam in fams)
    for fam in fams:
        for n in range(6):
            assert census_to_dict(hull_census(fam, n)) == census_oracle.census_doc(fam, n), (fam, n)


def test_census_base_is_exact():
    base = Frame(("a", "b"), frozenset([("a", "b")]))
    c = hull_census(FamilyPresentation(base=base), 1)
    assert sorted(c.entries.values()) == [1, 1]
    assert c.exact


def test_census_requires_bounded_degree():
    # the family is well formed but its census would be infinite: a limit of uext (exit 2), not
    # bad input, and the line names the generator
    for fam in (CHAINS, NAT_LT):
        for run in (hull_census, ue_skeleton, modal_logic_coincides):
            with pytest.raises(ResourceError, match=f"generator '{fam.generator.name}' has unbounded degree"):
                run(fam, 1)
    # a bounded generator has a census, but of lower bounds with no omega type for detect modal to match
    for fam in (FamilyPresentation(generator=Generator("nat_succ")),
                FamilyPresentation(base=Frame(("a",), frozenset()), generator=Generator("nat_succ"))):
        with pytest.raises(ResourceError, match="generator 'nat_succ' gives only lower bounds"):
            modal_logic_coincides(fam, 2)
        with pytest.raises(InputError, match="^census depth must be nonnegative$"):  # bad input comes first
            modal_logic_coincides(fam, -1)


def test_census_generator_lower_bounds():
    succ_gen = FamilyPresentation(generator=Generator("nat_succ"))
    c = hull_census(succ_gen, 1)
    assert not c.exact
    interior = [m for m in c.entries.values() if m != OMEGA and m > 1]
    assert interior  # settled interior vertices accumulate, never marked omega
    assert OMEGA not in c.entries.values()


def test_skeleton_reps_match_census():
    sk = ue_skeleton(SUCC_RAY, 2)
    rep_tags = {p for p in sk.provenance.values() if p.startswith("type:")}
    assert len(rep_tags) == 1
    cert = next(iter(rep_tags)).removeprefix("type:")
    assert cert in sk.census.entries
    # the representative subgraph is rooted-isomorphic to an interior hull
    window = expand(SUCC_RAY, 9)
    mid = window.vertices[4]
    rep = sk.census.representatives[cert]
    assert rooted_iso(rep, hull(window, mid, 2))[0]


def test_greedy_coloring_proper_and_bounded():
    f = expand(SUCC_RAY, 6)
    colors = greedy_coloring(f)
    for a, b in f.edges:
        assert colors[a] != colors[b]
    assert max(colors.values()) <= 2


def test_clique_lower_bound_on_tournament():
    size, clique = clique_lower_bound(Generator("chains_lt").expansion(5))  # K_1 .. K_5
    assert size == 5 and len(clique) == 5


def test_reflexive_finite_matches_brute_force():
    # small frames: the extension is isomorphic to the base, so the verdict
    # must equal "the base has a loop"
    import itertools

    verts = ("a", "b")
    slots = [(x, y) for x in verts for y in verts]
    for mask in range(16):
        f = Frame(verts, frozenset(slots[i] for i in range(4) if mask & (1 << i)))
        fam = FamilyPresentation(base=f)
        v = reflexive_point_in_ue(fam, 10)
        ue = build_ue(f)
        has_loop = any(ue.frame.has_edge(u, u) for u in ue.frame.vertices)
        assert (v.kind == "yes") == has_loop


def test_reflexive_verdicts():
    assert reflexive_point_in_ue(SUCC_RAY, 10).kind == "no"
    v = reflexive_point_in_ue(CHAINS, 10)
    assert v.kind == "yes" and v.data["component_index"] <= 11
    v = reflexive_point_in_ue(NAT_LT, 10)
    assert v.kind == "yes"
    assert v.data["inequivalence_sentences"] == ("forall x. ~R(x,x)", "exists x. R(x,x)")


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_builtin_components_are_loop_free(name):
    # the reflexive detector reads no generator expansion for loops: it relies on this
    gen = Generator(name)
    for count in range(33):
        assert not any(a == b for a, b in gen.expansion(count).edges), (name, count)


def test_reflexive_template_loop_wins():
    fam = FamilyPresentation(omega_templates=(Frame(("t",), frozenset([("t", "t")])),))
    assert reflexive_point_in_ue(fam, 10).kind == "yes"


def test_generated_substructure_verdicts():
    assert generated_substructure_verdict(SUCC_RAY).kind == "yes"
    assert generated_substructure_verdict(FamilyPresentation(generator=Generator("nat_succ"))).kind == "yes"
    v = generated_substructure_verdict(NAT_LT)
    assert v.kind == "no" and v.data["witness"] == "0"
    # chains_lt declares finite out-degree (its components are finite chains)
    v = generated_substructure_verdict(CHAINS)
    assert (v.kind, v.evidence) == ("yes", "presentation guarantees finite out-degree everywhere")


def test_modal_logic_coincides_on_ray():
    for n in (1, 2, 3):
        ok, report = modal_logic_coincides(SUCC_RAY, n)
        assert ok, report
        assert not report["unmatched"]


def _family_corpus(seed: int, size: int) -> list[FamilyPresentation]:
    """Seeded bases, templates, rays and lines (their vertex names overlap across parts), plus nat_succ."""
    rng = random.Random(seed)
    fams = [FamilyPresentation(generator=Generator("nat_succ"))]
    for _ in range(size):
        rays = []
        for _ in range(rng.randint(0, 2)):
            period = random_bounded_frame(rng, 3, 2)
            seam = tuple((rng.choice(period.vertices), rng.choice(period.vertices)) for _ in range(rng.randint(1, 2)))
            rays.append(Ray(period, seam, rng.choice(["ray", "line"])))
        fams.append(FamilyPresentation(
            base=random_bounded_frame(rng, 4, 2) if rng.random() < 0.6 else Frame((), frozenset()),
            omega_templates=tuple(random_bounded_frame(rng, 4, 2) for _ in range(rng.randint(0, 2))),
            rays=tuple(rays),
            generator=Generator("nat_succ") if rng.random() < 0.3 else None,
        ))
    return fams


def test_each_hull_is_certified_once_per_call(monkeypatch):
    certified = []
    real = census_mod.canonical_form

    def counting(h):
        certified.append((h.graph.vertices, h.graph.edges, h.root))
        return real(h)

    monkeypatch.setattr(census_mod, "canonical_form", counting)
    total = 0
    for fam in _family_corpus(seed=321, size=40):
        for n in (1, 2, 3):
            for call in (hull_census, ue_skeleton):
                certified.clear()
                call(fam, n)
                distinct = len(set(certified))
                assert len(certified) == distinct, \
                    f"{call.__name__} at depth {n}: {len(certified)} certificates for {distinct} hulls of {fam}"
                total += distinct
    assert total  # the wrapper saw the census's certificates


def test_hulls_of_one_shape_are_certified_once(monkeypatch):
    # the memo is keyed by a hull's rows renumbered root first, so isomorphic copies hit it
    calls = []
    real = census_mod.canonical_form
    monkeypatch.setattr(census_mod, "canonical_form", lambda h: calls.append(h) or real(h))
    leaves = [f"l{i}" for i in range(6)]
    star = family_from_dict({"omega_templates": [{"vertices": ["c", *leaves], "edges": [["c", v] for v in leaves]}]})
    assert len(hull_census(star, 1).entries) == 2 and len(calls) == 2
    for fam in _family_corpus(seed=322, size=40):
        for n in (1, 2):
            calls.clear()
            census = hull_census(fam, n)
            assert len({h.shape for h in calls}) == len(calls) == len(census.certificates)


def test_the_load_order_subframe_is_built_once_per_printed_type(monkeypatch):
    # a base of 12 copies of a 3-point path: its 36 hulls are certified from their rows, and
    # only the census document, which prints each type's representative, restricts the base
    restricted = []
    real = Frame.restrict
    monkeypatch.setattr(Frame, "restrict", lambda frame, mask: restricted.append(mask) or real(frame, mask))
    copies = [f"c{k}:{v}" for k in range(12) for v in "abc"]
    base = {"vertices": copies, "edges": [[f"c{k}:a", f"c{k}:b"] for k in range(12)]
                                        + [[f"c{k}:b", f"c{k}:c"] for k in range(12)]}
    for fam in (family_from_dict({"base": base}), family_from_dict({"base": base, "omega_templates": [base]})):
        restricted.clear()
        census = hull_census(fam, 1)
        assert restricted == []
        types = census_to_dict(census)["types"]
        assert len(types) == 3 and len(restricted) == 3
        census_to_dict(census)  # a representative's subframe is built once
        assert len(restricted) == 3


def test_hulls_of_one_shape_have_one_certificate():
    for fam in _family_corpus(seed=323, size=30):
        frame = expand(fam, 3)
        for n in (1, 2):
            certs: dict = {}
            for v in frame.vertices:
                h = hull(frame, v, n)
                assert certs.setdefault(h.shape, canonical_form(h).hex) == canonical_form(h).hex


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_expansion_is_the_first_seen_union(name):
    # each builtin declares the union of its components in closed form; the oracle unions them by name
    gen = Generator(name)
    for count in range(41):
        verts, edges = evidence_oracle.builtin_union(name, count)
        expansion = gen.expansion(count)
        assert expansion.vertices == tuple(verts), (name, count)
        assert expansion.edges == edges, (name, count)
        assert gen.vertices(count) == tuple(evidence_oracle.builtin_component(name, count)[0])


def _built(build, refused):
    """What build returns as vertex names in order and edges, or the line it is refused with."""
    try:
        verts, edges = build()
    except refused as e:
        return str(e)
    return list(verts), set(edges)


def _names(frame: Frame):
    return frame.vertices, frame.edges


def test_expansions_and_skeletons_equal_the_first_seen_union():
    # the parts are joined as row blocks side by side; the oracle unions them by name
    skeletons = 0
    for fam in _family_corpus(seed=324, size=40):
        for b in range(5):
            assert _built(lambda: _names(expand(fam, b)), InputError) == \
                _built(lambda: census_oracle.expansion(fam, b), ValueError), (fam, b)
        for n in (1, 2):
            sk = ue_skeleton(fam, n)
            assert _built(lambda: _names(sk.frame), InputError) == \
                _built(lambda: census_oracle.skeleton(fam, sk.census, sk.budget), ValueError), (fam, n)
            skeletons += len(sk.frame.vertices) > len(expand(fam, sk.budget).vertices)
    assert skeletons > 20  # most skeletons hold representatives past the expansion


def test_a_collision_names_the_least_id_the_first_repeating_part_shares():
    tpl = Frame(("a", "b", "c"), frozenset([("a", "b")]))
    ray = Ray(Frame(("z",), frozenset()), (("z", "z"),), "ray")
    # the base shares three ids with template 0's copies and a lesser one with ray 0's unrolling
    parts = FamilyPresentation(base=Frame(("t0.1:b", "r0.0:z", "t0.0:c", "t0.1:a"), frozenset()),
                               omega_templates=(tpl,), rays=(ray,))
    # the base shares three ids with the generator's first six components
    gen = FamilyPresentation(base=Frame(("5", "x", "3", "4"), frozenset()), generator=Generator("nat_succ"))
    for fam, line in ((parts, "vertex ids collide across family parts: 't0.0:c'"),
                      (gen, "generator vertex ids collide with family parts: '3'")):
        with pytest.raises(InputError) as refused:
            expand(fam, 6)
        assert str(refused.value) == line
        assert _built(lambda: census_oracle.expansion(fam, 6), ValueError) == line
    # a template whose two points have two hull types at depth 1, so two representatives, rep0 and
    # rep1, each named after both points; the base shares two ids with rep0 and two with rep1
    fam = FamilyPresentation(base=Frame(("rep1:s", "rep0:t", "rep1:t", "rep0:s"), frozenset()),
                             omega_templates=(Frame(("s", "t"), frozenset([("s", "t")])),))
    census = hull_census(fam, 1)
    with pytest.raises(InputError) as refused:
        ue_skeleton(fam, 1)
    assert str(refused.value) == "vertex ids collide across family parts: 'rep0:s'"
    assert _built(lambda: census_oracle.skeleton(fam, census, default_budget(fam, 1)), ValueError) == \
        str(refused.value)


def _outcome(run, fam, n):
    """What run(fam, n) returns, or the type and line of its refusal."""
    try:
        return run(fam, n)
    except (InputError, ResourceError) as e:
        return type(e).__name__, str(e)


def test_modal_logic_coincides_equals_the_skeleton_walk():
    # the expansion is hulled alone, where the oracle hulls it inside the whole skeleton
    cases = refused = 0
    for seed in (321, 322, 5):
        for fam in _family_corpus(seed=seed, size=40):
            for n in (1, 2, 3):
                got = _outcome(modal_logic_coincides, fam, n)
                assert got == _outcome(census_oracle.modal_logic_coincides, fam, n), (fam, n)
                cases, refused = cases + 1, refused + isinstance(got[0], str)
    assert (cases, refused) == (369, 111)


def test_modal_logic_coincides_stops_once_every_omega_type_matches(monkeypatch):
    # only each omega-type's first expansion vertex is reported, so no hull past the last
    # of them is built, where a full scan would end at the last expansion vertex
    rooted = []
    real = census_mod.hull
    monkeypatch.setattr(census_mod, "hull", lambda frame, v, n: rooted.append(v) or real(frame, v, n))
    stopped = 0
    for fam in _family_corpus(seed=321, size=40):
        for n in (1, 2):
            if fam.generator is not None:  # a lower-bound census has no omega type to match
                with pytest.raises(ResourceError, match="gives only lower bounds"):
                    modal_logic_coincides(fam, n)
                continue
            sk = ue_skeleton(fam, n)
            rooted.clear()
            ok, report = modal_logic_coincides(fam, n)
            expansion = [v for v, origin in sk.provenance.items() if origin == "expansion"]
            if ok and report["matches"]:
                assert rooted[-1] == max(report["matches"].values(), key=expansion.index)
                stopped += rooted[-1] != expansion[-1]
    assert stopped > 10
