"""Bit-sliced frame validity against the world-by-world and mask-enumeration
oracles, across block boundaries, and under its valuation cap."""

import json
import random
import tracemalloc

import modal_oracle
from uext import Frame, frame_valid, modal
from uext.cli import main
from uext.modal import TOP, Box, Dia, Falsum, Imp, parse_modal

from helpers import all_3vertex_frames, random_frame, successors, valuation

GEACH = [f"{'<>' * k}{'[]' * l}p0 -> {'[]' * m}{'<>' * n}p0"
         for k in (0, 1) for l in (0, 1) for m in (0, 1) for n in (0, 1)]
CORPUS = list(dict.fromkeys([
    "[]p0 -> p0",                      # T
    "[]p0 -> [][]p0",                  # 4
    "p0 -> []<>p0",                    # B
    "[]p0 -> <>p0",                    # D
    "<>p0 -> []<>p0",                  # 5
    "[]<>p0 -> <>[]p0",                # McKinsey
    "[]([]p0 -> p0) -> []p0",          # Loeb
    *GEACH,
    "[](p0 -> p1) -> ([]p0 -> []p1)",  # K
    "[]p0 & []p1 -> <>(p0 & p1)",
    "<>p0 & <>p1 -> <>(p0 & p1)",
]))
LETTER_FREE = [Falsum(), TOP, Box(Falsum()), Dia(TOP), Imp(Dia(TOP), Box(Dia(TOP)))]
FORMULAS = [parse_modal(t) for t in CORPUS] + LETTER_FREE


def corpus_frames():
    yield from all_3vertex_frames()
    yield Frame((), frozenset())
    rng = random.Random(1410)
    for _ in range(300):
        yield random_frame(rng, max_n=6, edge_p=rng.choice((0.2, 0.4, 0.7)))


def chain(n: int) -> Frame:
    """The reflexive chain v0 <= v1 <= ... <= v(n-1)."""
    vs = tuple(f"v{i}" for i in range(n))
    return Frame(vs, frozenset((vs[i], vs[j]) for i in range(n) for j in range(i, n)))


def check_against_oracles(f: Frame, phi, world_oracle: bool = True):
    ok, counter = frame_valid(f, phi)
    want = modal_oracle.enumerate_valid(len(f.vertices), f.succ_mask, phi)
    if counter is None:
        assert (ok, want) == (True, (True, None)), (f, phi)
    else:
        model, w = counter
        assert not ok and want == (False, (model.masks, f.position(w))), (f, phi)
    if world_oracle:
        got = counter if counter is None else (valuation(counter[0]), counter[1])
        assert modal_oracle.frame_valid(f.vertices, successors(f), phi) == (ok, got), (f, phi)
    return ok


def test_frame_valid_matches_both_oracles_on_the_corpus():
    verdicts = {True: 0, False: 0}
    for f in corpus_frames():
        for phi in FORMULAS:
            # the world-by-world oracle is too slow for two letters on 5 or 6 points
            verdicts[check_against_oracles(f, phi, len(modal.letters(phi)) * len(f.vertices) <= 8)] += 1
    assert min(verdicts.values()) > 2000


def test_first_counterexample_in_a_later_block():
    # reflexive except v15, whose one successor is v16: p0 = {v16} is valuation 2^16,
    # the first of the second block
    vs = tuple(f"v{i}" for i in range(17))
    f = Frame(vs, frozenset([(v, v) for v in vs if v != "v15"] + [("v15", "v16")]))
    phi = parse_modal("[]p0 -> p0")
    ok, (model, w) = frame_valid(f, phi)
    assert not ok and (valuation(model), w) == ({"p0": frozenset({"v16"})}, "v15")
    check_against_oracles(f, phi, world_oracle=False)


def test_first_counterexample_sets_a_block_bit_of_the_second_letter():
    # every world sees only v8, so []p1 holds iff v8 is in p1, which is bit 17 of the
    # valuation (block 2); the least refutation of []p1 -> ~p0 adds p0 = {v0} (bit 0)
    vs = tuple(f"v{i}" for i in range(9))
    f = Frame(vs, frozenset((v, "v8") for v in vs))
    phi = parse_modal("[]p1 -> ~p0")
    ok, (model, w) = frame_valid(f, phi)
    assert not ok and (valuation(model), w) == ({"p0": frozenset({"v0"}), "p1": frozenset({"v8"})}, "v0")
    check_against_oracles(f, phi, world_oracle=False)


def test_valid_chain_over_sixteen_blocks():
    # a reflexive chain is reflexive and transitive, so T and 4 hold under all 2^20 valuations
    f = chain(20)
    assert frame_valid(f, parse_modal("[]p0 -> [][]p0")) == (True, None)
    assert frame_valid(f, parse_modal("[]p0 -> p0")) == (True, None)


def test_over_cap_exits_2_before_any_table(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("UEXT_VALUATION_LIMIT", raising=False)
    built = []
    monkeypatch.setattr(modal, "table", lambda j, n: built.append((j, n)))
    f = chain(23)
    path = tmp_path / "chain23.json"
    path.write_text(json.dumps({"vertices": list(f.vertices), "edges": sorted(map(list, f.edges))}))
    tracemalloc.start()
    try:
        code = main(["modal", "valid", str(path), "[]p0 -> p0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and built == []
    assert "over the cap 4194304" in capsys.readouterr().err
    # one 2^23-bit table alone would take 1 MiB
    assert peak < 2**23 // 8 // 4


def test_valid_chain_at_the_cap_stays_within_its_blocks(monkeypatch):
    monkeypatch.delenv("UEXT_VALUATION_LIMIT", raising=False)
    f, phi = chain(22), parse_modal("[]p0 -> [][]p0")
    tracemalloc.start()
    try:
        verdict = frame_valid(f, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == (True, None)
    # full-width tables would take 512 KiB per world and subformula (11 MiB per subformula
    # here); a block holds 22 worlds x 4 subformulas x 8 KiB, plus 16 valuation-bit tables
    assert peak < 2 * 2**20

