"""Every detector verdict on the family corpus, the fixtures and the probe families,
checked by tests/evidence_oracle.py, which imports nothing from uext."""

import copy
import json
import time
from pathlib import Path

import pytest

from evidence_oracle import check_generated, check_reflexive
from helpers import cli_outcome

ROOT = Path(__file__).resolve().parents[1]
CORPUS = [case for case in map(json.loads, (ROOT / "tests" / "golden" / "hulls.jsonl").read_text().splitlines())
          if "family" in case]
K11 = {"vertices": [f"k{i}" for i in range(11)],
       "edges": [[f"k{i}", f"k{j}"] for i in range(11) for j in range(i + 1, 11)]}
POINT = {"vertices": ["z"], "edges": []}
PROBES = [  # loop-free families of finite chromatic number that the threshold scan answered "yes" on
    ("K11 base + point template", {"base": K11, "omega_templates": [POINT]}, 10),
    ("ray with K11 period", {"rays": [{"period": K11, "seam": [["k0", "k0"]], "kind": "ray"}]}, 10),
    ("one-point template at threshold 0", {"omega_templates": [POINT]}, 0),
]


def detect(tmp_path, fam: dict, prop: str, *extra: str) -> dict:
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    out = cli_outcome(["detect", prop, str(path), *extra])
    assert (out["exit"], out["stderr"]) == (0, ""), out
    return json.loads(out["stdout"])


def test_corpus_families(tmp_path):
    assert len(CORPUS) == 60
    for case in CORPUS:
        fam, t = case["family"], case["chi_threshold"]
        check_reflexive(fam, t, detect(tmp_path, fam, "reflexive", "--chi-threshold", str(t)))
        check_generated(fam, detect(tmp_path, fam, "generated"))


@pytest.mark.parametrize("name", ["nat_succ", "nat_lt", "chains_lt"])
def test_fixtures_at_every_threshold(tmp_path, name):
    # the unbounded builtins show a (t+1)-clique for each t up to 15
    fam = json.loads((ROOT / "fixtures" / f"{name}.json").read_text())
    for t in range(16):
        check_reflexive(fam, t, detect(tmp_path, fam, "reflexive", "--chi-threshold", str(t)))
    check_generated(fam, detect(tmp_path, fam, "generated"))


@pytest.mark.parametrize("name, fam, t", PROBES, ids=[p[0] for p in PROBES])
def test_probe_families_are_no(tmp_path, name, fam, t):
    out = detect(tmp_path, fam, "reflexive", "--chi-threshold", str(t))
    assert out["verdict"] == "no", name
    check_reflexive(fam, t, out)


@pytest.mark.parametrize("name", ["nat_lt", "chains_lt"])
def test_large_threshold_clique_is_read_off_the_component(tmp_path, name):
    # component t is the clique shown: no search over the 45,451 points of chains_lt at t = 300
    fam = json.loads((ROOT / "fixtures" / f"{name}.json").read_text())
    t0 = time.perf_counter()
    out = detect(tmp_path, fam, "reflexive", "--chi-threshold", "300")
    assert time.perf_counter() - t0 < 1
    check_reflexive(fam, 300, out)


def test_checker_rejects_wrong_evidence(tmp_path):
    succ = json.loads((ROOT / "fixtures" / "nat_succ.json").read_text())
    nat_lt = json.loads((ROOT / "fixtures" / "nat_lt.json").read_text())
    no, clique = detect(tmp_path, succ, "reflexive"), detect(tmp_path, nat_lt, "reflexive")
    growing = detect(tmp_path, nat_lt, "generated")
    reflexive = lambda fam, out: check_reflexive(fam, 10, out)  # noqa: E731
    for fam, out, check, edit in [
        (succ, no, reflexive, lambda o: o.update(verdict="yes")),
        (succ, no, reflexive, lambda o: o["data"]["colorings"]["ray 0 (period-doubled quotient)"].update({"v@1": 0})),
        (succ, no, reflexive, lambda o: o.update(evidence="uniform coloring schema with <= 3 colors")),
        (nat_lt, clique, reflexive, lambda o: o["data"]["clique"].pop()),
        (nat_lt, clique, reflexive, lambda o: o["data"].update(component_index=9)),
        (nat_lt, growing, check_generated, lambda o: o["data"]["degrees"].update({"32": 15})),
        (nat_lt, growing, check_generated, lambda o: o["data"].update(witness="1")),
    ]:
        bad = copy.deepcopy(out)
        edit(bad)
        with pytest.raises(AssertionError):
            check(fam, bad)
