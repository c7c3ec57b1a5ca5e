import json
import time

import pytest

import game_oracle
import modal_oracle
from helpers import successors, valuation
from uext import ResourceError, census
from uext import fo as fo_module
from uext.caps import CAPS, Budget
from uext.cli import _load_model as load_model, main
from uext.fo import format_fo, parse_fo
from uext.modal import distinguishing_formula, n_bisimilar

TRI = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}
SUCC = {"rays": [{"period": {"vertices": ["v"], "edges": []},
                  "seam": [["v", "v"]], "kind": "ray"}]}


@pytest.fixture
def tri(tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(TRI))
    return str(p)


@pytest.fixture
def tri_model(tmp_path):
    p = tmp_path / "tri_model.json"
    p.write_text(json.dumps({**TRI, "valuation": {"p0": ["b", "c"]}}))
    return str(p)


@pytest.fixture
def succ(tmp_path):
    p = tmp_path / "succ.json"
    p.write_text(json.dumps(SUCC))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_ue_build(capsys, tri):
    code, out = run(capsys, "ue", "build", tri)
    doc = json.loads(out)
    assert code == 0
    assert sorted(doc["vertices"]) == ["pi:a", "pi:b", "pi:c"]
    assert len(doc["edges"]) == 3


def test_ue_build_dot(capsys, tri):
    code, out = run(capsys, "ue", "build", tri, "--dot")
    assert code == 0 and out.startswith("digraph")


def test_ue_cross_check(capsys, tri):
    code, out = run(capsys, "ue", "cross-check", tri)
    assert code == 0 and json.loads(out)["modes_agree"]


def test_modal_eval_and_valid(capsys, tri, tri_model):
    code, out = run(capsys, "modal", "eval", tri_model, "<>p0 & []p0", "--at", "a")
    assert code == 0 and json.loads(out)["holds"]
    code, out = run(capsys, "modal", "valid", tri, "[]p0 -> p0")
    doc = json.loads(out)
    assert code == 0 and not doc["valid"] and "counter_world" in doc


def test_bisim(capsys, tri_model):
    code, out = run(capsys, "bisim", tri_model, tri_model,
                    "--at1", "b", "--at2", "c", "--depth", "1")
    assert code == 0 and not json.loads(out)["bisimilar"]


def test_fo_eval_with_assignment(capsys, tri):
    code, out = run(capsys, "fo", "eval", tri, "R(x,y)", "--let", "x=a", "--let", "y=b")
    assert code == 0 and json.loads(out)["holds"]


def test_fo_eval_reads_free_variables_once_for_all_lets(capsys, monkeypatch, tri):
    # one numbering of the formula's subformulas serves every --let, and eval_fo makes its own:
    # once a numbering per --let
    passes = []
    real = fo_module._scopes
    monkeypatch.setattr(fo_module, "_scopes", lambda phi: passes.append(real(phi)) or passes[-1])
    code, out = run(capsys, "fo", "eval", tri, "R(x,y) & R(y,z)", "--let", "x=a", "--let", "y=b", "--let", "z=c")
    assert code == 0 and json.loads(out)["holds"]
    assert len(passes) <= 2 and all(len(scopes) == 3 for _, scopes in passes)


def test_fo_eval_refuses_a_variable_bound_twice(capsys, tri):
    # a later --let must not silently override an earlier one
    assert main(["fo", "eval", tri, "R(x,y)", "--let", "x=a", "--let", "y=b", "--let", "x=c"]) == 1
    assert capsys.readouterr() == ("", "error: --let binds 'x' twice\n")


@pytest.mark.parametrize("formula, binding, message", [
    ("R(x,x)", "=a", "--let names '', which is not a variable"),
    ("R(x,x)", "x y=a", "--let names 'x y', which is not a variable"),
    ("R(x,x)", "exists=a", "--let names 'exists', which is not a variable"),
    ("R(x,x)", "y=a", "--let binds 'y', which is not free in the formula"),
    ("exists y. R(x,y)", "y=a", "--let binds 'y', which is not free in the formula"),
])
def test_fo_eval_refuses_a_binding_that_does_nothing(capsys, tri, formula, binding, message):
    # each of these once exited 0: a binding the formula never reads was dropped unseen
    assert main(["fo", "eval", tri, formula, "--let", "x=a", "--let", binding]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_fo_ef(capsys, tmp_path, tri):
    other = tmp_path / "single.json"
    other.write_text(json.dumps({"vertices": ["z"], "edges": []}))
    code, out = run(capsys, "fo", "ef", tri, str(other))
    # one pebble pair is always a partial iso here, so spoiler needs an edge
    assert code == 0 and json.loads(out)["min_spoiler_rounds"] == 2


def test_fo_los_like(capsys, tri):
    code, out = run(capsys, "fo", "los-like", tri, "exists y. R(x,y)", "--at", "a")
    assert code == 0 and json.loads(out)["agrees"]


def test_hull(capsys, tri):
    code, out = run(capsys, "hull", tri, "--at", "a", "--depth", "1", "--formula")
    doc = json.loads(out)
    assert code == 0 and doc["size"] == 3 and doc["formula"].count("exists") == 2


def test_census_and_skeleton(capsys, succ):
    code, out = run(capsys, "census", succ, "--depth", "2")
    doc = json.loads(out)
    assert code == 0
    mults = sorted(str(t["multiplicity"]) for t in doc["types"].values())
    assert mults == ["1", "1", "w"]
    code, out = run(capsys, "skeleton", succ, "--depth", "1")
    assert code == 0 and "provenance" in json.loads(out)


def test_detect(capsys, succ):
    code, out = run(capsys, "detect", "reflexive", succ)
    assert code == 0 and json.loads(out)["verdict"] == "no"
    code, out = run(capsys, "detect", "generated", succ)
    assert code == 0 and json.loads(out)["verdict"] == "yes"
    code, out = run(capsys, "detect", "modal", succ, "--depth", "2")
    assert code == 0 and json.loads(out)["coincides"]


def test_exit_code_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"], "edges": [["a", "z"]]}))
    assert main(["ue", "build", str(bad)]) == 1
    assert main(["fo", "eval", str(bad), "x=x"]) == 1


def test_exit_code_missing_file(capsys):
    assert main(["ue", "build", "/nonexistent.json"]) == 1


def test_exit_code_resource(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UEXT_POWERSET_LIMIT", "1")
    p = tmp_path / "two.json"
    p.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    assert main(["ue", "build", str(p)]) == 2


def test_unbounded_census_is_a_resource_limit(capsys, tmp_path):
    # the family is well formed; its census would be infinite, which is a limit of uext, not bad input
    p = tmp_path / "natlt.json"
    p.write_text(json.dumps({"generator": {"name": "nat_lt"}}))
    assert main(["census", str(p), "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and "generator 'nat_lt'" in err and err.count("\n") == 1


CAP_COMMANDS = {
    "UEXT_POWERSET_LIMIT": lambda tri, model: ["ue", "build", tri],
    "UEXT_VALUATION_LIMIT": lambda tri, model: ["modal", "valid", tri, "[]p0 -> p0"],
    "UEXT_GAME_LIMIT": lambda tri, model: ["bisim", model, model, "--at1", "b", "--at2", "c",
                                           "--depth", "1"],
    "UEXT_EF_MEMO_LIMIT": lambda tri, model: ["fo", "ef", tri, tri],
    "UEXT_ASSIGNMENT_LIMIT": lambda tri, model: ["fo", "eval", tri, "forall x. ~R(x,x)"],
}


def test_cap_commands_cover_every_cap():
    assert set(CAP_COMMANDS) == {var for var, _, _ in CAPS.values()}


# int() would read the last four as 3, 1000, 3 and 7; a cap is ASCII decimal digits only
@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "", "\u0663", "1_000", "+3", " 7 "])
@pytest.mark.parametrize("var", sorted(CAP_COMMANDS))
def test_malformed_cap_is_input_error(capsys, monkeypatch, tri, tri_model, var, value):
    monkeypatch.setenv(var, value)
    assert main(CAP_COMMANDS[var](tri, tri_model)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {var} must be a nonnegative integer, got {value!r}\n"


def test_a_refused_charge_is_not_counted(monkeypatch):
    monkeypatch.setenv("UEXT_GAME_LIMIT", "5")
    budget = Budget("bisim")
    budget.charge(3)
    with pytest.raises(ResourceError, match=r"^bisimulation memo exceeded cap 5 \(set UEXT_GAME_LIMIT\)$"):
        budget.charge(3)
    budget.charge(2)
    assert budget.spent == 5


def test_out_of_memory_is_a_resource_limit(capsys, monkeypatch, succ):
    def exhausted(fam, budget):
        raise MemoryError
    monkeypatch.setattr(census, "expand", exhausted)
    assert main(["skeleton", succ, "--depth", "1", "--budget", "100000000"]) == 2
    assert capsys.readouterr() == ("", "resource limit: out of memory\n")


@pytest.mark.parametrize("var, memo", [("UEXT_GAME_LIMIT", "bisimulation memo"),
                                       ("UEXT_EF_MEMO_LIMIT", "EF memo table")])
def test_game_memo_cap_is_resource_error(capsys, monkeypatch, tri, tri_model, var, memo):
    argv = {"UEXT_GAME_LIMIT": ["bisim", tri_model, tri_model, "--at1", "a", "--at2", "a", "--depth", "2"],
            "UEXT_EF_MEMO_LIMIT": ["fo", "ef", tri, tri_model]}[var]
    monkeypatch.setenv(var, "1")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"resource limit: {memo} exceeded cap 1 (set {var})\n")
    monkeypatch.setenv(var, "100")
    assert main(argv) == 0


def test_deep_bisim_on_a_loop_is_clipped(capsys, tmp_path):
    # the game used to recurse once per requested round and end in a RecursionError
    p = tmp_path / "loop.json"
    p.write_text(json.dumps({"vertices": ["a"], "edges": [["a", "a"]], "valuation": {}}))
    assert main(["bisim", str(p), str(p), "--at1", "a", "--at2", "a", "--depth", "3000"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"bisimilar": True, "depth": 3000} and err == ""


def cycle_model(tmp_path, n: int, marked=()) -> str:
    verts = [f"v{i}" for i in range(n)]
    p = tmp_path / f"cycle{n}.json"
    p.write_text(json.dumps({"vertices": verts, "edges": [[v, verts[(i + 1) % n]] for i, v in enumerate(verts)],
                             "valuation": {"p0": list(marked)}}))
    return str(p)


def test_bisim_at_the_stack_bound(capsys, tmp_path):
    # verdicts are read off the refinement of the union, which never recurses, so two 101-cycles
    # answer at 3000 rounds like two 100-cycles (the 101-cycles were once refused for the stack)
    for n in (100, 101):
        p = cycle_model(tmp_path, n)
        assert main(["bisim", p, p, "--at1", "v0", "--at2", "v0", "--depth", "3000"]) == 0
        assert json.loads(capsys.readouterr().out) == {"bisimilar": True, "depth": 3000}
    # a witness is built in a loop over its subgames: 300- and 301-cycles with one marked world
    # each are told apart first at depth 300, and the oracle reads the witness true at m1's v0 only
    m1, m2 = (load_model(cycle_model(tmp_path, n, ["v0"])) for n in (300, 301))
    assert not n_bisimilar(m1, "v0", m2, "v0", 10**6)
    phi = distinguishing_formula(m1, "v0", m2, "v0", 10**6, ["p0"])
    assert game_oracle.modal_depth(phi) == 300
    assert modal_oracle.holds(successors(m1.frame), valuation(m1), "v0", phi)
    assert not modal_oracle.holds(successors(m2.frame), valuation(m2), "v0", phi)


def test_fo_eval_assignment_cap(capsys, monkeypatch):
    # x1..x6 are enumerated and x7 is a mask column: when the body never holds, that is
    # 3 + 9 + ... + 3^6 = 1092 assignments and 3^6 = 729 mask steps on the triangle
    prefix = "".join(f"exists x{i}. " for i in range(1, 8))
    body = " & ".join(f"x{i}=x{i}" for i in range(1, 8))
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "1000")
    assert main(["fo", "eval", "fixtures/triangle.json", f"{prefix}~({body})"]) == 2
    assert capsys.readouterr() == (
        "", "resource limit: FO evaluation tried more than 1000 assignments (set UEXT_ASSIGNMENT_LIMIT to raise)\n")
    # only the work done counts: when the body holds, each quantifier stops at its first
    # value, six assignments and one mask step
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "7")
    assert main(["fo", "eval", "fixtures/triangle.json", f"{prefix}({body})"]) == 0
    monkeypatch.setenv("UEXT_ASSIGNMENT_LIMIT", "6")
    assert main(["fo", "eval", "fixtures/triangle.json", f"{prefix}({body})"]) == 2


def test_negative_max_rounds_is_input_error(capsys, tri):
    assert main(["fo", "ef", tri, tri, "--max-rounds", "-3"]) == 1
    assert capsys.readouterr() == ("", "error: max_rounds must be nonnegative\n")


@pytest.mark.parametrize("argv, message", [
    (["bisim", "m.json", "m.json", "--at1", "a", "--at2", "b", "--depth", "abc"],
     "uext bisim: argument --depth: invalid int value: 'abc'"),
    (["ue"], "uext ue: the following arguments are required: ue_command"),
])
def test_usage_error_is_input_error(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("prop, flag", [
    ("generated", "--depth"), ("generated", "--budget"), ("generated", "--chi-threshold"),
    ("reflexive", "--depth"), ("reflexive", "--budget"), ("modal", "--chi-threshold"), ("modal", "--budget"),
])
def test_detect_flag_of_another_property_is_usage_error(capsys, prop, flag):
    # each property is a command with only its own options, so one that would do nothing is
    # refused; none takes --budget, which could only turn a true modal verdict false
    assert main(["detect", prop, "fixtures/nat_succ.json", flag, "3"]) == 1
    assert capsys.readouterr() == ("", f"error: uext: unrecognized arguments: {flag} 3\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ue", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: uext ue")


@pytest.mark.parametrize("doc, message", [
    ({"generator": {}}, '"generator" must be an object with a "name" string'),
    ([SUCC], "family document must be a JSON object"),
    ({"omega_templates": 5}, '"omega_templates" must be a JSON array'),
    ({"rays": [{"period": {"vertices": ["a"], "edges": []}, "seam": [["a"]]}]},
     "seam entry ['a'] is not a [from, to] pair"),
    # a frame nested in a family has no valuation: each of these was once dropped unchecked
    ({"base": {"vertices": ["a"], "edges": [], "valuation": {"p0": ["zz"]}}},
     "frame document has unknown field 'valuation' (known: vertices, edges)"),
    ({"omega_templates": [{**TRI, "valuation": {}}]},
     "frame document has unknown field 'valuation' (known: vertices, edges)"),
    ({"rays": [{"period": {"vertices": ["a"], "edges": [], "valuation": {}}}]},
     "frame document has unknown field 'valuation' (known: vertices, edges)"),
    ({"rays": [{"period": {"vertices": ["a"], "edges": []}, "seam": [["a", "a"], ["a", "a"]]}]},
     "duplicate seam ['a', 'a'] in input"),
])
def test_malformed_family_is_input_error(capsys, tmp_path, doc, message):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(doc))
    assert main(["census", str(p), "--depth", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"vertices": "ab", "edges": []}, '"vertices" must be a JSON array'),
    ({**TRI, "valuation": {"p0": "ab"}}, "valuation of 'p0' must be a JSON array"),
    ({**TRI, "valuation": {"p0": 5}}, "valuation of 'p0' must be a JSON array"),
    ({**TRI, "valuation": {"p0": ["b", "zz"]}}, "unknown vertex 'zz'"),
    ({**TRI, "valuation": {"p0": ["b", "c", "b"]}}, "duplicate vertex 'b' in valuation of 'p0'"),
])
def test_non_array_frame_or_model_is_input_error(capsys, tmp_path, doc, message):
    # every command that reads a frame file checks a valuation in it as modal eval does
    p = str(tmp_path / "model.json")
    (tmp_path / "model.json").write_text(json.dumps(doc))
    for argv in (["modal", "eval", p, "p0", "--at", "a"], ["ue", "build", p], ["ue", "cross-check", p],
                 ["modal", "valid", p, "p0"], ["bisim", p, p, "--at1", "a", "--at2", "a", "--depth", "1"],
                 ["fo", "eval", p, "x=x", "--let", "x=a"], ["fo", "ef", p, p], ["fo", "los-like", p, "x=x", "--at", "a"],
                 ["hull", p, "--at", "a", "--depth", "1"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_undecodable_file_is_input_error(capsys, tmp_path):
    p = tmp_path / "family.json"
    p.write_bytes(b"\xff\xfe")
    assert main(["census", str(p), "--depth", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read family file {p}: ")


def test_deeply_nested_file_is_input_error(capsys, tmp_path):
    # the JSON decoder's RecursionError used to end in a traceback
    p = tmp_path / "frame.json"
    p.write_text("[" * 100000 + "]" * 100000)
    assert main(["ue", "build", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read frame file {p}: maximum recursion depth")
    assert err.count("\n") == 1


RAY = {"period": {"vertices": ["v"], "edges": []}, "seam": [["v", "v"]]}


@pytest.mark.parametrize("doc, message", [
    (TRI, "family document has unknown field 'edges' (known: base, omega_templates, rays, generator)"),
    ({"rays": [RAY], "ray": []}, "family document has unknown field 'ray' (known: base, omega_templates, rays, "
                                 "generator)"),
    ({"rays": [{**RAY, "kinds": "line"}]}, "ray entry has unknown field 'kinds' (known: period, seam, kind)"),
    ({"generator": {"name": "nat_succ", "budget": 3}}, '"generator" has unknown field \'budget\' (known: name)'),
    # a model file is read by modal eval; each of these was once read with p0 false everywhere
    ({**TRI, "valuaton": {"p0": ["b"]}},
     "frame document has unknown field 'valuaton' (known: vertices, edges, valuation)"),
    ({**TRI, "valuation": {"P0": ["b"]}}, "valuation has unknown letter 'P0' (known: p followed by digits)"),
])
def test_unknown_family_field_is_input_error(capsys, tmp_path, doc, message):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(doc))
    model = message.startswith(("frame document", "valuation"))
    assert main(["modal", "eval", str(p), "<>p0", "--at", "a"] if model else ["census", str(p), "--depth", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("bad", [None, True, 1.5, ["a"], {"a": 1}])
@pytest.mark.parametrize("where", ["vertices", "edges", "valuation"])
def test_vertex_id_must_be_string_or_integer(capsys, tmp_path, where, bad):
    doc = {"vertices": ["a", 0], "edges": [["a", 0]], "valuation": {"p0": [0]}}
    if where == "vertices":
        doc["vertices"].append(bad)
    elif where == "edges":
        doc["edges"].append(["a", bad])
    else:
        doc["valuation"]["p0"].append(bad)
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    assert main(["modal", "eval", str(p), "<>p0", "--at", "a"]) == 1
    assert capsys.readouterr() == ("", f"error: vertex id {json.dumps(bad)} is not a string or an integer\n")


def test_integer_vertex_ids_still_load(capsys, tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"vertices": ["a", 0], "edges": [["a", 0]], "valuation": {"p0": [0]}}))
    assert run(capsys, "modal", "eval", str(p), "<>p0", "--at", "a") == (0, '{\n  "holds": true\n}\n')


def test_seam_vertex_id_must_be_string_or_integer(capsys, tmp_path):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"rays": [{**RAY, "seam": [["v", None]]}]}))
    assert main(["census", str(p), "--depth", "1"]) == 1
    assert capsys.readouterr() == ("", "error: vertex id null is not a string or an integer\n")


@pytest.mark.parametrize("argv, label", [
    (["modal", "eval", "fixtures/triangle_model.json", "~" * 3000 + "p0", "--at", "a"], "modal"),
    (["modal", "eval", "fixtures/triangle_model.json", " & ".join(["p0"] * 3000), "--at", "a"], "modal"),
    (["modal", "valid", "fixtures/triangle.json", " -> ".join(["p0"] * 3000)], "modal"),
    (["modal", "eval", "fixtures/triangle_model.json", "(" * 3000 + "p0" + ")" * 3000, "--at", "a"], "modal"),
    (["fo", "eval", "fixtures/triangle.json", "~" * 3000 + "x=x", "--let", "x=a"], "FO"),
    (["fo", "eval", "fixtures/triangle.json", "exists x. " * 3000 + "x=x"], "FO"),
])
def test_deep_formula_is_input_error(capsys, argv, label):
    # these were refused as nesting past a parse cap of 100 levels; now every formula parses: a modal
    # one is labelled without recursion and answers, and an FO one too deep for the recursive
    # evaluator ends in one resource-limit line
    code = main(argv)
    if label == "modal":  # p0 is false at a, and p0 -> ... -> p0 is valid
        key = "valid" if argv[1] == "valid" else "holds"
        assert code == 0 and capsys.readouterr() == (json.dumps({key: key == "valid"}, indent=2) + "\n", "")
    else:
        assert code == 2 and capsys.readouterr() == ("", "resource limit: FO evaluation ran out of interpreter "
                                                         "stack on a formula 3001 levels deep\n")


def test_deep_ef_on_one_point_is_clipped(capsys, tmp_path):
    # the EF game used to recurse once per requested round and end in a RecursionError
    p = tmp_path / "one.json"
    p.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    assert main(["fo", "ef", str(p), str(p), "--max-rounds", "3000"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"min_spoiler_rounds": None, "equivalent_up_to": 3000} and err == ""


def test_hull_stops_at_saturation(capsys, tri):
    t0 = time.perf_counter()
    code, deep = run(capsys, "hull", tri, "--at", "a", "--depth", str(10**9), "--formula")
    assert code == 0 and time.perf_counter() - t0 < 1
    code, shallow = run(capsys, "hull", tri, "--at", "a", "--depth", "3", "--formula")
    deep, shallow = json.loads(deep), json.loads(shallow)
    assert deep.pop("depth") == 10**9 and shallow.pop("depth") == 3
    assert deep == shallow


def star(tmp_path, leaves: int) -> str:
    p = tmp_path / f"star{leaves}.json"
    p.write_text(json.dumps({"vertices": ["c"] + [f"l{i}" for i in range(leaves)],
                             "edges": [["c", f"l{i}"] for i in range(leaves)]}))
    return str(p)


def test_hull_formula_prints_only_what_parses_back(capsys, tmp_path):
    # about five levels per vertex: a 20-leaf star's formula, once refused as nesting past a parse
    # cap of 100 levels, and a 200-leaf star's, about 1,000 levels deep, both print and parse back
    for leaves in (20, 200):
        code, out = run(capsys, "hull", star(tmp_path, leaves), "--at", "c", "--depth", "1", "--formula")
        formula = json.loads(out)["formula"]
        assert code == 0 and format_fo(parse_fo(formula)) == formula


def test_detect_generated_on_chains_is_yes(capsys, tmp_path):
    p = tmp_path / "chains.json"
    p.write_text(json.dumps({"generator": {"name": "chains_lt"}}))
    code, out = run(capsys, "detect", "generated", str(p))
    assert code == 0 and json.loads(out)["verdict"] == "yes"


def test_negative_chi_threshold_is_input_error(capsys, succ):
    # it used to answer "yes" on the successor ray, whose extension has no reflexive point
    assert main(["detect", "reflexive", succ, "--chi-threshold", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: chi threshold must be nonnegative\n")
