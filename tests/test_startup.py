"""What a fresh process loads.  The package registers its modules lazily: each is in sys.modules
from the start but runs on its first attribute read, and a command loads only the layers it
calls.  A module counts as loaded once its type is plain ModuleType again (type() does not
trigger a load).  These run in fresh processes, since the rest of the suite loads every layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uext
from uext.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# the loaded uext modules, as a script run by run() reads them
LOADED = "sorted(name[5:] for name, m in sys.modules.items() if name.startswith('uext.') and type(m) is types.ModuleType)"

CENSUS = {"census", "cli", "errors", "frame", "hulls"}
MODAL = {"caps", "cli", "errors", "frame", "games", "modal", "syntax"}
FO = {"caps", "cli", "errors", "fo", "frame", "games", "syntax"}
UE = {"caps", "cli", "errors", "frame", "ultra"}
# each leaf command on fixtures/, and the modules it leaves loaded
LEAVES = {
    ("ue", "build"): (["fixtures/triangle.json"], UE),
    ("ue", "cross-check"): (["fixtures/triangle.json"], UE),
    ("modal", "eval"): (["fixtures/triangle_model.json", "<>p0 & []p0", "--at", "a"], MODAL),
    ("modal", "valid"): (["fixtures/triangle.json", "[]p0 -> p0"], MODAL),
    ("bisim",): (["fixtures/triangle_model.json", "fixtures/triangle_model.json", "--at1", "b", "--at2", "c",
                  "--depth", "1"], MODAL),
    ("fo", "eval"): (["fixtures/triangle.json", "forall x. ~R(x,x)"], FO),
    ("fo", "ef"): (["fixtures/triangle.json", "fixtures/triangle_model.json"], FO),
    ("fo", "los-like"): (["fixtures/triangle.json", "exists y. R(x,y)", "--at", "a"], FO | {"ultra"}),
    ("hull",): (["fixtures/triangle.json", "--at", "a", "--depth", "1", "--formula"], CENSUS - {"census"}),
    ("census",): (["fixtures/nat_succ.json", "--depth", "1"], CENSUS),
    ("skeleton",): (["fixtures/nat_succ.json", "--depth", "1"], CENSUS),
    ("detect", "reflexive"): (["fixtures/nat_succ.json"], CENSUS),
    ("detect", "generated"): (["fixtures/nat_succ.json"], CENSUS),
    ("detect", "modal"): (["fixtures/nat_succ.json"], CENSUS),
}


def run(script: str, *args: str) -> str:
    """The stdout of script, run in a fresh process at the repository root after importing json, sys and types."""
    return subprocess.run([sys.executable, "-c", "import json, sys, types\n" + script, *args], capture_output=True,
                          text=True, check=True, cwd=ROOT, env=ENV).stdout


def test_the_table_covers_every_leaf_command():
    assert sorted(LEAVES) == sorted(path for path, cmd in COMMANDS.items() if cmd.func is not None)


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
def test_a_command_loads_only_its_layers(path):
    args, expected = LEAVES[path]
    script = ("import contextlib, io\n"
              "from uext.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(json.loads(sys.argv[1]))\n"
              f"print(json.dumps([code, {LOADED}]))")
    code, loaded = json.loads(run(script, json.dumps([*path, *args])))
    assert code == 0
    assert set(loaded) == expected


def test_importing_the_cli_registers_every_traced_layer_and_runs_none():
    layers = ("cli", "frame", "ultra", "modal", "fo", "hulls", "census")  # perfbench/spans.py's LAYERS
    script = ("import uext, uext.cli\n"
              f"loaded = {LOADED}\n"
              "registered = sorted(name[5:] for name in sys.modules if name.startswith('uext.'))\n"
              "lazy = sys.modules['uext.ultra']\n"
              "lazy.build_ue\n"
              "same = sys.modules['uext.ultra'] is lazy is uext.ultra and type(lazy) is types.ModuleType\n"
              "print(json.dumps([loaded, registered, same]))")
    loaded, registered, same = json.loads(run(script))
    assert loaded == ["cli", "errors"]
    assert set(layers) <= set(registered)
    assert same  # a module is loaded in place


def test_every_public_name_is_its_modules_object():
    assert len(uext.__all__) == len(set(uext.__all__)) > 60
    for name in uext.__all__:
        obj = getattr(uext, name)
        home = sys.modules[f"uext.{uext._HOME.get(name, 'errors')}"]
        assert obj.__module__.startswith("uext.") and getattr(home, name) is obj, name
    # both logics print through the one loop in syntax
    assert uext.format_modal is uext.format_fo is uext.syntax.format_formula


def test_star_import_binds_every_public_name():
    script = ("from uext import *\n"
              "import uext\n"
              "print(all(globals()[name] is getattr(uext, name) for name in uext.__all__))")
    assert run(script) == "True\n"


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        uext.no_such_name
    assert not hasattr(uext, "Node")  # a module's name that the package does not export
