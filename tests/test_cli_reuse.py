"""uext.cli.main builds its parser only for a command line argparse must read, once, and reuses it:
importing builds none, a plain line builds none, later calls build none, no call leaks into the
next, and help still reads the terminal width."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from helpers import CAP_VARS, cli_outcome
from uext.cli import COMMANDS as TABLE, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
CLI_CASES = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())
PINNED = {tuple(case["argv"]): case for case in CLI_CASES}

COMMANDS = [[], *map(list, TABLE)]  # uext and every command path, one parser each

# Counts the parsers built in a fresh interpreter: after importing uext.cli, after the first main
# call, and after each later call with its exit code.
COUNTER = """
import argparse, contextlib, io, json, os, sys
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from uext import cli
from uext.frame import Frame
seen = [("import", None, built)]
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append((argv, cli.main(argv), built))
for argv in json.loads(sys.argv[1]):
    run(argv)
os.environ["UEXT_POWERSET_LIMIT"] = "1"
run(["ue", "build", "fixtures/triangle.json"])
del os.environ["UEXT_POWERSET_LIMIT"]
Frame.pred_mask = property(lambda self: self.succ_mask)  # a defect the cross-check catches
run(["ue", "cross-check", "fixtures/triangle.json"])
print(json.dumps(seen))
"""


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # outputs name the fixture paths as given
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)


def test_parser_built_once_per_process():
    # a plain command line is read without argparse, so it builds no parser; the first line left
    # to argparse (a usage error) builds the whole tree, and no later call builds another, whatever
    # its subcommand or exit code: a usage error, a ResourceError (2) and a DefectError (3) among them
    firsts = {}  # the first pinned case of each command, all fourteen that run
    for case in CLI_CASES:
        firsts.setdefault(max((" ".join(c) for c in COMMANDS if case["argv"][:len(c)] == c), key=len), case)
    assert len(firsts) == 14
    calls = [case["argv"] for case in firsts.values()] + [["ue"], ["ue"]]
    env = {k: v for k, v in os.environ.items() if k not in CAP_VARS} | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", COUNTER, json.dumps(calls)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout)
    assert seen[0] == ["import", None, 0]
    assert [built for _, _, built in seen[1:]] == [0] * len(firsts) + [len(COMMANDS)] * 4
    assert [code for _, code, _ in seen[1:]] == [case["exit"] for case in firsts.values()] + [1, 1, 2, 3]


def test_golden_cases_forward_then_backward(at_root):
    for case in CLI_CASES + CLI_CASES[::-1]:
        assert cli_outcome(case["argv"]) == case


@pytest.mark.parametrize("first, then", [
    (["fo", "eval", "fixtures/triangle.json", "R(x,y)", "--let", "x=a", "--let", "y=b"],
     ["fo", "eval", "fixtures/triangle.json", "R(x,y)"]),
    (["detect", "modal", "fixtures/nat_succ.json", "--depth", "3"], ["detect", "reflexive", "fixtures/nat_succ.json"]),
    (["ue"], ["ue", "build", "fixtures/triangle.json"]),
])
def test_nothing_leaks_into_the_next_call(at_root, first, then):
    # a --let list, a detect flag and an aborted parse leave nothing behind
    assert cli_outcome(first)["exit"] in (0, 1)
    assert cli_outcome(then) == PINNED[tuple(then)]


def printed_help(parse, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue()


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c) or "uext")
def test_help_equals_a_fresh_parsers_at_each_width(monkeypatch, command):
    # the reused parser reads the width when it prints, so its help wraps as a fresh one's does
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, text = printed_help(main, command + ["-h"])
        assert (code, text) == printed_help(build_parser().parse_args, command + ["-h"])
        assert code == 0 and text.startswith("usage: uext")
        texts.append(text)
    assert texts[0] != texts[1]
