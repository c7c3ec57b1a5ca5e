"""Golden outputs: the CLI on fixtures/, both parsers, both games, modal and FO truth and hulls on seeded corpora.

The files under tests/golden/ pin stdout, stderr and exit code byte for byte.
A change that means to alter one of them re-records it with
``PYTHONPATH=src python tests/golden/record.py`` and says so.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (CAP_VARS, PARSERS, cli_outcome, fo_truth_outcome, game_outcome, hull_outcome, modal_truth_outcome,
                     parse_outcome)
from uext import InputError, format_fo, frame_from_dict, hull, hull_formula, parse_fo
from uext.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CLI_CASES = json.loads((GOLDEN / "cli.json").read_text())
HELP = json.loads((GOLDEN / "help.json").read_text())


@pytest.mark.parametrize("case", CLI_CASES, ids=[" ".join(c["argv"]) for c in CLI_CASES])
def test_cli_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)  # outputs name the fixture paths as given
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)
    assert cli_outcome(case["argv"]) == case


@pytest.mark.parametrize("case", CLI_CASES, ids=[" ".join(c["argv"]) for c in CLI_CASES])
def test_cli_golden_in_a_fresh_process(case):
    """Each case as its own `python -m uext.cli` run: in-process runs load every layer early,
    which would hide a layer that a command fails to load on its own."""
    env = {var: value for var, value in os.environ.items() if var not in CAP_VARS}
    run = subprocess.run([sys.executable, "-m", "uext.cli", *case["argv"]], capture_output=True, text=True,
                         cwd=ROOT, env={**env, "PYTHONPATH": str(ROOT / "src")})
    assert {"argv": case["argv"], "exit": run.returncode, "stdout": run.stdout, "stderr": run.stderr} == case


@pytest.mark.parametrize("case", HELP["cases"], ids=[" ".join(c["argv"]) for c in HELP["cases"]])
def test_help_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))  # help wraps at the terminal's width
    assert cli_outcome(case["argv"]) == case


def test_help_golden_covers_every_command_path():
    assert [tuple(case["argv"][:-1]) for case in HELP["cases"]] == [(), *COMMANDS]


@pytest.mark.parametrize("logic", sorted(PARSERS))
def test_parser_corpus(logic):
    lines = (GOLDEN / f"{logic}_parse.jsonl").read_text().splitlines()
    assert len(lines) >= 1000
    for line in lines:
        text, expected = json.loads(line)
        assert parse_outcome(logic, text) == expected, text


def test_game_corpus(monkeypatch):
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)
    cases = [json.loads(line) for line in (GOLDEN / "games.jsonl").read_text().splitlines()]
    assert len(cases) >= 600
    for case in cases:
        assert game_outcome(case) == case


def test_modal_truth_corpus(monkeypatch):
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)
    cases = [json.loads(line) for line in (GOLDEN / "modal_truth.jsonl").read_text().splitlines()]
    assert sum("model" in case for case in cases) == 400 and sum("frame" in case for case in cases) == 200
    for case in cases:
        assert modal_truth_outcome(case) == case


def test_fo_truth_corpus(monkeypatch):
    """eval_fo's answers and charges, and the column masks and their charges, on the pinned corpus."""
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)
    cases = [json.loads(line) for line in (GOLDEN / "fo_truth.jsonl").read_text().splitlines()]
    assert len(cases) == 300 and sum("column" in case for case in cases) > 50
    for case in cases:
        assert fo_truth_outcome(case) == case


def test_hull_corpus(monkeypatch):
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)
    cases = [json.loads(line) for line in (GOLDEN / "hulls.jsonl").read_text().splitlines()]
    assert [sum(kind in case for case in cases) for kind in ("frame", "pair", "family")] == [150, 100, 60]
    for case in cases:
        assert hull_outcome(case) == case


def test_printed_fo_reads_back_as_itself():
    """parse_fo(format_fo(phi)) == phi on the parser corpus and on every pinned hull formula:
    a quantifier's scope runs as far right as it can, so the printer must close it off.  A hull
    formula's text, written without a tree, is what format_fo prints of its parse."""
    formulas = []
    for line in (GOLDEN / "fo_parse.jsonl").read_text().splitlines():
        try:
            formulas.append(parse_fo(json.loads(line)[0]))
        except InputError:
            pass
    cases = [json.loads(line) for line in (GOLDEN / "hulls.jsonl").read_text().splitlines()]
    texts = [hull_formula(hull(frame_from_dict(c["frame"]), c["root"], c["depth"])) for c in cases if "frame" in c]
    formulas += [parse_fo(text) for text in texts]
    assert [format_fo(phi) for phi in formulas[-len(texts):]] == texts
    assert len(formulas) > 450
    for phi in formulas:
        assert parse_fo(format_fo(phi)) == phi, format_fo(phi)


def test_hull_formula_is_printed_without_a_formula_tree(monkeypatch):
    """`hull --formula` writes its text straight from the shape rows: with the parser, the tree
    depth walk, the printer and every FO node's constructor made to fail, the pinned outputs
    are still printed."""
    import uext.fo
    import uext.syntax

    def fail(*args, **kwargs):
        raise AssertionError("a formula tree was built, walked or printed")

    for module, name in [(uext.fo, "parse_fo"), (uext.fo, "format_fo"),
                         (uext.syntax, "depth"), (uext.fo, "depth")]:
        monkeypatch.setattr(module, name, fail)
    for node in (uext.fo.Rel, uext.fo.Eq, uext.fo.Exists, uext.fo.Forall, uext.syntax.Not, uext.syntax.And,
                 uext.syntax.Or, uext.syntax.Imp):
        monkeypatch.setattr(node, "__init__", fail)
    monkeypatch.chdir(ROOT)
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)
    cases = [c for c in CLI_CASES if c["argv"][0] == "hull" and "--formula" in c["argv"]]
    assert len(cases) >= 2
    for case in cases:
        assert cli_outcome(case["argv"]) == case
