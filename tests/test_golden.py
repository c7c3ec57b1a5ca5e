"""Golden outputs: the CLI on fixtures/, both parsers, both games, modal truth and hulls on seeded corpora.

The files under tests/golden/ pin stdout, stderr and exit code byte for byte.
A change that means to alter one of them re-records it with
``PYTHONPATH=src python tests/golden/record.py`` and says so.
"""

import json
from pathlib import Path

import pytest

from helpers import CAP_VARS, PARSERS, cli_outcome, game_outcome, hull_outcome, modal_truth_outcome, parse_outcome
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


def test_hull_corpus(monkeypatch):
    for var in CAP_VARS:
        monkeypatch.delenv(var, raising=False)
    cases = [json.loads(line) for line in (GOLDEN / "hulls.jsonl").read_text().splitlines()]
    assert [sum(kind in case for case in cases) for kind in ("frame", "pair", "family")] == [150, 100, 60]
    for case in cases:
        assert hull_outcome(case) == case


def test_printed_fo_reads_back_as_itself():
    """parse_fo(format_fo(phi)) == phi on the parser corpus and on every pinned hull formula:
    a quantifier's scope runs as far right as it can, so the printer must close it off."""
    formulas = []
    for line in (GOLDEN / "fo_parse.jsonl").read_text().splitlines():
        try:
            formulas.append(parse_fo(json.loads(line)[0]))
        except InputError:
            pass
    cases = [json.loads(line) for line in (GOLDEN / "hulls.jsonl").read_text().splitlines()]
    formulas += [hull_formula(hull(frame_from_dict(c["frame"]), c["root"], c["depth"])) for c in cases if "frame" in c]
    assert len(formulas) > 450
    for phi in formulas:
        assert parse_fo(format_fo(phi)) == phi, format_fo(phi)
