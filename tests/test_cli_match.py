"""uext.cli.match reads a plain command line straight into the namespace argparse would return.

Differential test: on every command line pinned in tests/golden/cli.json, written in the test
files or run by the benchmark's four workloads, and on perturbations of each, match returns
either None (the line is left to argparse) or a namespace equal to build_parser's.  Every
workload line takes the matched path, so the benchmark measures it.
"""

import ast
import itertools
import json
import sys
from pathlib import Path

import pytest

from uext.cli import COMMANDS, build_parser, main, match

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

PARSER = build_parser()
OPTIONS = sorted({name for cmd in COMMANDS.values() for name in cmd.options})
SEEDS = (1, 7)


def golden_lines() -> list[list[str]]:
    return [case["argv"] for case in json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())]


def lines_in_tests() -> list[list[str]]:
    """Each list literal in the test files that starts with a command word; an element that is
    not a string literal (a file path in a variable, say) stands as "f.json"."""
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant) \
                    and node.elts[0].value in {path[0] for path in COMMANDS}:
                found.append([e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else "f.json"
                              for e in node.elts if not isinstance(e, ast.Starred)])
    return found


def workload_lines(tmp: Path) -> dict[str, list[list[str]]]:
    lines = {}
    for seed, (name, make) in itertools.product(SEEDS, workloads.WORKLOADS.items()):
        work = tmp / f"{name}-{seed}"
        work.mkdir()
        lines[f"{name} {seed}"] = [op.argv for op in make(workloads.Inputs(work, seed, name), ROOT)]
    return lines


def perturbed(argv: list[str]) -> list[list[str]]:
    """argv with its options moved, abbreviated, joined to their values, negated, repeated,
    doubled, with "--", -h, unknown and missing tokens."""
    out = [argv[:i] + argv[i + 1:] for i in range(len(argv))]  # a token missing
    out += [argv[:i] for i in range(len(argv))]
    out += [argv + ["extra"], argv + ["--bogus"], argv + ["--bogus", "1"], argv + ["-h"], ["-h"] + argv,
            argv[:1] + ["-h"] + argv[1:], argv[:2] + ["--"] + argv[2:], argv + ["--"], ["--"] + argv]
    words = 1
    while words < len(argv) and tuple(argv[:words + 1]) in COMMANDS:
        words += 1
    head, rest = argv[:words], argv[words:]
    opts = [i for i, tok in enumerate(rest) if tok.startswith("--")]
    for i in opts:
        name = rest[i]
        takes = i + 1 < len(rest) and not rest[i + 1].startswith("--")
        pair = rest[i:i + 2] if takes else rest[i:i + 1]
        without = rest[:i] + rest[i + len(pair):]
        out += [head + pair + without, head + without + pair]  # moved first and last
        out += [head + rest[:i] + [name[:k]] + rest[i + 1:] for k in (3, 4, len(name) - 1)]  # abbreviated
        out += [head + rest + pair]  # repeated
        if takes:
            value = rest[i + 1]
            out += [head + without + [f"{name}={value}"]]
            out += [head + rest[:i + 1] + [v] + rest[i + 2:] for v in ("-1", "-3", "+2", " 4", "1_0", "x", "")]
            out += [head + rest + [name, "-2"], head + rest + [name]]
    out += [head + rest[::-1]]  # positionals swapped, options split from their values
    out += [head + rest + [tok] for tok in OPTIONS]
    return out


def agrees(argv: list[str]) -> bool:
    """Whether match leaves argv to argparse, or returns what argparse returns; True when matched."""
    got = match(argv)
    if got is None:
        return False
    assert vars(got) == vars(PARSER.parse_args(argv)), argv
    return True


def test_every_matched_line_is_argparses(tmp_path):
    lines = golden_lines() + lines_in_tests() + [argv for group in workload_lines(tmp_path).values() for argv in group]
    assert len(lines) > 400
    matched = tried = 0
    for argv in lines:
        for variant in [argv] + perturbed(argv):
            tried += 1
            matched += agrees(variant)
    # both paths are exercised many times over
    assert tried > 10000 and 1000 < matched < tried - 5000


def test_every_workload_line_is_matched(tmp_path):
    # the benchmark's lines are all plain, so none of them pays for argparse
    for group, lines in workload_lines(tmp_path).items():
        assert lines and all(agrees(argv) for argv in lines), group


def test_golden_lines_left_to_argparse():
    # a negative value is read by argparse, which hands it on to the handler's own error
    assert [argv for argv in golden_lines() if not agrees(argv)] == [
        ["bisim", "fixtures/triangle_model.json", "fixtures/triangle_model.json", "--at1", "a", "--at2", "b",
         "--depth", "-1"],
        ["hull", "fixtures/triangle.json", "--at", "a", "--depth", "-1"],
        ["detect", "modal", "fixtures/nat_succ.json", "--depth", "1", "--budget", "2"],
    ]


T = "fixtures/triangle.json"
EF = ["fo", "ef", T, T]


@pytest.mark.parametrize("argv", [
    EF + ["--max", "2"], EF + ["--max-rounds=2"], EF + ["--max-rounds", "-3"], EF + ["--", "--max-rounds", "2"],
    EF + ["-h"], EF + ["--max-rounds"], EF + ["--max-rounds", "two"], EF + ["extra"], EF[:3],
    ["ue"], ["fo", "build", T], [], ["-h"], ["ue", "build", "-"], ["detect", "other", T],
    ["hull", T, "--at", "a"], ["bisim", T, T, "--at", "a", "--at2", "a", "--depth", "1"],
    # an int value is ASCII decimal digits after an optional "-", however much more int() reads
    EF + ["--max-rounds", " 2"], EF + ["--max-rounds", "+2"], EF + ["--max-rounds", "1_0"],
    EF + ["--max-rounds", "\u0663"],
])
def test_what_is_not_plain_goes_to_argparse(argv):
    assert match(argv) is None


@pytest.mark.parametrize("value", [" 7 ", "+3", "1_000", "\u0661_0", "\u0663", "-\u0663", "-"])
@pytest.mark.parametrize("spelling", ["plain", "joined", "abbreviated"])
def test_an_int_value_int_reads_but_the_caps_do_not_is_one_error_line(capsys, monkeypatch, value, spelling):
    # the matcher leaves the line to argparse, which refuses it through the same reader
    monkeypatch.chdir(ROOT)
    tail = {"plain": ["--depth", value], "joined": [f"--depth={value}"], "abbreviated": ["--dep", value]}[spelling]
    assert main(["census", "fixtures/nat_succ.json", *tail]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: uext census: argument --depth: invalid int value: {value!r}\n"


@pytest.mark.parametrize("argv", [
    EF, EF + ["--max-rounds", "2"], ["fo", "ef", "--max-rounds", "2", T, T],
    EF + ["--max-rounds", "1", "--max-rounds", "2"],
    ["fo", "eval", T, "x=x", "--let", "x=a", "--let", "y=b"], ["ue", "build", T, "--dot", "--dot"],
    ["modal", "eval", T, "", "--at", ""], ["detect", "modal", T, "--depth", "03"],
])
def test_plain_lines_are_matched(argv):
    assert agrees(argv)
