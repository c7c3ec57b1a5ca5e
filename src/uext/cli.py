"""uext command line interface.

Exit codes: 0 answer computed (a detector's verdict is yes or no), 1 bad input
(usage errors included), 2 resource cap exceeded or memory exhausted, 3 internal
cross-check defect.

``COMMANDS`` declares every command path once: a group's help line, or a
leaf's handler, positionals and options (action, type, default, whether
required), so each detector is a leaf with its own options and defaults.
``match`` reads a plain command line straight from that table into the
namespace argparse would return: the command words, exactly the leaf's
positionals in order, each option by its full name as its own token followed,
unless it is a flag, by a value token that does not start with "-", every
required option present and ``int`` values that ``integer`` reads.

Anything else goes to the argparse parser that ``build_parser`` builds from
the same table: -h, an abbreviated option, --opt=value, a value or positional
starting with "-" (so a negative number reaches its handler's own error), --,
and unknown, missing or extra tokens.  argparse prints every help text and
reports every usage error, so both read as they always have.  ``main`` builds
that parser the first time a line needs it and reuses it for every later call
in the process; it keeps no state between calls, and help reads the terminal
width when it is printed.

Each handler calls the library through its module objects (``hulls.hull``,
``frame.load_frame``), which the package loads on first use, so a command
loads only the layers it runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import census, fo, frame, hulls, modal, ultra
from .errors import DefectError, InputError, ResourceError


def _load_model(path: str) -> modal.Model:
    """A model file, or a frame file, read by the library's one reader, which checks the valuation."""
    return modal.Model(*frame.read_model(path))


def cmd_ue_build(args) -> dict | None:
    ue = ultra.build_ue(frame.load_frame(args.frame))
    if not args.dot:
        return frame.frame_to_dict(ue.frame)
    sys.stdout.write(frame.frame_to_dot(ue.frame))


def cmd_ue_cross_check(args) -> dict:
    ultra.build_ue(frame.load_frame(args.frame))  # raises DefectError if the three relation modes disagree
    return {"frame": args.frame, "modes_agree": True}


def cmd_modal_eval(args) -> dict:
    model = _load_model(args.model)
    phi = modal.parse_modal(args.formula)
    return {"holds": modal.eval_modal(model, args.at, phi)}


def cmd_modal_valid(args) -> dict:
    f = frame.load_frame(args.frame)
    phi = modal.parse_modal(args.formula)
    ok, counter = modal.frame_valid(f, phi)
    if counter is None:
        return {"valid": ok}
    cm, cw = counter
    return {"valid": ok, "counter_world": cw,
            "counter_valuation": {p: sorted(f.names(mask)) for p, mask in cm.masks.items()}}


def cmd_bisim(args) -> dict:
    m1, m2 = _load_model(args.model1), _load_model(args.model2)
    return {"bisimilar": modal.n_bisimilar(m1, args.at1, m2, args.at2, args.depth), "depth": args.depth}


def cmd_fo_eval(args) -> dict:
    f = frame.load_frame(args.frame)
    phi = fo.parse_fo(args.formula)
    assignment, free = {}, fo.free_vars(phi) if args.let else ()
    for item in args.let or []:
        if "=" not in item:
            raise InputError(f"--let expects var=vertex, got {item!r}")
        var, vert = item.split("=", 1)
        if not fo.is_variable(var):
            raise InputError(f"--let names {var!r}, which is not a variable")
        if var not in free:
            raise InputError(f"--let binds {var!r}, which is not free in the formula")
        if var in assignment:
            raise InputError(f"--let binds {var!r} twice")
        f.check_vertices([vert])
        assignment[var] = vert
    return {"holds": fo.eval_fo(f, phi, assignment)}


def cmd_fo_ef(args) -> dict:
    f1, f2 = frame.load_frame(args.frame1), frame.load_frame(args.frame2)
    k = fo.ef_min_rounds(f1, f2, args.max_rounds)
    return {"min_spoiler_rounds": k, "equivalent_up_to": args.max_rounds if k is None else k - 1}


def cmd_fo_los_like(args) -> dict:
    f = frame.load_frame(args.frame)
    u = ultra.Ultrafilter(f, args.at)  # checks --at before the formula is parsed
    phi = fo.parse_fo(args.formula)
    ok, lhs, rhs = fo.los_like_check(f, phi, u)
    return {"agrees": ok, "extension_side": lhs, "membership_side": rhs}


def cmd_hull(args) -> dict:
    h = hulls.hull(frame.load_frame(args.frame), args.at, args.depth)
    doc = {"root": h.root, "depth": h.depth, "size": len(h.order),
           "certificate": hulls.canonical_form(h).hex, "frame": frame.frame_to_dict(h.graph)}
    if args.depth >= 1:
        doc["endpoints"] = sorted(hulls.endpoints(h))
    if args.formula:
        doc["formula"] = hulls.hull_formula(h)
    return doc


def cmd_census(args) -> dict:
    fam = census.load_family(args.family)
    return census.census_to_dict(census.hull_census(fam, args.depth))


def cmd_skeleton(args) -> dict:
    fam = census.load_family(args.family)
    sk = census.ue_skeleton(fam, args.depth, args.budget)
    return {"frame": frame.frame_to_dict(sk.frame), "provenance": sk.provenance,
            "census": census.census_to_dict(sk.census)}


def _verdict(v: census.Verdict) -> dict:
    return {"verdict": v.kind, "evidence": v.evidence, "data": v.data}


def cmd_detect_reflexive(args) -> dict:
    return _verdict(census.reflexive_point_in_ue(census.load_family(args.family), args.chi_threshold))


def cmd_detect_generated(args) -> dict:
    return _verdict(census.generated_substructure_verdict(census.load_family(args.family)))


def cmd_detect_modal(args) -> dict:
    ok, report = census.modal_logic_coincides(census.load_family(args.family), args.depth)
    return {"coincides": ok, "report": report}


def integer(text: str) -> int:
    """An int option's value: ASCII decimal digits, after an optional "-" so that a negative value
    reaches its handler's own error.  This is the caps' rule; int() would also read spaces, "+",
    "_" and other scripts' digits.  Both the matcher and argparse read int options through it."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class Option(NamedTuple):
    """One option of a command: argparse's action (store, store_true or append), the type its value
    is read as (integer, or None for the string as given), its default, whether it is required, and
    the metavar printed by -h."""
    action: str = "store"
    type: Callable | None = None
    default: object = None
    required: bool = False
    metavar: str | None = None

    def kwargs(self) -> dict:
        """add_argument's keywords; a store_true action takes no type or metavar."""
        return {"action": self.action, "default": self.default, "required": self.required,
                **{k: v for k, v in (("type", self.type), ("metavar", self.metavar)) if v is not None}}


class Command(NamedTuple):
    """One command path: its handler (None for a group of subcommands), its positionals in order,
    its options by full name, and its help line in its parent's listing."""
    func: Callable | None = None
    positionals: tuple[str, ...] = ()
    options: dict[str, Option] = {}  # read only, so one empty default serves every command
    help: str | None = None


FLAG = Option("store_true", default=False)
AT = Option(required=True)
DEPTH = Option(type=integer, required=True)

# every command path, in the order -h lists them; the one declaration of the command line
COMMANDS = {
    ("ue",): Command(help="ultrafilter extension of a finite frame"),
    ("ue", "build"): Command(cmd_ue_build, ("frame",), {"--dot": FLAG}),
    ("ue", "cross-check"): Command(cmd_ue_cross_check, ("frame",)),
    ("modal",): Command(help="modal evaluation and frame validity"),
    ("modal", "eval"): Command(cmd_modal_eval, ("model", "formula"), {"--at": AT}),
    ("modal", "valid"): Command(cmd_modal_valid, ("frame", "formula")),
    ("bisim",): Command(cmd_bisim, ("model1", "model2"), {"--at1": AT, "--at2": AT, "--depth": DEPTH},
                        help="bounded bisimilarity of two pointed models"),
    ("fo",): Command(help="first order evaluation and games"),
    ("fo", "eval"): Command(cmd_fo_eval, ("frame", "formula"),
                            {"--let": Option("append", metavar="var=vertex")}),
    ("fo", "ef"): Command(cmd_fo_ef, ("frame1", "frame2"), {"--max-rounds": Option(type=integer, default=4)}),
    ("fo", "los-like"): Command(cmd_fo_los_like, ("frame", "formula"), {"--at": AT}),
    ("hull",): Command(cmd_hull, ("frame",), {"--at": AT, "--depth": DEPTH, "--formula": FLAG},
                       help="rooted n-hull of a vertex"),
    ("census",): Command(cmd_census, ("family",), {"--depth": DEPTH},
                         help="hull-type census of a presented family"),
    ("skeleton",): Command(cmd_skeleton, ("family",), {"--depth": DEPTH, "--budget": Option(type=integer)},
                           help="truncated extension skeleton of a family"),
    ("detect",): Command(help="verdicts about a family's extension"),
    ("detect", "reflexive"): Command(cmd_detect_reflexive, ("family",),
                                     {"--chi-threshold": Option(type=integer, default=10)}),
    ("detect", "generated"): Command(cmd_detect_generated, ("family",)),
    ("detect", "modal"): Command(cmd_detect_modal, ("family",), {"--depth": Option(type=integer, default=2)}),
}


def _dest(name: str) -> str:
    """The namespace attribute of an option, as argparse names it: --max-rounds is max_rounds."""
    return name[2:].replace("-", "_")


def _word_dest(group: tuple[str, ...]) -> str:
    """The namespace attribute of the command word after group: command, then ue_command."""
    return "_".join(group + ("command",))


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as bad input, like every other input error."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of COMMANDS, which prints -h and reports every usage error."""
    ap = _ArgumentParser(prog="uext", description="ultrafilter extension workbench")
    subs = {(): ap.add_subparsers(dest=_word_dest(()), required=True)}
    for path, cmd in COMMANDS.items():
        # a help keyword, even None, would list the subcommand in its parent's help
        p = subs[path[:-1]].add_parser(path[-1], **({} if cmd.help is None else {"help": cmd.help}))
        if cmd.func is None:
            subs[path] = p.add_subparsers(dest=_word_dest(path), required=True)
            continue
        for name in cmd.positionals:
            p.add_argument(name)
        for name, opt in cmd.options.items():
            p.add_argument(name, **opt.kwargs())
        p.set_defaults(func=cmd.func)
    return ap


_parser = functools.cache(build_parser)  # built for the first line match leaves to argparse, then reused


def match(argv: list[str]) -> argparse.Namespace | None:
    """The namespace build_parser's parse_args returns for argv when argv is a plain command
    line, else None.  Plain is: the command words, then the leaf's positionals in order, with
    each option by its full name and, unless it is a flag, a value token that does not start
    with "-"; every required option present, and every int value read by integer."""
    path, i = (), 0
    while i < len(argv) and path + (argv[i],) in COMMANDS:
        path, i = path + (argv[i],), i + 1
    cmd = COMMANDS.get(path)
    if cmd is None or cmd.func is None:
        return None
    values = {_dest(name): opt.default for name, opt in cmd.options.items()}
    given, positionals = set(), []
    tokens = iter(argv[i:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        opt = cmd.options.get(token)
        if opt is None:
            return None
        given.add(token)
        dest = _dest(token)
        if opt.action == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is not plain either
        if value.startswith("-"):
            return None
        if opt.type is not None:
            try:
                value = opt.type(value)
            except argparse.ArgumentTypeError:
                return None
        values[dest] = [*(values[dest] or ()), value] if opt.action == "append" else value
    if len(positionals) != len(cmd.positionals) or any(
            opt.required and name not in given for name, opt in cmd.options.items()):
        return None
    values.update(zip(cmd.positionals, positionals))
    words = {_word_dest(path[:k]): word for k, word in enumerate(path)}
    return argparse.Namespace(**words, **values, func=cmd.func)


def dumps(doc) -> str:
    """doc as ``json.dumps(doc, indent=2, sort_keys=True)`` writes it, byte for byte.  The stdlib
    writes an indented document with its pure-Python encoder; this writer appends to one list."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(value, indent: str, out: list[str]) -> None:
    """Append value's JSON text to out.  indent opens the line of its closing bracket, and each
    member's line opens with indent and two more spaces."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        lead, sep = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            out.append(lead + encode_basestring_ascii(key if isinstance(key, str) else _scalar(key)) + ": ")
            _write(item, inner, out)
            lead = sep
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        lead, sep = "[" + inner, "," + inner
        for item in value:
            if isinstance(item, str):  # a vertex id, the commonest member, without a call
                out.append(lead + encode_basestring_ascii(item))
            else:
                out.append(lead)
                _write(item, inner, out)
            lead = sep
        out.append(indent + "]")
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    """The JSON text of an empty array or object, null, a bool or a number."""
    if isinstance(value, (list, tuple, dict)):
        return "{}" if isinstance(value, dict) else "[]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv: list[str] | None = None) -> int:
    try:
        args = match(sys.argv[1:] if argv is None else argv)
        if args is None:  # help, or a line that is not plain: argparse reads it or reports the error
            args = _parser().parse_args(argv)
        doc = args.func(args)  # the JSON answer, or None when the command wrote its own output
        if doc is not None:
            sys.stdout.write(dumps(doc) + "\n")
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the process's memory, the one limit no budget counts
        print("resource limit: out of memory", file=sys.stderr)
        return 2
    except DefectError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
