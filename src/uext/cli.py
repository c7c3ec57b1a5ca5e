"""uext command line interface.

Exit codes: 0 answer computed (a detector's verdict is yes or no), 1 bad input
(usage errors included), 2 resource cap exceeded or memory exhausted, 3 internal
cross-check defect.

``main`` builds the argparse parser on its first call and reuses it for every
later call in the process, so a script or test that calls ``main`` in a loop
pays for building it once.  The parser keeps no state between calls: each
parse returns a fresh namespace, and help reads the terminal width when it is
printed.  A one-shot shell run still builds it once, as before.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import census as census_mod
from .errors import DefectError, InputError, ResourceError
from .fo import eval_fo, ef_min_rounds, format_fo, los_like_check, parse_fo
from .frame import distinct, frame_from_dict, frame_to_dict, frame_to_dot, json_array, read_json, vertex_id
from .hulls import canonical_form, endpoints, hull, hull_formula
from .modal import LETTER, Model, eval_modal, frame_valid, n_bisimilar, parse_modal
from .ultra import Ultrafilter, build_ue


def _load_model(path: str) -> Model:
    """A model file, or a frame file, whose valuation, when it has one, is checked all the same."""
    doc = read_json(path, "frame")
    frame = frame_from_dict(doc)
    val = doc.get("valuation", {})
    if not isinstance(val, dict):
        raise InputError("valuation must be an object mapping letters to vertex lists")
    for p in val:
        if not LETTER.fullmatch(p):
            raise InputError(f"valuation has unknown letter {p!r} (known: p followed by digits)")
    return Model.make(frame, {p: distinct((vertex_id(x) for x in json_array(xs, f"valuation of {p!r}")),
                                          "vertex", f"valuation of {p!r}")
                              for p, xs in val.items()})


def cmd_ue_build(args) -> dict | None:
    frame = _load_model(args.frame).frame
    ue = build_ue(frame)
    if not args.dot:
        return frame_to_dict(ue.frame)
    sys.stdout.write(frame_to_dot(ue.frame))


def cmd_ue_cross_check(args) -> dict:
    frame = _load_model(args.frame).frame
    build_ue(frame)  # raises DefectError if the three relation modes disagree
    return {"frame": args.frame, "modes_agree": True}


def cmd_modal_eval(args) -> dict:
    model = _load_model(args.model)
    phi = parse_modal(args.formula)
    return {"holds": eval_modal(model, args.at, phi)}


def cmd_modal_valid(args) -> dict:
    frame = _load_model(args.frame).frame
    phi = parse_modal(args.formula)
    ok, counter = frame_valid(frame, phi)
    doc = {"valid": ok}
    if counter is not None:
        cm, cw = counter
        doc["counter_world"] = cw
        doc["counter_valuation"] = {p: sorted(xs) for p, xs in cm.valuation}
    return doc


def cmd_bisim(args) -> dict:
    m1, m2 = _load_model(args.model1), _load_model(args.model2)
    return {"bisimilar": n_bisimilar(m1, args.at1, m2, args.at2, args.depth), "depth": args.depth}


def cmd_fo_eval(args) -> dict:
    frame = _load_model(args.frame).frame
    phi = parse_fo(args.formula)
    assignment = {}
    for item in args.let or []:
        if "=" not in item:
            raise InputError(f"--let expects var=vertex, got {item!r}")
        var, vert = item.split("=", 1)
        if var in assignment:
            raise InputError(f"--let binds {var!r} twice")
        frame.check_vertices([vert])
        assignment[var] = vert
    return {"holds": eval_fo(frame, phi, assignment)}


def cmd_fo_ef(args) -> dict:
    f1, f2 = _load_model(args.frame1).frame, _load_model(args.frame2).frame
    k = ef_min_rounds(f1, f2, args.max_rounds)
    return {"min_spoiler_rounds": k, "equivalent_up_to": args.max_rounds if k is None else k - 1}


def cmd_fo_los_like(args) -> dict:
    frame = _load_model(args.frame).frame
    u = Ultrafilter(frame, args.at)  # checks --at before the formula is parsed
    phi = parse_fo(args.formula)
    ok, lhs, rhs = los_like_check(frame, phi, u)
    return {"agrees": ok, "extension_side": lhs, "membership_side": rhs}


def cmd_hull(args) -> dict:
    frame = _load_model(args.frame).frame
    h = hull(frame, args.at, args.depth)
    doc = {"root": h.root, "depth": h.depth, "size": len(h.graph.vertices),
           "certificate": canonical_form(h).hex, "frame": frame_to_dict(h.graph)}
    if args.depth >= 1:
        doc["endpoints"] = sorted(endpoints(h))
    if args.formula:
        doc["formula"] = format_fo(hull_formula(h))
    return doc


def cmd_census(args) -> dict:
    fam = census_mod.load_family(args.family)
    c = census_mod.hull_census(fam, args.depth)
    return census_mod.census_to_dict(c)


def cmd_skeleton(args) -> dict:
    fam = census_mod.load_family(args.family)
    sk = census_mod.ue_skeleton(fam, args.depth, args.budget)
    return {"frame": frame_to_dict(sk.frame), "provenance": sk.provenance,
            "census": census_mod.census_to_dict(sk.census)}


# each detect property's flags and their defaults; a flag of another property would do nothing
DETECT_FLAGS = {"reflexive": {"chi_threshold": 10}, "generated": {}, "modal": {"depth": 2}}


def cmd_detect(args) -> dict:
    own = DETECT_FLAGS[args.property]
    for name in ("chi_threshold", "depth"):
        given = getattr(args, name)
        if given is not None and name not in own:
            raise InputError(f"uext: detect {args.property} does not take --{name.replace('_', '-')}")
        setattr(args, name, own.get(name) if given is None else given)
    fam = census_mod.load_family(args.family)
    if args.property == "modal":
        ok, report = census_mod.modal_logic_coincides(fam, args.depth)
        return {"coincides": ok, "report": report}
    v = (census_mod.reflexive_point_in_ue(fam, args.chi_threshold) if args.property == "reflexive"
         else census_mod.generated_substructure_verdict(fam))
    return {"verdict": v.kind, "evidence": v.evidence, "data": v.data}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as bad input, like every other input error."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="uext", description="ultrafilter extension workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    ue = sub.add_parser("ue", help="ultrafilter extension of a finite frame")
    uesub = ue.add_subparsers(dest="ue_command", required=True)
    p = uesub.add_parser("build")
    p.add_argument("frame")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_ue_build)
    p = uesub.add_parser("cross-check")
    p.add_argument("frame")
    p.set_defaults(func=cmd_ue_cross_check)

    modal = sub.add_parser("modal", help="modal evaluation and frame validity")
    msub = modal.add_subparsers(dest="modal_command", required=True)
    p = msub.add_parser("eval")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--at", required=True)
    p.set_defaults(func=cmd_modal_eval)
    p = msub.add_parser("valid")
    p.add_argument("frame")
    p.add_argument("formula")
    p.set_defaults(func=cmd_modal_valid)

    p = sub.add_parser("bisim", help="bounded bisimilarity of two pointed models")
    p.add_argument("model1")
    p.add_argument("model2")
    p.add_argument("--at1", required=True)
    p.add_argument("--at2", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_bisim)

    fo = sub.add_parser("fo", help="first order evaluation and games")
    fsub = fo.add_subparsers(dest="fo_command", required=True)
    p = fsub.add_parser("eval")
    p.add_argument("frame")
    p.add_argument("formula")
    p.add_argument("--let", action="append", metavar="var=vertex")
    p.set_defaults(func=cmd_fo_eval)
    p = fsub.add_parser("ef")
    p.add_argument("frame1")
    p.add_argument("frame2")
    p.add_argument("--max-rounds", type=int, default=4)
    p.set_defaults(func=cmd_fo_ef)
    p = fsub.add_parser("los-like")
    p.add_argument("frame")
    p.add_argument("formula")
    p.add_argument("--at", required=True)
    p.set_defaults(func=cmd_fo_los_like)

    p = sub.add_parser("hull", help="rooted n-hull of a vertex")
    p.add_argument("frame")
    p.add_argument("--at", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--formula", action="store_true")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("census", help="hull-type census of a presented family")
    p.add_argument("family")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("skeleton", help="truncated extension skeleton of a family")
    p.add_argument("family")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("detect", help="verdicts about a family's extension")
    p.add_argument("property", choices=list(DETECT_FLAGS))
    p.add_argument("family")
    p.add_argument("--chi-threshold", type=int, help="reflexive only (default 10)")
    p.add_argument("--depth", type=int, help="modal only (default 2)")
    p.set_defaults(func=cmd_detect)

    return ap


_parser = functools.cache(build_parser)  # built on the first main call, then reused


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        doc = args.func(args)  # the JSON answer, or None when the command wrote its own output
        if doc is not None:
            sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
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
