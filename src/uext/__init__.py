"""uext: a workbench for ultrafilter extensions of Kripke frames.

Exact extensions of finite frames, modal and first order evaluation,
Ehrenfeucht-Fraisse games, rooted n-hulls (certificates, and `hull_formula`,
the text of the formula pinning a hull's type), and hull-type censuses of
finitely presented infinite frames.

What is loaded when: importing the package runs only `errors`.  Every other
module (`caps`, `syntax`, `games`, `frame`, `ultra`, `modal`, `fo`, `hulls`,
`census`) is put in ``sys.modules`` and bound on the package at once through
``importlib.util.LazyLoader``, but it is compiled and run only when one of its
attributes is first read, and then in place, so the module object stays the
same.  A package name such as ``uext.build_ue`` is read from its module by
``__getattr__`` each time, so it loads that module (and what it imports) and
no other.  ``uext.cli`` calls each layer through its module object, so a
command loads only the layers it runs: ``uext hull`` loads `frame` and
`hulls`; ``uext ue build`` loads `caps`, `frame` and `ultra`.
"""

import importlib.util
import sys

from .errors import DefectError, InputError, ResourceError

# each module's public names, read by __getattr__
_EXPORTS = {
    "frame": ("Boundedness", "DegreeReport", "Frame", "boundedness", "degree", "frame_from_dict",
              "frame_to_dict", "frame_to_dot", "induced_subframe", "load_frame", "relation_image", "reverse"),
    "ultra": ("Road", "UEFrame", "Ultrafilter", "build_ue", "canonical_embedding", "enumerate_ultrafilters",
              "roads_between", "ue_related"),
    "modal": ("Model", "UEModel", "eval_modal", "extend_model", "frame_valid", "modal_depth",
              "modally_equivalent_upto", "n_bisimilar", "parse_modal", "format_modal", "truth_membership_check",
              "truth_set"),
    "fo": ("Ultraproduct", "distinguishing_sentence", "ef_equivalent", "ef_min_rounds", "eval_fo", "format_fo",
           "index_ultrafilter", "los_like_check", "parse_fo", "quantifier_rank", "sentences_upto", "spoiler_line",
           "ultraproduct"),
    "hulls": ("HullType", "RootedGraph", "canonical_form", "endpoints", "hull", "hull_formula", "rooted_iso"),
    "census": ("FamilyPresentation", "Generator", "HullCensus", "Ray", "UESkeleton", "Verdict", "expand",
               "family_from_dict", "generated_substructure_verdict", "greedy_coloring", "hull_census",
               "load_family", "modal_logic_coincides", "reflexive_point_in_ue", "ue_skeleton"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["DefectError", "InputError", "ResourceError", *_HOME]
__version__ = "0.1.0"


def _register(name: str):
    """The module uext.name, in sys.modules and bound here, to be run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


caps, syntax, games, frame, ultra, modal, fo, hulls, census = map(
    _register, ("caps", "syntax", "games", "frame", "ultra", "modal", "fo", "hulls", "census"))


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
