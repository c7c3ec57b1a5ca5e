"""uext: a workbench for ultrafilter extensions of Kripke frames.

Exact extensions of finite frames, modal and first order evaluation,
Ehrenfeucht-Fraisse games, rooted n-hulls (certificates, and `hull_formula`,
the text of the formula pinning a hull's type), and hull-type censuses of
finitely presented infinite frames.
"""

from .errors import DefectError, InputError, ResourceError
from .frame import (
    Boundedness,
    DegreeReport,
    Frame,
    boundedness,
    degree,
    frame_from_dict,
    frame_to_dict,
    frame_to_dot,
    induced_subframe,
    load_frame,
    relation_image,
    reverse,
)
from .ultra import (
    Road,
    UEFrame,
    Ultrafilter,
    build_ue,
    canonical_embedding,
    enumerate_ultrafilters,
    roads_between,
    ue_related,
)
from .modal import (
    Model,
    UEModel,
    eval_modal,
    extend_model,
    frame_valid,
    modal_depth,
    modally_equivalent_upto,
    n_bisimilar,
    parse_modal,
    format_modal,
    truth_membership_check,
    truth_set,
)
from .fo import (
    Ultraproduct,
    distinguishing_sentence,
    ef_equivalent,
    ef_min_rounds,
    eval_fo,
    format_fo,
    index_ultrafilter,
    los_like_check,
    parse_fo,
    quantifier_rank,
    sentences_upto,
    spoiler_line,
    ultraproduct,
)
from .hulls import (
    HullType,
    RootedGraph,
    canonical_form,
    endpoints,
    hull,
    hull_formula,
    rooted_iso,
)
from .census import (
    FamilyPresentation,
    Generator,
    HullCensus,
    Ray,
    UESkeleton,
    Verdict,
    expand,
    family_from_dict,
    generated_substructure_verdict,
    greedy_coloring,
    hull_census,
    load_family,
    modal_logic_coincides,
    reflexive_point_in_ue,
    ue_skeleton,
)

__version__ = "0.1.0"
