"""Spans around uext's layer entry points, recorded from outside the program.

Each traced function is replaced by a wrapper at every module binding of the
same function object (``build_ue`` is bound in ``uext.ultra``, ``uext.modal``,
``uext.fo``, ``uext.cli`` and the package), and the bindings are restored on
exit.  Spans stay in memory as ``[layer, name, start, end, parent]`` and give
each layer's self time: its spans' durations minus the part their child spans
cover.

Per-element primitives (``relation_image``, ``Frame`` methods) are left
unwrapped on purpose: they run millions of times inside ``build_ue``, so
their time counts toward the layer that calls them, and the set images the
extension is built from count toward ``ultra``.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = {
    "cli": ["main"],
    "frame": ["load_frame", "frame_from_dict", "frame_to_dict", "frame_to_dot",
              "induced_subframe", "reverse", "degree", "boundedness"],
    "ultra": ["build_ue", "ue_related", "enumerate_ultrafilters", "canonical_embedding",
              "roads_between"],
    "modal": ["parse_modal", "eval_modal", "frame_valid", "truth_set", "n_bisimilar",
              "truth_membership_check", "modally_equivalent_upto", "extend_model"],
    "fo": ["parse_fo", "eval_fo", "ef_equivalent", "ef_min_rounds", "los_like_check",
           "spoiler_line", "distinguishing_sentence", "sentences_upto", "ultraproduct"],
    "hulls": ["hull", "canonical_form", "endpoints", "hull_formula", "rooted_iso"],
    "census": ["load_family", "family_from_dict", "expand", "hull_census", "ue_skeleton",
               "reflexive_point_in_ue", "generated_substructure_verdict",
               "modal_logic_coincides", "census_to_dict", "greedy_coloring",
               "clique_lower_bound"],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.subsets_bound = 0
        self.valuations_bound = 0
        self.certs: dict[int, set] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _hook(self, layer: str, name: str):
        """Counts read off a call's arguments and result at the layer boundary."""
        if (layer, name) == ("ultra", "build_ue"):
            def hook(args, result):
                n = len(args[0].vertices)
                self.subsets_bound += n * n * 2 ** (n + 1)
            return hook
        if (layer, name) == ("modal", "frame_valid"):
            letters = sys.modules["uext.modal"].letters

            def hook(args, result):
                self.valuations_bound += 2 ** (len(letters(args[1])) * len(args[0].vertices))
            return hook
        if (layer, name) == ("hulls", "canonical_form"):
            def hook(args, result):
                self.certs.setdefault(self.op, set()).add(result.certificate)
            return hook
        return None

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = self._hook(layer, name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def __enter__(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "uext" or name.startswith("uext."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"uext.{layer}"]
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """Self seconds and calls per layer, and calls per traced function."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        by_name: dict[str, int] = {}
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
            by_name[f"{layer}.{name}"] = by_name.get(f"{layer}.{name}", 0) + 1
        return self_s, calls, by_name

    def max_ms(self, layer: str, name: str) -> float:
        return max((1000 * (s[3] - s[2]) for s in self.spans if s[0] == layer and s[1] == name),
                   default=0.0)
