"""Wall ladders: the first input size at which a layer needs more than one second.

Each ladder grows one input until a rung takes over a second (an interval
timer cuts the rung off at that point) or hits a resource cap; that rung's
size is the layer's wall.  A ladder whose top rung still finishes in time
reports one past its top.  The tops keep a much faster layer from using
more than a few hundred MiB.
"""

from __future__ import annotations

import math
import os
import random
import signal
import time

import oracle as O
import workloads as W

LIMIT_S = 1.0


class _Cutoff(BaseException):
    """Raised by the interval timer; BaseException so uext's handlers let it through."""


def _on_alarm(signum, frame):
    raise _Cutoff()


def _rung(call, resource_error) -> tuple[float, bool]:
    """Seconds taken and whether the rung finished within the limit."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    ok = False
    try:
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            call()
            ok = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (_Cutoff, resource_error):
        pass
    finally:
        signal.signal(signal.SIGALRM, previous)
    took = time.perf_counter() - start
    return took, ok and took <= LIMIT_S


def run_ladders(seed: int):
    """Walls per metric, rung timings per metric, and wrong answers seen on the way."""
    import uext
    from uext.fo import ef_min_rounds
    from uext.hulls import canonical_form, hull
    from uext.modal import Model, parse_modal, truth_set

    rng = random.Random(f"ladder:{seed}")
    wrong = []

    def frame(f):
        return uext.Frame(f[0], f[1])

    def check(what, got, want):
        if got != want:
            wrong.append(f"{what}: got {got!r}, expected {want!r}")

    def ue_call(n):
        f = frame(W.random_frame(rng, n, 0.3))
        want = {(f"pi:{a}", f"pi:{b}") for a, b in f.edges}
        return lambda: check(f"build_ue n={n}", set(uext.build_ue(f).ue_edges), want)

    def star_call(k):
        h = hull(frame(W.star(k)), "c", 1)
        return lambda: canonical_form(h)

    def kmm_call(m):
        h = hull(frame(W.kmm_root(m)), "r", 2)
        return lambda: canonical_form(h)

    model = Model.make(frame(W.clique(8)), {"p0": []})

    def depth_call(d):
        phi = parse_modal("<>" * d + "p0")
        return lambda: check(f"<>^{d} p0 on K8", truth_set(model, phi), frozenset())

    def ef_call(m):
        a, b = frame(W.linear_order(m)), frame(W.linear_order(m + 1))
        rounds = int(math.floor(math.log2(m + 1))) + 1
        return lambda: check(f"EF L_{m} vs L_{m + 1}", ef_min_rounds(a, b, rounds),
                             O.ef_linear_min_rounds(m, m + 1))

    ladders = {
        "ultra.wall_n": (range(8, 21), ue_call),
        "hulls.wall_star_k": (range(5, 17), star_call),
        "hulls.wall_kmm_m": (range(3, 11), kmm_call),
        "modal.wall_depth": (range(3, 13), depth_call),
        "fo.wall_m": (range(3, 17), ef_call),
    }
    walls, rungs = {}, {}
    saved = os.environ.get("UEXT_POWERSET_LIMIT")
    os.environ["UEXT_POWERSET_LIMIT"] = "64"
    try:
        for metric, (sizes, make_call) in ladders.items():
            rungs[metric] = []
            walls[metric] = sizes[-1] + 1
            for size in sizes:
                took, ok = _rung(make_call(size), uext.ResourceError)
                rungs[metric].append((size, took))
                if not ok:
                    walls[metric] = size
                    break
    finally:
        if saved is None:
            del os.environ["UEXT_POWERSET_LIMIT"]
        else:
            os.environ["UEXT_POWERSET_LIMIT"] = saved
    return walls, rungs, wrong
