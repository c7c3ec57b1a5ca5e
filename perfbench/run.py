"""uext benchmark: closed-loop subcommand workloads with oracle-checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload ue-extension --seed 1 --seconds 20 --trace 0

One operation is one ``uext`` command line, run in-process through
``uext.cli.main(argv)`` with stdout captured, on input files generated from
the seed.  One client in one process sends the next operation only after the
previous one returned.  A pass is the workload's fixed ordered list of
operations; whole passes repeat until --seconds have gone by.  Every answer
is checked against the oracle in ``oracle.py``.  A fixed reference kernel
runs between operations, and every time is scaled to the kernel's nominal
pace, so the host's drift in speed cancels.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries per-layer metrics from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
# The reference kernel's time at the speed all timings are scaled to: its
# typical time on a 2.0 GHz Intel Xeon vCPU with Python 3.11.
PACE_NOMINAL_S = 0.0013


def import_uext():
    """A fresh import of uext and its CLI from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "uext" or m.startswith("uext.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("uext.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported uext from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def run_op(cli, op) -> tuple[int | None, str, float, float]:
    """Exit code (None if it raised), stdout, wall seconds and CPU seconds of one operation."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an operation that raises counts as failed
        rc, out = None, io.StringIO(f"raised {type(exc).__name__}: {exc}")
    t1, c1 = time.perf_counter(), time.process_time()
    return rc, out.getvalue(), t1 - t0, c1 - c0


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like uext's: small frozensets, sets of tuples, dicts.

    It calls no uext code, so a change to uext never moves its time; only
    the speed of the host does.
    """
    seen = set()
    for m in range(1, 240):
        x = frozenset(j for j in range(10) if m >> j & 1)
        seen.add(x)
        pairs = {(j, m) for j in x}
        index = {p: len(seen) for p in pairs}
        seen.add(frozenset(index))
    return len(seen)


def pace() -> tuple[float, float]:
    """Wall and CPU seconds of one reference kernel run."""
    c0, t0 = time.process_time(), time.perf_counter()
    reference_kernel()
    t1, c1 = time.perf_counter(), time.process_time()
    return t1 - t0, c1 - c0


class Loop:
    """The closed-loop client: runs whole passes and checks every answer."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        # wall and CPU seconds of every operation run, scaled to the nominal pace
        self.latencies: list[float] = []
        self.cpus: list[float] = []
        self.kinds: list[str] = []
        self.indices: list[int] = []
        self._pace = pace()
        self.paces = [self._pace[0]]
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict = {}

    def record(self, i: int, op, rc: int | None, out: str) -> None:
        """Check one answer; an identical earlier answer to the same operation is not re-checked."""
        key = (i, rc, out)
        if key not in self._verdicts:
            self._verdicts[key] = out if rc is None else op.check(rc, out)
        self.attempted += 1
        if self._verdicts[key] is not None:
            self.failures.append(f"{' '.join(op.argv)}: {self._verdicts[key]}")

    def one_pass(self, tracer=None) -> float:
        """Run every operation once, in order; return the seconds they took, unscaled.

        The reference kernel runs between operations.  Each operation's times
        are scaled by the nominal pace over the mean of the kernel's times
        just before and just after it, which cancels the host's drift.
        """
        spent = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = len(self.latencies)
            rc, out, wall, cpu = run_op(self.cli, op)
            after = pace()
            before, self._pace = self._pace, after
            self.paces.append(after[0])
            self.record(i, op, rc, out)
            self.latencies.append(wall * 2 * PACE_NOMINAL_S / (before[0] + after[0]))
            self.cpus.append(cpu * 2 * PACE_NOMINAL_S / (before[1] + after[1]))
            self.kinds.append(op.kind)
            self.indices.append(i)
            spent += wall
        return spent

    def typical(self, times: list[float]) -> list[float]:
        """Each operation of the pass at the median of its scaled times over the run."""
        by: list[list[float]] = [[] for _ in self.ops]
        for i, t in zip(self.indices, times):
            by[i].append(t)
        return [statistics.median(xs) for xs in by]


def setup(workload: str, seed: int, work: Path):
    """Import uext, write the inputs and warm up each subcommand once.

    The time returned is scaled to the nominal pace, like the operations'.
    """
    import workloads

    before = pace()
    start = time.perf_counter()
    cli = import_uext()
    ops = workloads.WORKLOADS[workload](workloads.Inputs(work, seed, workload), ROOT)
    warm, seen = [], set()
    for i, op in enumerate(ops):
        if op.kind not in seen:
            seen.add(op.kind)
            rc, out, _, _ = run_op(cli, op)
            warm.append((i, op, rc, out))
    took = time.perf_counter() - start
    took *= 2 * PACE_NOMINAL_S / (before[0] + pace()[0])
    return took, cli, ops, warm


def quantile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[q - 1]


def kind_report(loop: Loop) -> list[str]:
    by: dict[str, list[float]] = {}
    for kind, lat in zip(loop.kinds, loop.latencies):
        by.setdefault(kind, []).append(lat)
    lines = []
    for kind, xs in sorted(by.items()):
        p90 = quantile(xs, 9) if len(xs) > 1 else xs[0]
        lines.append(f"  {kind:17s} n={len(xs):5d}  p50={1000 * statistics.median(xs):9.2f} ms"
                     f"  p90={1000 * p90:9.2f} ms  total={sum(xs):7.2f} s")
    return lines


def end_to_end(loop: Loop, setup_times: list[float], failed: int, attempted: int) -> dict:
    """Timing metrics from scaled times: percentiles over every operation run,
    throughput and CPU time over one pass of typical operations."""
    lat = loop.latencies
    wall, cpu = loop.typical(lat), loop.typical(loop.cpus)
    return {
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * quantile(lat, 9), "ms"),
        "cpu_ms_per_op": (1000 * sum(cpu) / len(cpu), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(tracer, passes: int, traced_s: float, untraced_s: float, walls: dict, unsound: int) -> dict:
    from spans import LAYERS

    self_s, calls, by_name = tracer.layer_totals()
    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
        m[f"{layer}.calls"] = (calls[layer] / passes, "count")
        m[f"{layer}.share"] = (self_s[layer] / traced_s, "ratio")
    canon = by_name.get("hulls.canonical_form", 0)
    distinct = sum(len(c) for c in tracer.certs.values())
    m.update({
        "ultra.subsets_bound": (tracer.subsets_bound / passes, "count"),
        "ultra.wall_n": (walls["ultra.wall_n"], "vertices"),
        "modal.valuations_bound": (tracer.valuations_bound / passes, "count"),
        "modal.wall_depth": (walls["modal.wall_depth"], "depth"),
        "fo.ef_games": (by_name.get("fo.ef_equivalent", 0) / passes, "count"),
        "fo.wall_m": (walls["fo.wall_m"], "elements"),
        "hulls.canonical_calls": (canon / passes, "count"),
        "hulls.distinct_certs": (distinct / passes, "count"),
        "hulls.cert_reuse_ratio": (1 - distinct / canon if canon else 0.0, "ratio"),
        "hulls.canonical_max_ms": (tracer.max_ms("hulls", "canonical_form"), "ms"),
        "hulls.wall_star_k": (walls["hulls.wall_star_k"], "leaves"),
        "hulls.wall_kmm_m": (walls["hulls.wall_kmm_m"], "m"),
        "census.hull_census_calls": (by_name.get("census.hull_census", 0) / passes, "count"),
        "census.expand_calls": (by_name.get("census.expand", 0) / passes, "count"),
        "census.reflexive_unsound": (unsound, "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # uext iterates frozensets of strings, so string hashing decides where its
    # searches stop early.  Tie the hash seed to the workload seed: one seed
    # then fixes all the work of a run, and different seeds average it out.
    hash_seed = str(args.seed % 2**32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable] + sys.argv)

    if not (ROOT / "src" / "uext" / "cli.py").is_file():
        print(f"error: no uext sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import ladder
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        setup_times, warm_failures, warm_calls = [], [], 0
        for k in range(SETUPS):
            d = work / f"setup{k}"
            d.mkdir()
            took, cli, ops, warm = setup(args.workload, args.seed, d)
            setup_times.append(took)
            check = Loop(cli, ops)
            for i, op, rc, out in warm:
                check.record(i, op, rc, out)
            warm_calls += check.attempted
            warm_failures += check.failures
        loop = Loop(cli, ops)
        loop.attempted, loop.failures = warm_calls, warm_failures
        # leave the set-up's objects out of the collector's scans, as in a fresh process
        gc.collect()
        gc.freeze()

        passes = 0
        if args.trace == 0:
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds or len(loop.latencies) < MIN_OPS:
                loop.one_pass()
                passes += 1
        else:
            # untraced and traced passes alternate, so drift in machine speed hits both alike
            tracer = Tracer()
            untraced_s = traced_s = 0.0
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                untraced_s += loop.one_pass()
                with tracer:
                    traced_s += loop.one_pass(tracer)
                passes += 1
            walls, rungs, wrong = ladder.run_ladders(args.seed)
            loop.failures += wrong
            loop.attempted += len(wrong)

        (work / "probes").mkdir()
        probes = workloads.reflexive_probes(workloads.Inputs(work / "probes", args.seed, "probes"))
        unsound = 0
        for name, op in probes:
            rc, out, _, _ = run_op(cli, op)
            reason = out if rc is None else op.check(rc, out)
            if reason is not None:
                unsound += 1
                print(f"known defect (reflexive verdict, not counted as failed): {name}: {reason}")

        print(f"{args.workload} seed={args.seed}: {passes} passes of {len(ops)} operations, "
              f"setup {statistics.median(setup_times):.3f} s (median of {SETUPS}); reference kernel "
              f"{1000 * statistics.median(loop.paces):.3f} ms (median), {1000 * PACE_NOMINAL_S} ms nominal")
        for line in kind_report(loop):
            print(line)
        for failure in loop.failures[:10]:
            print(f"FAILED {failure}")

        failed = len(loop.failures)
        if args.trace == 0:
            metrics = end_to_end(loop, setup_times, failed, loop.attempted)
        else:
            for metric, steps in rungs.items():
                print(f"  ladder {metric}: " + ", ".join(f"{s}:{t:.3f}s" for s, t in steps))
            metrics = per_layer(tracer, passes, traced_s, untraced_s, walls, unsound)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": loop.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
