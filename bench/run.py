"""loopalg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload containment --seed 1 --seconds 15 --trace 0

Run from anywhere; loopalg is imported from the ``src/`` of the checkout that
holds this file, and the CLI goldens are read from its ``tests/golden/``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps loopalg's public calls from outside (see ``tracing.py``),
alternates untraced and traced passes, reports the per-layer metrics and
writes the spans to ``bench/out/trace-<workload>-seed<seed>.jsonl``.

A run measures whole passes until ``--seconds`` have passed and, with tracing
off, until p90 has at least ``MIN_BEYOND_P90`` reports beyond it; it stops
after ``CAP_FACTOR * --seconds`` either way.  The last line of stdout is the
result object; the exit code is 0 when every output check passed, 1 when one
failed and 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("containment", "residue-slice", "rigid-connection", "cli")

MIN_BEYOND_P90 = 10
CAP_FACTOR = 3
SETUP_REPEATS = 32
SPAWN_REPEATS = 7

# per-layer counters that must repeat exactly between traced passes of one seed
DETERMINISTIC = ("hitchin.int_path_frac", "ring.charpoly_calls", "laurent.objects",
                 "laurent.mul_calls", "laurent.window_underflows")


def rank(n: int, q: float) -> int:
    """1-based rank of the q-percentile of n values: the smallest value with
    more than a share q of the values at or below it.

    Every pass repeats the same reports, so when q * n is whole the value at
    rank q * n is the slowest repeat of one report and the one above it the
    fastest repeat of the next; the rank above keeps one noisy repeat from
    setting the figure.
    """
    return math.floor(q * n + 1e-9) + 1


def percentile(values: List[float], q: float) -> float:
    return sorted(values)[rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n values lie beyond the q-percentile."""
    return n - rank(n, q)


class Pass:
    def __init__(self, reports, seconds: float, traced: bool):
        self.reports = reports
        self.seconds = seconds
        self.traced = traced
        self.items = sum(r.items for r in reports)
        self.failed = sum(r.items for r in reports if not r.ok)
        self.digest = "".join(r.digest for r in reports)


def timed_pass(wl, tracer=None) -> Pass:
    t0 = time.perf_counter()
    reports = wl.run_pass(tracer)
    return Pass(reports, time.perf_counter() - t0, tracer is not None)


def spawn_seconds(argv: List[str], repeats: int, reported: bool = False) -> List[float]:
    """Seconds of fresh interpreters, after one untimed warm-up start.

    Wall time of each process, or with ``reported`` the figure it prints last.
    """
    import workloads

    env = workloads.child_env(ROOT)
    out = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        code, stdout = workloads.run_child(argv, env, ROOT)
        if code != 0:
            raise RuntimeError(f"{argv} exited with {code}")
        if i:
            out.append(float(stdout.split()[-1]) if reported else time.perf_counter() - t0)
    return out


def setup_seconds(name: str, repeats: int) -> List[float]:
    """Cold set-up times, each in a fresh interpreter."""
    if name == "cli":
        return spawn_seconds(["-m", "loopalg.cli", "--help"], repeats)
    return spawn_seconds([os.path.join(HERE, "probe.py"), name], repeats, reported=True)


def measure(wl, seconds: int) -> List[Pass]:
    passes: List[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(timed_pass(wl))
        elapsed = time.perf_counter() - t0
        reports = sum(len(p.reports) for p in passes)
        if elapsed >= CAP_FACTOR * seconds or (
                elapsed >= seconds and beyond(reports, 0.9) >= MIN_BEYOND_P90):
            return passes


def measure_traced(wl, tracer, seconds: int) -> Tuple[List[Pass], List[Tuple[int, int, Counter]]]:
    """Alternate untraced and traced passes; keep each traced pass's span range and counts."""
    passes: List[Pass] = []
    windows: List[Tuple[int, int, Counter]] = []
    t0 = time.perf_counter()
    while True:
        passes.append(timed_pass(wl))
        lo, before = len(tracer.spans), Counter(tracer.counts)
        with tracer.active():
            passes.append(timed_pass(wl, tracer))
        windows.append((lo, len(tracer.spans), tracer.counts - before))
        elapsed = time.perf_counter() - t0
        if len(windows) >= 2 and elapsed >= seconds:
            return passes, windows


# -- per-layer metrics ---------------------------------------------------------

def setup_layers(view) -> Dict[str, float]:
    """Layers whose work is set-up: read from the traced cold set-up."""
    return {
        "rootdata.build_ms": view.total_ms("rootdata.build_root_datum"),
        "rootdata.principal_triple_ms": view.total_ms("rootdata.principal_triple"),
        "affine.orthogonal_lattice_ms": view.total_ms("affine.orthogonal_lattice"),
        "affine.graded_triple_ms": view.total_ms("affine.graded_principal_triple"),
        "hitchin.invariant_system_ms": view.total_ms("hitchin.invariant_system"),
    }


def pass_layers(view, counts: Counter) -> Dict[str, float]:
    """Layers of one traced steady pass."""
    chev = view.durations_ns("hitchin.chevalley_map")
    int_path = view.share_without_child("hitchin.InvariantSystem.invariant_values",
                                        "ring.charpoly_esym")
    manifest = view.durations_ns("cli.manifest")
    return {
        "rootdata.regular_semisimple_ms": view.total_ms("rootdata.is_regular_semisimple"),
        "rootdata.regular_semisimple_calls": view.calls("rootdata.is_regular_semisimple"),
        "affine.residue_pairing_ms": view.total_ms("affine.residue_pairing"),
        "laurent.objects": counts["laurent.objects"],
        "laurent.mul_calls": counts["laurent.mul_calls"],
        "laurent.window_underflows": counts["laurent.window_underflows"],
        "ring.charpoly_calls": view.calls("ring.charpoly_esym"),
        "ring.charpoly_ms": view.total_ms("ring.charpoly_esym"),
        "ring.kernel_basis_calls": view.calls("ring.kernel_basis"),
        "ring.kernel_basis_ms": view.total_ms("ring.kernel_basis"),
        "ring.mat_mul_ms": view.total_ms("ring.mat_mul"),
        "ring.ratfunc_row_reduce_ms": view.total_ms("ring.ratfunc_row_reduce"),
        "hitchin.chevalley_calls": len(chev),
        "hitchin.chevalley_ms": sum(chev) / 1e6,
        "hitchin.chevalley_p50_us": percentile(chev, 0.5) / 1e3 if chev else 0.0,
        "hitchin.chevalley_p90_us": percentile(chev, 0.9) / 1e3 if chev else 0.0,
        "hitchin.int_path_frac": 0.0 if int_path is None else int_path,
        "hitchin.sample_ms": view.total_ms("hitchin.sample_orth_element"),
        "hitchin.section_ms": view.total_ms("hitchin.section_from_cover"),
        "hitchin.verify_containment_self_ms": view.self_ms("hitchin.verify_containment"),
        "hitchin.residue_diagram_self_ms": view.self_ms("hitchin.residue_diagram"),
        "hitchin.verify_surjectivity_self_ms": view.self_ms("hitchin.verify_surjectivity"),
        "opers.fg_connection_ms": view.total_ms("opers.fg_connection"),
        "opers.local_checks_ms": view.total_ms("opers.check_residue_rs",
                                               "opers.check_irregular_type"),
        "opers.slope_certificate_self_ms": view.self_ms("opers.slope_certificate"),
        "opers.cyclic_ode_ms": view.total_ms("opers.cyclic_ode"),
        "opers.global_spaces_ms": view.total_ms("opers.global_oper_space",
                                                "opers.global_hitchin_base"),
        "cli.manifest_ms": sum(manifest) / 1e6,
        "cli.jobs1_ms": view.total_ms("cli.jobs1"),
        "cli.jobs2_ms": view.total_ms("cli.jobs2"),
        "cli.golden_mismatches": 0,  # filled from the reports
    }


def traced_run(wl, seconds: int, trace_path: str):
    import tracing

    tracer = tracing.Tracer()
    with tracer.active():
        wl.setup()
    setup = setup_layers(tracing.SpanView(tracer.spans, 0, len(tracer.spans)))
    passes, windows = measure_traced(wl, tracer, seconds)
    per_pass = []
    traced = [p for p in passes if p.traced]
    for (lo, hi, counts), p in zip(windows, traced):
        layers = pass_layers(tracing.SpanView(tracer.spans, lo, hi), counts)
        layers["cli.golden_mismatches"] = sum(
            1 for r in p.reports if r.note == "golden mismatch")
        per_pass.append(layers)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)

    problems = []
    first = per_pass[0]
    for i, layers in enumerate(per_pass[1:], 2):
        for key in DETERMINISTIC:
            if layers[key] != first[key]:
                problems.append(f"{key} differs between traced passes 1 and {i}: "
                                f"{first[key]} != {layers[key]}")
    metrics = dict(setup)
    for key in first:
        values = [layers[key] for layers in per_pass]
        exact = isinstance(first[key], int) or key in DETERMINISTIC
        metrics[key] = statistics.median_low(values) if exact else statistics.median(values)
    if wl.name == "cli":
        metrics["cli.interpreter_ms"] = 1e3 * statistics.median(
            spawn_seconds(["-c", "pass"], SPAWN_REPEATS))
        metrics["cli.startup_ms"] = 1e3 * statistics.median(
            spawn_seconds(["-c", "import loopalg.cli"], SPAWN_REPEATS))
        jobs2 = metrics["cli.jobs2_ms"]
        metrics["cli.parallel_eff"] = metrics["cli.jobs1_ms"] / (2 * jobs2) if jobs2 else 0.0
    else:
        metrics["cli.interpreter_ms"] = metrics["cli.startup_ms"] = 0.0
        metrics["cli.parallel_eff"] = 0.0
    untraced = statistics.median(p.seconds for p in passes if not p.traced)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(p.seconds for p in traced) / untraced - 1)
    return passes, metrics, problems


def untraced_run(wl, seconds: int):
    # half the set-up probes before the passes and half after, so that the
    # median covers the whole run rather than the load of its first second
    setup = setup_seconds(wl.name, SETUP_REPEATS // 2)
    wl.setup()
    passes = measure(wl, seconds)
    setup += setup_seconds(wl.name, SETUP_REPEATS - SETUP_REPEATS // 2)
    latencies = [r.seconds * 1e3 for p in passes for r in p.reports]
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(p.items / p.seconds for p in passes),
        "report_p50_ms": percentile(latencies, 0.5),
        "report_p90_ms": percentile(latencies, 0.9),
        "pass_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    print(f"{wl.name}: {len(passes)} passes, {len(latencies)} reports, "
          f"{beyond(len(latencies), 0.9)} beyond p90, {attempted} items, {failed} failed")
    return passes, metrics, []


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    needed = [os.path.join(ROOT, "BENCHMARK.json"),
              os.path.join(ROOT, "src", "loopalg", "__init__.py"),
              os.path.join(ROOT, "tests", "golden", "manifest.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.stderr.write(f"incomplete checkout at {ROOT}: missing {', '.join(missing)}\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import loopalg
    import workloads

    if not os.path.abspath(loopalg.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.stderr.write(f"loopalg imported from {loopalg.__file__}, not from {ROOT}/src\n")
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    wl = workloads.make(args.workload, args.seed, ROOT)
    if args.trace:
        trace_path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        passes, values, problems = traced_run(wl, args.seconds, trace_path)
    else:
        passes, values, problems = untraced_run(wl, args.seconds)

    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"report digests differ across passes ({len(digests)} distinct)")
    for p in passes:
        for r in p.reports:
            if not r.ok:
                problems.append(f"{r.name}: {r.note}")
    for msg in sorted(set(problems)):
        sys.stderr.write(f"check failed: {msg}\n")

    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    if len(digests) > 1:
        # a pass whose reports differ from the first pass's counts as failed
        failed += sum(p.items - p.failed for p in passes if p.digest != passes[0].digest)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "passes": len(passes), "reports": sum(len(p.reports) for p in passes)}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
