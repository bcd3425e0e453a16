"""One benchmark interpreter: run one workload and print its measurements.

``run.py`` starts this file in a fresh interpreter per workload, with the
checkout's ``src`` on PYTHONPATH, so ``peak_rss_mb`` and the per-semigroup
caches start cold, as they do for a user:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It prints one JSON object on its last stdout line: per-pass timings and
counters, the gate's tallies and, when traced, the per-layer report.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import davenport
from davenport import Sequence, is_reducible

from tracing import Clock, Tracer
from workloads import WORKLOADS, Run

ROOT = Path(__file__).resolve().parent.parent

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import davenport.cli; "
    "print(time.perf_counter() - t)"
)
CHILD_TIMEOUT_S = 60

# Per-layer metrics with the reason they are missing on a workload that
# does not exercise the layer; values are per pass.
NOT_EXERCISED = "not exercised by this workload"
OUTSIDE_ONLY = (
    "memo size and hits, prunes by rule, maximum depth and stop reason are "
    "kept inside davenport_exact and are not visible through the public API"
)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_report(tracer, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass, each {value, unit[, note]}."""

    def total(name):
        return sum(tracer.durations(name))

    def entry(value, unit, note=None):
        out = {"value": value, "unit": unit}
        if note:
            out["note"] = note
        return out

    rep = {
        "parsing.parse_ms": entry(_ms(total("parsing.parse")), "ms"),
        "gfpoly.factor_ms": entry(_ms(total("gfpoly.factor")), "ms"),
        "semigroup.build_ms": entry(_ms(total("semigroup.build")), "ms"),
        "semigroup.units_ms": entry(_ms(total("semigroup.units")), "ms"),
        "zerosum.tables_ms": entry(_ms(total("zerosum.tables")), "ms"),
        "zerosum.exact_solved": entry(counts["exact_solved"], "count"),
        "zerosum.search_nodes": entry(counts["search_nodes"], "count",
                                      "complete searches only; repeats exactly"),
        "zerosum.capped_search_nodes": entry(counts["capped_nodes"], "count",
                                             "budget-capped searches; depends on speed"),
    }
    search_s = total("zerosum.search")
    if search_s:
        note = "spans around davenport_exact"
    elif counts["search_ms_reported"]:
        search_s = counts["search_ms_reported"] / 1000.0
        note = ("searches run inside verify_*; summed DavenportResult.millis "
                "of the results the reports return (the CRT route of "
                "verify_theorem1 returns no result, so it is not included)")
    else:
        note = NOT_EXERCISED
    rep["zerosum.search_ms"] = entry(_ms(search_s) if search_s else None, "ms", note)
    nodes = counts["search_nodes"] + counts["capped_nodes"]
    rep["zerosum.nodes_per_s"] = entry(
        nodes / search_s if search_s else None, "1/s",
        None if search_s else NOT_EXERCISED)
    checks = tracer.durations("zerosum.witness_check")
    rep["zerosum.witness_check_ms"] = entry(
        _ms(sum(checks)) if checks else None, "ms", None if checks else NOT_EXERCISED)
    capped = "overshoot_ms" in counts
    rep["zerosum.budget_overshoot_ms"] = entry(
        counts["overshoot_ms"] if capped else None, "ms",
        None if capped else "no budget-capped search in this workload")
    mc_s = total("zerosum.montecarlo")
    rep["zerosum.mc_checked"] = entry(counts["mc_checked"], "count")
    rep["zerosum.mc_checks_per_s"] = entry(
        counts["mc_checked"] / mc_s if mc_s else None, "1/s", None if mc_s else NOT_EXERCISED)
    reports = tracer.durations("verify.report")
    rep["verify.report_ms"] = entry(
        _ms(sum(reports)) if reports else None, "ms", None if reports else NOT_EXERCISED)
    reduce = tracer.durations("verify.reduce")
    rep["verify.reductions"] = entry(counts["reductions"], "count")
    if reduce:
        cuts = statistics.quantiles(reduce, n=100)
        rep["verify.reductions_per_s"] = entry(len(reduce) / sum(reduce), "1/s")
        rep["verify.reduce_ms_p50"] = entry(_ms(statistics.median(reduce)), "ms")
        rep["verify.reduce_ms_p99"] = entry(_ms(cuts[98]), "ms",
                                            f"{len(reduce)} reductions per pass")
    else:
        for key, unit in (("reductions_per_s", "1/s"), ("reduce_ms_p50", "ms"),
                          ("reduce_ms_p99", "ms")):
            rep[f"verify.{key}"] = entry(None, unit, NOT_EXERCISED)
    for layer, seconds in sorted(tracer.layer_self_times().items()):
        rep[f"{layer}.self_ms"] = entry(_ms(seconds), "ms")
    rep["zerosum.search_counters"] = entry(None, "-", OUTSIDE_ONLY)
    return rep


def tables_memory_mb(run) -> float:
    """tracemalloc peak of the first table build on a fresh copy of the
    workload's largest universe (built before tracing starts)."""
    _, builder, args = run.largest
    S = builder(*args)
    gc.collect()
    tracemalloc.start()
    try:
        is_reducible(Sequence.from_indices(S, [S.identity]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def cli_check(run, workload, seed: int) -> dict:
    """Time one cheap CLI verb in a subprocess; its record must equal the
    library's ``to_record()`` for the same call."""
    argv, library_call = workload.cli(seed)
    out = {}
    label = "cli " + " ".join(argv)

    def body():
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        out["cli.import_ms"] = _ms(float(proc.stdout.strip().splitlines()[-1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "davenport.cli", *argv, "--format", "record"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        out["cli.verb_ms"] = _ms(time.perf_counter() - start)
        run.check(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if lines else None
        expected = json.loads(json.dumps(library_call().to_record(), sort_keys=True))
        run.check(record == expected, f"record {record} differs from library {expected}")

    run.operation(label, body)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(davenport.__file__).resolve().parents:
        print(f"error: davenport imported from {davenport.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tracer = Tracer(bool(args.trace))
    run = Run(tracer, args.seed)
    inputs = workload.inputs(args.seed)
    # a fixed pass count, so every run (and both commits of a comparison)
    # does the same work whatever the host's speed
    n_passes = max(1, int(args.seconds // workload.pass_s))

    setup_samples = []
    for _ in range(0 if args.trace else workload.setup_rounds):
        run.setup = Clock()
        workload.setup(run)
        setup_samples.append(run.setup.wall)
        gc.collect()

    passes = []
    for _ in range(n_passes):
        run.setup, run.aside, run.counts, run.verdicts = Clock(), Clock(), Counter(), []
        tracer.spans = []
        w0, c0 = time.perf_counter(), time.process_time()
        with tracer.span("bench.pass"):
            workload.main(run, workload.setup(run), inputs)
        elapsed = time.perf_counter() - w0
        record = {
            "wall_s": elapsed - run.aside.wall,
            # a budget-capped search gets whatever CPU the host grants inside
            # its wall budget, so it counts at its wall time
            "cpu_s": time.process_time() - c0 - run.aside.cpu
            - run.counts["capped_cpu_s"] + run.counts["capped_wall_s"],
            "setup_s": run.setup.wall,
            "counts": dict(run.counts),
            "verdicts": run.verdicts,
        }
        if args.trace:
            record["layers"] = layer_report(tracer, run.counts)
        passes.append(record)
        setup_samples.append(run.setup.wall)
        gc.collect()

    run.mark_peak_rss()
    extra = cli_check(run, workload, args.seed)
    if args.trace:
        extra["zerosum.tables_mb"] = tables_memory_mb(run)

    print(json.dumps({
        "workload": workload.name,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "setup_samples_s": setup_samples,
        "peak_rss_mb": run.peak_rss_mb,
        "passes": passes,
        "extra": extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
