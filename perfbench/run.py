"""Exact-search benchmark for the davenport package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-units --seed 1 --seconds 30 --trace 0

Each run starts ``perfbench/worker.py`` in a fresh interpreter with the
checkout's ``src`` on PYTHONPATH; nothing is installed. ``--trace 0``
prints the end-to-end metrics. ``--trace 1`` runs the workload twice, once
untraced and once traced (half of ``--seconds`` each), and prints the
per-layer metrics plus the tracing overhead, the traced minus the untraced
median pass wall time. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and, for a traced run, the full per-layer report,
which is also written to ``.perfbench_out/``.

Exit codes: 0 measured (``correct`` tells whether the gate passed), 1 a
worker crashed or ran out of time, 2 usage error or no package source in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("search-units", "search-ideal", "universe-256", "stress-reduce")
RUN_LIMIT_S = 170  # a run must end well inside 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics of the final line: only those every workload defines.
# The written report also carries the workload-specific ones (search time,
# nodes/s, witness re-check, budget overshoot, Monte-Carlo rate, report
# time, reduction rate and percentiles, per-layer self time).
PER_LAYER = {
    "parsing.parse_ms": "ms",
    "gfpoly.factor_ms": "ms",
    "semigroup.build_ms": "ms",
    "semigroup.units_ms": "ms",
    "zerosum.tables_ms": "ms",
    "zerosum.tables_mb": "MB",
    "zerosum.self_ms": "ms",
    "zerosum.search_nodes": "count",
    "zerosum.exact_solved": "count",
    "zerosum.mc_checked": "count",
    "verify.reductions": "count",
    "cli.import_ms": "ms",
    "cli.verb_ms": "ms",
    "trace.overhead_ms": "ms",
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # own session, so a timeout also ends the CLI subprocess a worker may run
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"error: {workload} worker exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0:
        sys.stderr.write(err)
        sys.exit(f"error: {workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(result) -> dict:
    passes = result["passes"]
    values = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "wall_s": median_of(passes, "wall_s"),
        "cpu_s": median_of(passes, "cpu_s"),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def merged_report(plain, traced) -> dict:
    """Median over traced passes of each per-layer metric, plus the CLI
    timings, the table-memory probe and the tracing overhead."""
    report = {}
    for name in traced["passes"][0]["layers"]:
        entries = [p["layers"][name] for p in traced["passes"]]
        values = [e["value"] for e in entries if e["value"] is not None]
        merged = dict(entries[0])
        merged["value"] = statistics.median(values) if values else None
        report[name] = merged
    for name, value in traced["extra"].items():
        report[name] = {"value": value, "unit": PER_LAYER[name]}
    overhead = median_of(traced["passes"], "wall_s") - median_of(plain["passes"], "wall_s")
    report["trace.overhead_ms"] = {
        "value": overhead * 1000.0, "unit": "ms",
        "note": "median traced pass wall minus median untraced pass wall, "
                "each in its own fresh interpreter; noise can make it negative",
    }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Exact-search benchmark for davenport.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "davenport" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'davenport'}; "
              "run from the root of a davenport checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = {"start": environment()}
    if args.trace:
        half = args.seconds / 2
        plain = run_worker(args.workload, args.seed, half, 0, deadline)
        traced = run_worker(args.workload, args.seed, half, 1, deadline)
        results = [plain, traced]
        report = merged_report(plain, traced)
        metrics = {k: {"value": report[k]["value"], "unit": u} for k, u in PER_LAYER.items()}
    else:
        results = [run_worker(args.workload, args.seed, args.seconds, 0, deadline)]
        report = None
        metrics = end_to_end(results[0])
    env["end"] = environment()

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "env": env, "failures": failures, "layers": report, "workers": results},
        indent=1,
    ))

    print(json.dumps({"env": env}))
    for line in results[-1]["passes"][-1]["verdicts"]:
        print(f"VERDICT {line}")
    for msg in failures:
        print(f"FAILED {msg}")
    if report is not None:
        for name, entry in report.items():
            value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
            note = f"  ({entry['note']})" if entry.get("note") else ""
            print(f"{name:32s} {value:>14s} {entry['unit']}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
