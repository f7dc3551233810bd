"""Benchmark entry point: verified rebalances of one workload, timed end to end.

Run from the root of a checkout:

    python3 benchmark/run.py --workload removal_grid --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's own `src/`; without it the
benchmark exits with code 2 and prints no result. One process runs one
workload as a closed loop: whole passes over the workload's cases, one run at
a time, until --seconds have passed. With --trace 0 it reports the end-to-end
metrics of untraced passes, times scaled to a reference CPU speed (see
harness.SpeedProbe and README.md); with --trace 1 it reports the per-layer
metrics of traced passes followed by one untraced pass, which gives the
tracing overhead.

Standard output ends with two JSON lines: a record of the environment and the
run (seed, commit, pass digests, failed_frac, failures), then the result
object {"correct", "attempted", "failed", "metrics"}. The record, and the
spans of a traced run, are also written under benchmark/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# fresh processes timed from spawn to the first timed run; setup_s is the median of their scaled times
SETUP_PROBES = 7


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Benchmark verified rebalances of one workload.")
    p.add_argument("--workload", required=True, help="removal_grid, removal_large or addition_large")
    p.add_argument("--seed", type=int, required=True, help="workload seed: removed nodes and content seeds")
    p.add_argument("--seconds", type=float, required=True, help="minimum measured time; whole passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny-K cases, for the benchmark's own tests")
    # spawn time on the parent's monotonic clock; the probe prints its setup time and exits
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_times(args: argparse.Namespace) -> list[tuple[float, float]]:
    """For each fresh process: seconds from spawn until the package is imported and
    the inputs are built, and the median speed sample taken right after."""
    probes = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", repr(time.monotonic())]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        elapsed, took = map(float, out.stdout.split())
        probes.append((elapsed, took))
    return probes


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own, as in an exported tree
    return lines[1]


def environment(args: argparse.Namespace) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "rebalance").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": nproc,
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rebalance" / "__init__.py").is_file():
        print(f"benchmark: no rebalance package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports rebalance from SRC
    import rebalance

    if Path(rebalance.__file__).resolve().parent != SRC / "rebalance":
        print(f"benchmark: rebalance imported from {rebalance.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    cases = harness.make_cases(args.workload, args.seed, args.smoke)
    if args.setup_probe is not None:
        elapsed = time.monotonic() - args.setup_probe
        print(elapsed, statistics.median(harness.speed_sample() for _ in range(5)))
        return 0

    setup = [] if args.trace else setup_times(args)
    seeds = harness.content_seeds(args.seed)
    tracer = None
    speed = {}
    if args.trace:
        tracer = harness.Tracer()
        traced = harness.run_passes(cases, seeds, args.seconds, tracer)
        untraced = harness.run_pass(cases, seeds)
        passes = traced + [untraced]
        metrics = harness.layer_metrics(tracer, len(traced))
        metrics["trace.traced_runs_per_s"] = statistics.median(p.runs_per_s for p in traced)
        metrics["trace.untraced_runs_per_s"] = untraced.runs_per_s
        problems = harness.span_problems(tracer.spans)
    else:
        with harness.SpeedProbe() as probe:
            passes = harness.run_passes(cases, seeds, args.seconds, probe=probe)
        metrics, as_measured = harness.end_to_end(passes, probe)
        metrics["peak_rss_mb"] = harness.maxrss_mb()
        metrics["setup_s"] = statistics.median(t * harness.REFERENCE_S / took for t, took in setup)
        speed = {"samples": len(probe.took), "median_s": statistics.median(probe.took),
                 "as_measured": as_measured}
        problems = []

    gate = harness.gate_summary(passes)
    record = {
        "environment": environment(args),
        "cases_per_pass": len(cases),
        "passes": len(passes),
        **gate,
        "setup_probes": [{"s": t, "speed_sample_s": took} for t, took in setup],
        "speed_probe": speed,
        "span_problems": problems[:20],
    }
    correct = gate["failed"] == 0 and len(gate["pass_digests"]) == 1 and not problems
    result = {
        "correct": correct,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as f:
        spans = [[s.run_id, s.name, s.start, s.end, s.parent] for s in tracer.spans] if tracer else []
        json.dump({"record": record, "result": result, "spans": spans}, f)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
