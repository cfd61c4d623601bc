"""Same-host benchmark of the Verme simulator.

Runs one workload (or all of them, each in its own process) for a fixed
host-time budget, checks every iteration's outputs, and prints each
end-to-end metric with its unit and sample count.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts experiment cells run and ``failed`` the cells of
iterations whose output checks failed.  With ``--trace 0`` the metrics
are the end-to-end metrics (medians over the iterations; host times in
reference seconds, see :mod:`refclock`, with the raw seconds printed
beside them); with ``--trace 1`` the run alternates untraced and traced
iterations and the metrics are the per-layer ones, and a Chrome trace
plus a ledger are written under ``perfbench/out/``.

Usage::

    python3 perfbench/run.py --workload flash_crowd --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

The process exits 1 when an output check fails and 2 when the
simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("lookup_churn", "flash_crowd", "verdi_put_get", "worm_outbreak")

#: End-to-end metrics every workload reports: name -> (unit, better).
HOST_METRICS = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}
#: Simulated end-to-end metrics, reported where the workload defines them.
SIM_METRICS = {
    "op_fail_ratio": ("ratio", "lower"),
    "sim_latency_p50_s": ("s", "lower"),
    "sim_latency_p99_s": ("s", "lower"),
    "sim_goodput_spike_per_s": ("1/s", "higher"),
    "sim_op_bytes": ("B", "lower"),
    "sim_maint_bytes_per_node_s": ("B/s", "lower"),
}

#: Seed offset of the held-out check in ``--workload all``.
HOLDOUT_OFFSET = 7919


@dataclass
class Iteration:
    outcome: object
    traced: bool
    recorder: object
    observations: object
    problems: List[str]
    fingerprint: str


def _run_iterations(workload: str, seed: int, seconds: float, trace: bool):
    """Run iterations until the next one would overrun ``seconds``.
    With ``trace`` they alternate untraced/traced, at least one each."""
    from checks import check_outcome, fingerprint
    from hooks import LayerObservations, Probe, install_layer_spans
    from spans import Patcher, SpanRecorder
    from workloads import run_iteration

    runs: List[Iteration] = []
    took: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(runs) % 2 == 1
        # Every iteration starts from a collected heap, so the garbage a
        # previous one left behind is not scanned inside the timing.
        gc.collect()
        rec = SpanRecorder()
        obs = LayerObservations()
        probe = Probe(rec)
        patch = Patcher()
        probe.install(patch)
        if traced:
            install_layer_spans(patch, rec, obs)
        try:
            out = run_iteration(workload, seed, probe)
        finally:
            patch.restore()
        problems, digest = check_outcome(out), fingerprint(out)
        if not traced and any(not r.traced for r in runs):
            # Only the first untraced iteration's simulated results are
            # reported.  Dropping the others' keeps peak RSS from growing
            # with the number of iterations that fit in the run.
            out.latencies, out.dht_ops = [], {}
        runs.append(Iteration(out, traced, rec, obs, problems, digest))
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        next_s = statistics.median(took)
        if trace and len(runs) % 2 == 1:
            continue
        if elapsed + next_s > seconds:
            return runs


def _row(name, value, unit, better, samples):
    return f"  {name:<28} {value:>16.6g} {unit:<6} {better:<7} n={samples}"


def run_one(args) -> int:
    from checks import sim_metrics
    from refclock import REF_NOMINAL_S

    runs = _run_iterations(args.workload, args.seed, args.seconds, bool(args.trace))
    untraced = [r.outcome for r in runs if not r.traced]
    attempted = sum(r.outcome.cells for r in runs)
    failed = sum(r.outcome.cells for r in runs if r.problems)
    problems = [p for r in runs for p in r.problems]
    prints = sorted({r.fingerprint for r in runs})
    if len(prints) != 1:
        problems.append(f"simulated outcome differs between iterations: {prints}")
        failed = attempted
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} iterations "
          f"({len(untraced)} untraced), fingerprint {prints[0]}")
    print("  run_s per iteration, reference/unscaled s: " + " ".join(
        f"{r.outcome.run_s:.3f}/{r.outcome.host_run_s:.3f}{'t' if r.traced else ''}"
        for r in runs))
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    metrics = {}
    if not problems and args.trace:
        metrics = _trace_report(args, runs)
    elif not problems:
        for name, value in _host_values(untraced).items():
            unit, better = HOST_METRICS[name]
            print(_row(name, value, unit, better, len(untraced)))
            metrics[name] = (value, unit)
        med = statistics.median
        print(f"  unscaled host seconds: setup {med(o.host_setup_s for o in untraced):.4f} "
              f"run {med(o.host_run_s for o in untraced):.4f} "
              f"wall {med(o.host_wall_s for o in untraced):.4f}; "
              f"reference sample {med(o.ref_s for o in untraced):.4f} s "
              f"(scaled to {REF_NOMINAL_S} s)")
        first = untraced[0]
        for name, value in sim_metrics(first).items():
            # worm_outbreak's per-scenario outcomes: one run each
            unit, better = SIM_METRICS.get(
                name, ("count" if name.endswith("_infected") else "s", "-"))
            samples = first.succeeded if "latency" in name else first.attempted
            print(_row(name, value, unit, better, samples or 1))
        if first.attempted:
            print(f"  ops: {first.attempted} attempted, {first.succeeded} "
                  f"succeeded, {first.attempted - first.succeeded} failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


def _host_values(outs):
    """Medians over the untraced iterations."""
    med = statistics.median
    return {
        "setup_s": med(o.setup_s for o in outs),
        "run_s": med(o.run_s for o in outs),
        "wall_s": med(o.wall_s for o in outs),
        "events_per_s": med(o.events / o.run_s for o in outs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _trace_report(args, runs: List[Iteration]):
    from ledger import (PER_LAYER, format_ledger, ledger, median_metrics,
                        traced_metrics, write_json)
    from spans import chrome_trace

    traced = [r for r in runs if r.traced]
    metrics = median_metrics([
        traced_metrics(r.outcome, r.recorder.spans(), r.recorder.calls,
                       r.observations)
        for r in traced
    ])
    traced_run_s = statistics.median(r.outcome.run_s for r in traced)
    untraced_run_s = statistics.median(r.outcome.run_s for r in runs if not r.traced)
    metrics["trace.overhead_s"] = traced_run_s - untraced_run_s
    spans = traced[0].recorder.spans()
    led = ledger(args.workload, args.seed, metrics, spans,
                 untraced_run_s, traced_run_s)
    stem = os.path.join(OUT_DIR, f"{args.workload}.s{args.seed}")
    write_json(stem + ".ledger.json", led)
    write_json(stem + ".trace.json", chrome_trace(spans))
    print(format_ledger(led))
    print(f"  wrote {stem}.ledger.json and {stem}.trace.json")
    for name, unit in PER_LAYER:
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    return {name: (metrics[name], unit) for name, unit in PER_LAYER}


def run_all(args) -> int:
    """Each workload in its own process, then a held-out seed."""
    status = 0
    plan = [(w, args.seed, args.seconds) for w in WORKLOAD_NAMES]
    plan += [(w, args.seed + HOLDOUT_OFFSET, 0) for w in WORKLOAD_NAMES]
    for workload, seed, seconds in plan:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"  {workload} seed {seed}: exit {proc.returncode}")
            status = 1
    print("all output checks passed" if status == 0 else "OUTPUT CHECKS FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host-time budget; at least one iteration runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
