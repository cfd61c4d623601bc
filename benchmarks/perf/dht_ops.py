"""DHT-operation benchmark over the VerDi variants (``BENCH_dht_ops.json``).

Runs one put/get workload cell per VerDi variant — Fast, Secure and
Compromise — on the GT-ITM transit-stub topology (scalar host models,
so node count is memory-bounded only by the overlay itself).  This is
the perf companion to Figures 6/7: it exercises the DHT layers, the
bandwidth-delayed network path and the per-operation byte tagging that
the Fig. 5 lookup benchmark does not touch.

Per system, the record's metrics carry mean get/put latency, failures,
mean bytes per get and per put, and the bytes of background replica
maintenance (the ``replication`` category, which the per-op bytes
exclude).  ``--engine`` overrides the default object engine; both
engines produce bit-identical metrics and event counts (asserted in CI
via ``scripts/compare_bench.py --assert-equal``), so engine records
differ only in wall clock.

Usage::

    python benchmarks/perf/dht_ops.py              # default (~10 s)
    python benchmarks/perf/dht_ops.py --smoke      # CI scale
    python benchmarks/perf/dht_ops.py --nodes 1000 # bigger ring
    python benchmarks/perf/dht_ops.py --smoke --engine columnar
"""

from __future__ import annotations

import argparse
import time

import perf_common  # noqa: E402  (sets sys.path for the repro import)

from repro.experiments.dht_ops import (  # noqa: E402
    DhtExperimentConfig,
    run_dht_cell_instrumented,
)
from repro.net.network import Network  # noqa: E402

SEED = 0
VERDI_SYSTEMS = ("fast-verdi", "secure-verdi", "compromise-verdi")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=400)
    parser.add_argument("--sections", type=int, default=32)
    parser.add_argument("--ops", type=int, default=40,
                        help="puts and gets per system (default 40 each)")
    parser.add_argument("--engine", choices=("object", "columnar"),
                        default="object",
                        help="live-protocol engine (metrics and event "
                             "counts are bit-identical either way)")
    parser.add_argument("--smoke", action="store_true",
                        help="120 nodes / 16 sections / 20 ops, for CI")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_dht_ops.json at repo root)")
    args = parser.parse_args(argv)
    nodes = 120 if args.smoke else args.nodes
    sections = 16 if args.smoke else args.sections
    ops = 20 if args.smoke else args.ops

    config = DhtExperimentConfig(
        num_nodes=nodes,
        num_sections=sections,
        num_puts=ops,
        num_gets=ops,
        seed=SEED,
        engine=args.engine,
    )
    total_events = 0
    metrics = {}
    networks = []
    start = time.perf_counter()
    with perf_common.capturing(Network, networks):
        for system in VERDI_SYSTEMS:
            result, events = run_dht_cell_instrumented(config, system)
            total_events += events
            get_lat = result.get_stats.latency_summary()
            put_lat = result.put_stats.latency_summary()
            metrics[f"{system}_get_mean_latency_s"] = get_lat.mean
            metrics[f"{system}_put_mean_latency_s"] = put_lat.mean
            metrics[f"{system}_failures"] = float(
                result.get_stats.failures + result.put_stats.failures
            )
            metrics[f"{system}_get_mean_bytes"] = result.get_stats.bytes_summary().mean
            metrics[f"{system}_put_mean_bytes"] = result.put_stats.bytes_summary().mean
            metrics[f"{system}_replication_bytes"] = float(
                networks[-1].accounting.category_bytes("replication")
            )
    wall = time.perf_counter() - start

    parameters = {
        "systems": list(VERDI_SYSTEMS),
        "num_nodes": nodes,
        "num_sections": sections,
        "num_puts": ops,
        "num_gets": ops,
    }
    if args.engine != "object":
        # An engine record must not gate against an object baseline
        # (compare_bench.py refuses records whose parameters differ).
        parameters["engine"] = args.engine
    record = perf_common.bench_record(
        name="dht_ops",
        wall_clock_s=wall,
        events=total_events,
        seed=SEED,
        parameters=parameters,
        metrics=metrics,
    )
    path = perf_common.write_record(record, args.out)
    print(f"dht_ops {nodes} nodes x {len(VERDI_SYSTEMS)} systems x "
          f"{2 * ops} ops: {wall:.2f}s wall, {total_events:,} events "
          f"({record['events_per_s']:,.0f}/s) -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
