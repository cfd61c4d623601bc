#!/usr/bin/env python3
"""Diff two benchmark records and fail on regression.

Modes::

    # Gate: exit 1 if `current` regressed >15% vs `baseline`
    python scripts/compare_bench.py BENCH_kernel.baseline.json BENCH_kernel.json

    # Schema and work check only (CI smoke): exit 2 on malformed or
    # zero-work records
    python scripts/compare_bench.py --check BENCH_kernel.json BENCH_fig5.json

    # Engine-equivalence: exit 1 unless both records report identical
    # simulation results (events + metrics; wall clock may differ)
    python scripts/compare_bench.py --assert-equal \\
        BENCH_fig5_1k.json BENCH_fig5_1k_columnar.json

A regression is a drop in ``events_per_s`` or a rise in
``wall_clock_s`` beyond ``--threshold`` (default 0.15).  Records must
share ``name`` and ``parameters`` — timings from different workloads
are not comparable and are rejected.  Differing machine fingerprints
are reported as a warning (the comparison still runs; judge it
accordingly).

Every mode first rejects, as invalid input, a record that does not show
the work it claims: no kernel events, a non-finite metric (a NaN mean
latency or failure rate is what a run with no completed lookups
reports), or a zero ``lookups`` count.

Exit codes: 0 ok, 1 regression, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# perf_common owns the schema; import it from the suite directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))
import perf_common  # noqa: E402


def zero_work_problems(record: dict) -> list[str]:
    """Why ``record`` fails to show that its run did any work (empty
    when it does): no events, a non-finite metric, or zero lookups."""
    problems = []
    if record["events"] <= 0:
        problems.append("no kernel events")
    for key, value in sorted(record.get("metrics", {}).items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if not math.isfinite(value):
            problems.append(f"metrics[{key}] is {value}")
        elif value <= 0 and (
            key == "lookups" or key.endswith((".lookups", "_lookups"))
        ):
            problems.append(f"metrics[{key}] is {value}: no lookups measured")
    return problems


def load_record(path: str) -> dict:
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot read record: {exc}") from exc
    try:
        perf_common.validate_record(record)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    problems = zero_work_problems(record)
    if problems:
        raise ValueError(f"{path}: record shows no work: {'; '.join(problems)}")
    return record


def compare(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Return a list of regression messages (empty = pass)."""
    if baseline["name"] != current["name"]:
        raise ValueError(
            f"records are different benchmarks: "
            f"{baseline['name']!r} vs {current['name']!r}"
        )
    if baseline["parameters"] != current["parameters"]:
        raise ValueError(
            f"records of {baseline['name']!r} ran with different parameters: "
            f"{baseline['parameters']} vs {current['parameters']}"
        )
    if baseline["machine"] != current["machine"]:
        print(
            "warning: machine fingerprints differ; timings may not be comparable",
            file=sys.stderr,
        )
    regressions = []
    base_eps, cur_eps = baseline["events_per_s"], current["events_per_s"]
    if base_eps > 0 and cur_eps < base_eps * (1.0 - threshold):
        regressions.append(
            f"events_per_s: {cur_eps:,.0f} vs baseline {base_eps:,.0f} "
            f"({cur_eps / base_eps - 1.0:+.1%}, limit -{threshold:.0%})"
        )
    base_wall, cur_wall = baseline["wall_clock_s"], current["wall_clock_s"]
    if cur_wall > base_wall * (1.0 + threshold):
        regressions.append(
            f"wall_clock_s: {cur_wall:.3f} vs baseline {base_wall:.3f} "
            f"({cur_wall / base_wall - 1.0:+.1%}, limit +{threshold:.0%})"
        )
    return regressions


def assert_equal(a: dict, b: dict) -> list[str]:
    """Return mismatch messages unless the records carry identical
    simulation outcomes (bit-identical metrics and event counts).

    This is the engine-equivalence gate: the same workload run on two
    engines (e.g. the object node graph and the columnar flat-array
    engine) must agree on everything but wall clock."""
    if a["name"] != b["name"]:
        raise ValueError(
            f"records are different benchmarks: {a['name']!r} vs {b['name']!r}"
        )
    mismatches = []
    if a["events"] != b["events"]:
        mismatches.append(f"events: {a['events']:,} vs {b['events']:,}")
    if a["seed"] != b["seed"]:
        mismatches.append(f"seed: {a['seed']} vs {b['seed']}")
    for key in sorted(set(a["metrics"]) | set(b["metrics"])):
        left, right = a["metrics"].get(key), b["metrics"].get(key)
        if left != right:
            mismatches.append(f"metrics[{key}]: {left!r} vs {right!r}")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("records", nargs="+",
                        help="baseline.json current.json, or files for --check")
    parser.add_argument("--check", action="store_true",
                        help="only validate record schemas and that each "
                             "record shows work, no comparison")
    parser.add_argument("--assert-equal", action="store_true",
                        help="require the two records to report identical "
                             "simulation results (events and metrics); "
                             "wall clock and parameters may differ")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative regression (default 0.15)")
    args = parser.parse_args(argv)

    try:
        records = [load_record(path) for path in args.records]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.check:
        for path, record in zip(args.records, records):
            print(f"ok: {path} ({record['name']}, "
                  f"{record['events_per_s']:,.0f} events/s)")
        return 0

    if len(records) != 2:
        print("error: comparison mode needs exactly two records "
              "(baseline, current)", file=sys.stderr)
        return 2
    if args.assert_equal:
        try:
            mismatches = assert_equal(records[0], records[1])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        name = records[0]["name"]
        if mismatches:
            for message in mismatches:
                print(f"ENGINE MISMATCH [{name}] {message}")
            return 1
        print(f"ok: {name} records report identical simulation results "
              f"({records[0]['events']:,} events)")
        return 0
    try:
        regressions = compare(records[0], records[1], args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = records[0]["name"]
    if regressions:
        for message in regressions:
            print(f"REGRESSION [{name}] {message}")
        return 1
    print(f"ok: {name} within {args.threshold:.0%} of baseline "
          f"({records[1]['events_per_s']:,.0f} vs "
          f"{records[0]['events_per_s']:,.0f} events/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
