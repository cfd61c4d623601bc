"""Per-layer metrics of the traced run, and the ledger files it writes.

The per-layer table splits each iteration by the layers named after
the simulator's modules.  Busy time is host time inside a layer's
outermost spans; self time is busy time minus the time covered by
spans of other entry points called from inside.  The columnar engines
inline networking, latency, routing and maintenance into the kernel
loop, so on ``lookup_churn`` and ``flash_crowd`` that work lands in
``sim.self_s``; only the counts (messages, bytes, lookups, hops) split
it from outside.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from typing import Dict, List, Sequence, Tuple

from checks import checked_percentile
from spans import Span, layer_of, outermost_totals, self_times

LAYERS = (
    "sim", "net", "chord", "rpc", "admission",
    "workload", "dht", "crypto", "overlay", "worm",
)

#: Span names that report under one metric group.
GROUPS = {
    "net.setup.king": "net.setup",
    "net.setup.gtitm": "net.setup",
    "chord.build_dht": "chord.build",
    "overlay.from_ids": "overlay.build",
    "overlay.knowledge": "overlay.build",
    "dht.put": "dht.issue",
    "dht.get": "dht.issue",
}

NET_CATEGORIES = ("maintenance", "lookup", "data", "replication")
DROP_CAUSES = ("dead-destination",)
WORM_T50 = ("chord", "verme-fast")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: List[Tuple[str, str]] = (
    [("sim.events", "count"), ("sim.run_s", "s")]
    + [("net.setup_s", "s"), ("net.send_calls", "count"), ("net.send_s", "s")]
    + [(f"net.msgs.{c}", "count") for c in NET_CATEGORIES]
    + [(f"net.bytes.{c}", "B") for c in NET_CATEGORIES]
    + [(f"net.drops.{c}", "count") for c in DROP_CAUSES]
    + [
        ("chord.build_s", "s"), ("chord.lookups", "count"),
        ("chord.lookup_fail", "count"), ("chord.hops_mean", "hops"),
        ("chord.joins", "count"), ("chord.deaths", "count"),
        ("chord.failed_joins", "count"), ("chord.dht_lookup_calls", "count"),
        ("chord.dht_lookup_s", "s"),
        ("rpc.calls", "count"), ("rpc.call_s", "s"), ("rpc.timeouts", "count"),
        ("rpc.timeout_ratio", "ratio"),
        ("admission.admits", "count"), ("admission.admit_s", "s"),
        ("admission.shed_rate", "count"), ("admission.shed_queue", "count"),
        ("admission.accept_ratio", "ratio"),
        ("workload.arrivals", "count"), ("workload.spike_arrivals", "count"),
        ("workload.record_s", "s"),
        ("dht.puts", "count"), ("dht.gets", "count"),
        ("dht.put_fail", "count"), ("dht.get_fail", "count"),
        ("dht.put_p50_s", "s"), ("dht.put_p99_s", "s"),
        ("dht.get_p50_s", "s"), ("dht.get_p99_s", "s"),
        ("dht.put_bytes_mean", "B"), ("dht.get_bytes_mean", "B"),
        ("dht.issue_s", "s"),
        ("crypto.verifies", "count"), ("crypto.seals", "count"),
        ("crypto.opens", "count"), ("crypto.s", "s"),
        ("overlay.build_s", "s"), ("overlay.route_calls", "count"),
        ("overlay.route_s", "s"),
        ("worm.run_s", "s"), ("worm.targets_s", "s"),
        ("worm.harvest_lookups", "count"), ("worm.infected", "count"),
        ("worm.vulnerable", "count"),
    ]
    + [(f"worm.t50_s.{s}", "s") for s in WORM_T50]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s"), ("trace.spans", "count")]
)

#: Per-layer time metrics: metric name -> span group it sums.
_BUSY = {
    "sim.run_s": "sim.run",
    "net.setup_s": "net.setup",
    "net.send_s": "net.send",
    "chord.build_s": "chord.build",
    "chord.dht_lookup_s": "chord.dht_lookup",
    "rpc.call_s": "rpc.call",
    "admission.admit_s": "admission.admit",
    "workload.record_s": "workload.record",
    "dht.issue_s": "dht.issue",
    "overlay.build_s": "overlay.build",
    "overlay.route_s": "overlay.route",
    "worm.run_s": "worm.run",
    "worm.targets_s": "worm.targets",
}

#: Per-layer call counts: metric name -> span name.
_CALLS = {
    "net.send_calls": "net.send",
    "chord.dht_lookup_calls": "chord.dht_lookup",
    "rpc.calls": "rpc.call",
    "rpc.timeouts": "rpc.timeout",
    "admission.admits": "admission.admit",
    "crypto.verifies": "crypto.verify",
    "crypto.seals": "crypto.seal",
    "crypto.opens": "crypto.open",
    "overlay.route_calls": "overlay.route",
}


def _group(name: str) -> str:
    return GROUPS.get(name, name)


def layer_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Busy and self host time per layer."""
    busy = outermost_totals(spans, layer_of)
    own: Dict[str, float] = {}
    for span, t in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        own[layer] = own.get(layer, 0.0) + t
    return {
        layer: {"busy_s": busy.get(layer, 0.0), "self_s": own.get(layer, 0.0)}
        for layer in LAYERS
    }


def _p(values: Sequence[float], pct: float) -> float:
    return checked_percentile(values, pct) if values else 0.0


def traced_metrics(out, spans: Sequence[Span], calls, obs) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration, except the
    tracing overhead, which needs the untraced iterations too."""
    m: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    busy = outermost_totals(spans, _group)
    for metric, group in _BUSY.items():
        m[metric] = busy.get(group, 0.0)
    for metric, name in _CALLS.items():
        m[metric] = calls.get(name, 0)
    for layer, t in layer_times(spans).items():
        m[f"{layer}.self_s"] = t["self_s"]
    m["crypto.s"] = outermost_totals(spans, layer_of).get("crypto", 0.0)
    for key, value in out.counts.items():
        if key in m:
            m[key] = value
    m["sim.events"] = out.events
    if m["rpc.calls"]:
        m["rpc.timeout_ratio"] = m["rpc.timeouts"] / m["rpc.calls"]
    if m["admission.admits"]:
        m["admission.accept_ratio"] = obs.admits_accepted / m["admission.admits"]
    m["workload.arrivals"] = obs.arrivals
    m["workload.spike_arrivals"] = obs.spike_arrivals
    m["worm.harvest_lookups"] = sum(h.harvest_events for h in obs.harvesters)
    for scenario in WORM_T50:
        m[f"worm.t50_s.{scenario}"] = out.sim.get(f"sim_{scenario}_t50_s", 0.0)
    for op, data in out.dht_ops.items():
        m[f"dht.{op}_p50_s"] = _p(data["lat"], 50.0)
        m[f"dht.{op}_p99_s"] = _p(data["lat"], 99.0)
        sizes = data["bytes"]
        m[f"dht.{op}_bytes_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    m["trace.spans"] = len(spans)
    return m


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def machine() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def ledger(workload: str, seed: int, metrics: Dict[str, float], spans,
           untraced_run_s: float, traced_run_s: float) -> dict:
    """The per-workload ledger: per-layer counts, busy and self time,
    ratios with their bases, tracing overhead and the machine."""
    times = layer_times(spans)
    return {
        "workload": workload,
        "seed": seed,
        "machine": machine(),
        "layers": times,
        "ratios": {
            "rpc.timeout_ratio": {
                "value": metrics["rpc.timeout_ratio"],
                "base": {"rpc.calls": metrics["rpc.calls"]},
            },
            "admission.accept_ratio": {
                "value": metrics["admission.accept_ratio"],
                "base": {"admission.admits": metrics["admission.admits"]},
            },
        },
        "overhead": {
            "untraced_run_s": untraced_run_s,
            "traced_run_s": traced_run_s,
            "overhead_s": metrics["trace.overhead_s"],
        },
        "metrics": metrics,
        "note": (
            "layers: the first traced iteration (the one in the Chrome "
            "trace); metrics: medians over the traced iterations.  The "
            "columnar engines inline networking, latency, routing and "
            "maintenance into Simulator.run, so from outside that time is "
            "sim.self_s; only the counts split it."
        ),
    }


def format_ledger(led: dict) -> str:
    m = led["machine"]
    lines = [f"per-layer ledger: {led['workload']} seed {led['seed']} on "
             f"{m['platform']}, {m['implementation']} {m['python']}, "
             f"{m['cpu_count']} CPUs",
             f"  {'layer':<10} {'busy_s':>10} {'self_s':>10}"]
    for layer, t in led["layers"].items():
        lines.append(f"  {layer:<10} {t['busy_s']:>10.4f} {t['self_s']:>10.4f}")
    for name, r in led["ratios"].items():
        base = ", ".join(f"{k}={v:g}" for k, v in r["base"].items())
        lines.append(f"  {name} = {r['value']:.4f} (base {base})")
    o = led["overhead"]
    lines.append(
        f"  tracing overhead: {o['overhead_s']:+.4f} s "
        f"(traced run_s {o['traced_run_s']:.4f}, untraced {o['untraced_run_s']:.4f})"
    )
    lines.append("  " + led["note"])
    return "\n".join(lines)


def write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh)
