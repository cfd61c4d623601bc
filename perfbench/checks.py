"""End-to-end metrics of one iteration, and the checks its outputs must pass."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Sequence

from repro.analysis.stats import percentile

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 therefore needs 1,000 samples).
MIN_BEYOND = 10

#: Workloads whose client operations carry a simulated latency.
LATENCY_WORKLOADS = ("lookup_churn", "flash_crowd", "verdi_put_get")


def checked_percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (the experiments' own rule),
    refused unless ``MIN_BEYOND`` samples lie beyond it."""
    if len(values) * (100.0 - pct) / 100.0 < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    return percentile(sorted(values), pct)


def op_fail_ratio(attempted: int, succeeded: int) -> float:
    """Failed over attempted client ops; every op that did not succeed
    (shed, timed out, routed to a dead node) counts as failed."""
    if attempted <= 0:
        raise ValueError("no client operations attempted")
    return (attempted - succeeded) / attempted


def sim_metrics(out) -> Dict[str, float]:
    """The simulated end-to-end metrics of one iteration."""
    metrics: Dict[str, float] = {}
    if out.workload in LATENCY_WORKLOADS:
        metrics["op_fail_ratio"] = op_fail_ratio(out.attempted, out.succeeded)
        metrics["sim_latency_p50_s"] = checked_percentile(out.latencies, 50.0)
        metrics["sim_latency_p99_s"] = checked_percentile(out.latencies, 99.0)
    metrics.update(out.sim)
    return metrics


def check_outcome(out) -> List[str]:
    """Every reason the iteration's outputs cannot be trusted."""
    problems = list(out.problems)
    if out.events <= 0:
        problems.append("no simulated events")
    if out.workload in LATENCY_WORKLOADS:
        if out.attempted <= 0:
            problems.append("no client operations attempted")
        if out.succeeded < 1000:
            problems.append(
                f"{out.succeeded} successes; p99 needs at least 1000"
            )
        if len(out.latencies) != out.succeeded:
            problems.append("latency count differs from successes")
        bad = [x for x in out.latencies if not math.isfinite(x) or x < 0]
        if bad:
            problems.append(f"{len(bad)} non-finite or negative latencies")
    if not problems:
        # The metrics are defined only once the counts above are sane.
        for name, value in sim_metrics(out).items():
            if not math.isfinite(value):
                problems.append(f"{name} is {value}")
    return problems


def fingerprint(out) -> str:
    """Digest of everything simulated: logical events, every ``sim_*``
    metric and the per-layer counts.  Host times are left out.  Equal
    digests across iterations, and across traced and untraced
    iterations, show that the run is deterministic and that the
    wrappers did not perturb it."""
    body = {
        "events": out.events,
        "attempted": out.attempted,
        "succeeded": out.succeeded,
        "latencies": [x.hex() for x in out.latencies],
        "sim": {k: float(v).hex() for k, v in sorted(out.sim.items())},
        "counts": {k: float(v).hex() for k, v in sorted(out.counts.items())},
    }
    blob = json.dumps(body, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
