"""The four benchmark workloads, each one batch of the paper's own cells.

Every workload calls the experiment entry points the committed records
use (``repro.experiments.*`` and ``repro.worm.run_scenario``); only the
seed and the sizes below come from the benchmark.  The live-protocol
workloads run the columnar engine, which replays the object engine's
cells bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.experiments import Fig5Config
from repro.experiments.dht_ops import DhtExperimentConfig, run_dht_cell_instrumented
from repro.experiments.fig5_lookup_latency import run_cell_instrumented
from repro.experiments.fig8_worm_propagation import DEFAULT_HORIZONS
from repro.experiments.overload import OverloadConfig, run_overload_cell
from repro.worm import WormScenarioConfig, run_scenario

from hooks import Probe

#: lookup_churn: one Fig. 5 Verme cell on King coordinates.
CHURN = dict(num_nodes=1000, num_sections=64, duration_s=300.0, warmup_s=60.0)
CHURN_LIFETIME_S = 1800.0
#: flash_crowd: the overload experiment's defaults (120 nodes, 600 s).
FLASH_POLICY = "shed"
#: verdi_put_get: enough puts and gets per variant that the three
#: variants together give each op type 1,000+ samples for its p99.
VERDI = dict(num_nodes=200, num_sections=16, num_puts=400, num_gets=400,
             op_interval_s=0.05)
VERDI_SYSTEMS = ("fast-verdi", "secure-verdi", "compromise-verdi")
#: worm_outbreak: Fig. 8 at the paper's population.
WORM = dict(num_nodes=100_000, num_sections=4096)
WORM_SCENARIOS = ("chord", "verme-fast")


@dataclass
class Outcome:
    """One iteration of one workload: host times, simulated results and
    the per-layer counts that can be read without any span wrappers."""

    workload: str
    seed: int
    cells: int = 0
    #: host times in reference seconds (:mod:`refclock`)
    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    #: the same host times in raw seconds, and the iteration's mean
    #: reference sample
    host_setup_s: float = 0.0
    host_run_s: float = 0.0
    host_wall_s: float = 0.0
    ref_s: float = 0.0
    events: int = 0
    #: simulated client operations (lookups or DHT ops); a shed or
    #: timed-out operation is attempted but not succeeded
    attempted: int = 0
    succeeded: int = 0
    #: simulated latency of every successful client operation
    latencies: List[float] = field(default_factory=list)
    #: workload-specific simulated metrics (``sim_*``)
    sim: Dict[str, float] = field(default_factory=dict)
    #: deterministic per-layer counts (network accounting, churn, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: failures of the workload-specific output checks
    problems: List[str] = field(default_factory=list)
    #: verdi_put_get: per op type, the latencies and bytes of successes
    dht_ops: Dict[str, Dict[str, list]] = field(default_factory=dict)


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _network_counts(out: Outcome, probe: Probe) -> None:
    for cell in probe.cells:
        for net in cell.networks:
            acct = net.accounting
            for cat, n in acct.messages_by_category.items():
                _add(out.counts, f"net.msgs.{cat}", n)
            for cat, n in acct.bytes_by_category.items():
                _add(out.counts, f"net.bytes.{cat}", n)
            for cause, n in net.drops_by_cause.items():
                _add(out.counts, f"net.drops.{cause}", n)
        for engine in cell.engines:
            _add(out.counts, "chord.joins", engine.joins)
            _add(out.counts, "chord.deaths", engine.deaths)
            _add(out.counts, "chord.failed_joins", engine.failed_joins)


def _lookup_counts(out: Outcome, probe: Probe) -> None:
    hops = []
    for cell in probe.cells:
        for stats in cell.lookup_stats:
            _add(out.counts, "chord.lookups", stats.total)
            _add(out.counts, "chord.lookup_fail", stats.failures)
            hops.extend(stats.hops)
            out.attempted += stats.total
            out.succeeded += stats.successes
            out.latencies.extend(stats.latencies_s)
    out.counts["chord.hops_mean"] = sum(hops) / len(hops) if hops else 0.0


def _maint_bytes_per_node_s(probe: Probe, nodes: int) -> float:
    maint = 0
    node_s = 0.0
    for cell in probe.cells:
        for net in cell.networks:
            maint += net.accounting.category_bytes("maintenance")
        node_s += nodes * max(sim.now for sim in cell.sims)
    return maint / node_s


def lookup_churn(seed: int, probe: Probe) -> Outcome:
    out = Outcome("lookup_churn", seed)
    config = Fig5Config(
        num_nodes=CHURN["num_nodes"],
        num_sections=CHURN["num_sections"],
        duration_s=CHURN["duration_s"],
        warmup_s=CHURN["warmup_s"],
        latency_model="king-coords",
        engine="columnar",
        seed=seed,
    )
    probe.begin("fig5.verme")
    row, events = run_cell_instrumented(config, "verme", CHURN_LIFETIME_S)
    out.events = events
    _lookup_counts(out, probe)
    _network_counts(out, probe)
    if row.lookups != out.attempted:
        out.problems.append(
            f"fig5 row counts {row.lookups} lookups, stats {out.attempted}"
        )
    out.sim["sim_maint_bytes_per_node_s"] = row.maintenance_bytes_per_node_s
    return out


def flash_crowd(seed: int, probe: Probe) -> Outcome:
    out = Outcome("flash_crowd", seed)
    config = OverloadConfig(engine="columnar", seed=seed)
    probe.begin(f"overload.{FLASH_POLICY}")
    row, events = run_overload_cell(config, FLASH_POLICY)
    out.events = events
    _lookup_counts(out, probe)
    _network_counts(out, probe)
    out.counts["admission.shed_rate"] = row.shed_rate
    out.counts["admission.shed_queue"] = row.shed_queue
    if (row.lookups, row.successes) != (out.attempted, out.succeeded):
        out.problems.append("overload row and lookup stats disagree")
    out.sim["sim_goodput_spike_per_s"] = row.goodput_overload_per_s
    return out


def verdi_put_get(seed: int, probe: Probe) -> Outcome:
    out = Outcome("verdi_put_get", seed)
    op_bytes: List[int] = []
    per_op = out.dht_ops = {op: {"lat": [], "bytes": []} for op in ("put", "get")}
    for system in VERDI_SYSTEMS:
        config = DhtExperimentConfig(engine="columnar", seed=seed, **VERDI)
        probe.begin(f"dht.{system}")
        result, events = run_dht_cell_instrumented(config, system)
        out.events += events
        for op, stats, issued in (
            ("put", result.put_stats, config.num_puts),
            ("get", result.get_stats, config.num_gets),
        ):
            done = stats.successes + stats.failures
            if done != issued:
                out.problems.append(
                    f"{system}: {issued} {op}s issued, {done} accounted"
                )
            out.attempted += done
            out.succeeded += stats.successes
            out.latencies.extend(stats.latencies_s)
            op_bytes.extend(stats.bytes_used)
            per_op[op]["lat"].extend(stats.latencies_s)
            per_op[op]["bytes"].extend(stats.bytes_used)
            _add(out.counts, f"dht.{op}s", done)
            _add(out.counts, f"dht.{op}_fail", stats.failures)
    _network_counts(out, probe)
    out.sim["sim_op_bytes"] = sum(op_bytes) / len(op_bytes) if op_bytes else 0.0
    out.sim["sim_maint_bytes_per_node_s"] = _maint_bytes_per_node_s(
        probe, VERDI["num_nodes"]
    )
    return out


def worm_outbreak(seed: int, probe: Probe) -> Outcome:
    out = Outcome("worm_outbreak", seed)
    config = WormScenarioConfig(seed=seed, **WORM)
    for scenario in WORM_SCENARIOS:
        probe.begin(f"worm.{scenario}")
        result = run_scenario(scenario, config, until=DEFAULT_HORIZONS[scenario])
        out.events += result.events
        infected = result.final_infected
        vulnerable = result.vulnerable_count
        # +1: the verme-fast seed is the impersonator, which is not
        # itself vulnerable.
        if not 1 <= infected <= vulnerable + 1:
            out.problems.append(
                f"{scenario}: {infected} infected of {vulnerable} vulnerable"
            )
        t50 = result.time_to_fraction(0.5)
        if t50 is None:
            out.problems.append(f"{scenario}: half the vulnerable never infected")
        _add(out.counts, "worm.infected", infected)
        _add(out.counts, "worm.vulnerable", vulnerable)
        out.sim[f"sim_{scenario}_infected"] = infected
        out.sim[f"sim_{scenario}_t50_s"] = t50 or 0.0
    return out


WORKLOADS: Dict[str, Callable[[int, Probe], Outcome]] = {
    "lookup_churn": lookup_churn,
    "flash_crowd": flash_crowd,
    "verdi_put_get": verdi_put_get,
    "worm_outbreak": worm_outbreak,
}


def run_iteration(name: str, seed: int, probe: Probe) -> Outcome:
    """Run one iteration with ``probe`` installed by the caller; the
    host clocks come from the probe's cells, each interval scaled by
    the reference samples taken while it ran."""
    clock = probe.sampler
    clock.start()
    try:
        start = clock.mark()
        out = WORKLOADS[name](seed, probe)
        end = clock.mark()
    finally:
        clock.stop()
    out.cells = len(probe.cells)
    out.host_wall_s = clock.host_s(start, end)
    out.wall_s = clock.scaled_s(start, end)
    out.ref_s = clock.ref_s(start, end)
    for cell in probe.cells:
        spans = [cell.setup_span()] + cell.runs
        out.host_setup_s += clock.host_s(*spans[0])
        out.setup_s += clock.scaled_s(*spans[0])
        out.host_run_s += sum(clock.host_s(a, b) for a, b in spans[1:])
        out.run_s += sum(clock.scaled_s(a, b) for a, b in spans[1:])
    return out
