"""The benchmark's wrappers around the simulator's public entry points.

Two sets, both installed with :class:`spans.Patcher` and removed after
each workload iteration:

* :class:`Probe` is always on.  It times ``Simulator.run`` (the
  ``setup_s``/``run_s`` split) and keeps the objects a cell builds
  internally (networks, engines, lookup stats) so their counters can be
  read after the cell.  It makes a handful of calls per cell.
* :func:`install_layer_spans` is on only in the traced run.  It puts a
  span around each coarse entry point of every layer.  Hot leaf helpers
  (``section_index``, latency lookups, the columnar engine's inlined
  forwarding) are deliberately left alone: wrapping millions of calls
  would measure the wrappers.

No wrapper draws from an RNG or schedules an event, so a wrapped run
replays the unwrapped one exactly; the per-iteration fingerprint checks
that.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import repro.dht.fast as dht_fast
import repro.experiments.dht_ops as dht_ops
import repro.worm.scenarios as worm_scenarios
from repro.analysis.stats import LookupStats, OperationStats
from repro.chord.admission import NodeAdmission
from repro.chord.columnar import ColumnarEngine
from repro.chord.columnar_dht import ColumnarDhtEngine, ColumnarNodeAdapter
from repro.chord.rpc import RpcLayer
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.sealed import SealedPayload
from repro.dht.base import DhtNode
from repro.net.king import KingCoordinates
from repro.net.network import Network
from repro.overlay.snapshot import StaticOverlay, VermeStaticOverlay
from repro.sim import Simulator
from repro.workload.generator import LookupGenerator
from repro.workload.serving import ServingStats
from repro.worm.columnar import ColumnarWormSimulation
from repro.worm.harvest import ImpersonatorKnowledge, _SectionHarvester
from repro.worm.knowledge import RoutingKnowledge

import refclock
from spans import Patcher, SpanRecorder, spanned


@dataclass
class Cell:
    """Host clock marks and captured objects of one experiment cell."""

    name: str
    start: refclock.Mark
    first_run: Optional[refclock.Mark] = None
    #: (entry, exit) marks of each ``Simulator.run`` call
    runs: List[Tuple[refclock.Mark, refclock.Mark]] = field(default_factory=list)
    sims: List[Simulator] = field(default_factory=list)
    networks: List[Network] = field(default_factory=list)
    engines: List[ColumnarEngine] = field(default_factory=list)
    lookup_stats: List[LookupStats] = field(default_factory=list)

    def setup_span(self) -> Tuple[refclock.Mark, refclock.Mark]:
        """Cell start to the first ``Simulator.run`` call."""
        return self.start, self.first_run or self.start


_START_WORKLOAD_STATS = list(
    inspect.signature(ColumnarEngine.start_workload).parameters
).index("stats")


class Probe:
    """Always-on timing and capture; one :class:`Cell` per experiment cell.

    Cells are timed with marks on a :class:`refclock.Sampler`, which the
    caller starts before the first cell and stops after the last."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.cells: List[Cell] = []
        self.sampler = refclock.Sampler()
        self._recorder = recorder

    def begin(self, name: str) -> None:
        self.cells.append(Cell(name, self.sampler.mark()))
        if self._recorder is not None:
            self._recorder.cell = name

    def install(self, patch: Patcher) -> None:
        cells = self.cells
        mark = self.sampler.mark

        def timed_run(orig):
            def run(sim, *args, **kwargs):
                cell = cells[-1]
                t0 = mark()
                if cell.first_run is None:
                    cell.first_run = t0
                    cell.sims.append(sim)
                try:
                    return orig(sim, *args, **kwargs)
                finally:
                    cell.runs.append((t0, mark()))

            return run

        def keep(attr):
            def make(orig):
                def init(obj, *args, **kwargs):
                    orig(obj, *args, **kwargs)
                    getattr(cells[-1], attr).append(obj)

                return init

            return make

        def keep_stats(orig):
            def start_workload(engine, *args, **kwargs):
                stats = kwargs.get("stats")
                if stats is None:
                    stats = args[_START_WORKLOAD_STATS - 1]
                cells[-1].lookup_stats.append(stats)
                return orig(engine, *args, **kwargs)

            return start_workload

        patch.replace(Simulator, "run", timed_run)
        patch.replace(Network, "__init__", keep("networks"))
        patch.replace(ColumnarEngine, "__init__", keep("engines"))
        patch.replace(ColumnarEngine, "start_workload", keep_stats)


@dataclass
class LayerObservations:
    """Counts the traced run takes from wrapped calls' arguments and results."""

    admits_accepted: int = 0
    arrivals: int = 0
    spike_arrivals: int = 0
    window: Optional[tuple] = None
    harvesters: List[object] = field(default_factory=list)


def install_layer_spans(
    patch: Patcher, rec: SpanRecorder, obs: LayerObservations
) -> None:
    """Wrap the coarse public entry points of every layer."""

    def on(owner, attr, name, observe=None):
        patch.replace(owner, attr, spanned(rec, name, observe))

    # sim: the kernel loop.  Everything the columnar engines do per
    # event (networking, latency, routing, maintenance) runs inside it.
    on(Simulator, "run", "sim.run")

    # net: model construction and the generic send path.
    on(KingCoordinates, "__init__", "net.setup.king")
    # dht_ops binds gtitm_topology by name, so the wrapper goes there.
    on(dht_ops, "gtitm_topology", "net.setup.gtitm")
    on(Network, "send", "net.send")

    # chord: ring build, the DHT adapter's lookup bridge.
    on(ColumnarEngine, "build", "chord.build")
    on(ColumnarDhtEngine, "build_dht", "chord.build_dht")
    on(ColumnarNodeAdapter, "lookup", "chord.dht_lookup")

    # rpc: calls and expired timers.
    on(RpcLayer, "call", "rpc.call")
    on(RpcLayer, "_on_timeout", "rpc.timeout")

    # admission: one admit per lookup forward at a capacity-limited node.
    def admitted(args, kwargs, result):
        if not isinstance(result, str):
            obs.admits_accepted += 1

    on(NodeAdmission, "admit", "admission.admit", admitted)

    # workload: arrivals of the generator-driven workloads and the
    # recording of every client outcome.
    def generator_built(args, kwargs, result):
        obs.window = args[0].overload_window

    def arrival(args, kwargs, result):
        obs.arrivals += 1
        now = args[2] if len(args) > 2 else kwargs["now"]
        if obs.window is not None and obs.window[0] <= now < obs.window[1]:
            obs.spike_arrivals += 1

    on(LookupGenerator, "__init__", "workload.generator", generator_built)
    on(LookupGenerator, "next_delay", "workload.arrival", arrival)
    on(LookupStats, "record", "workload.record")
    on(ServingStats, "record", "workload.record")
    on(OperationStats, "record", "workload.record")

    # dht: client operations as issued.
    on(DhtNode, "put", "dht.put")
    on(DhtNode, "get", "dht.get")

    # crypto: certificate checks and sealed payloads.
    on(CertificateAuthority, "issue", "crypto.issue")
    on(CertificateAuthority, "verify", "crypto.verify")
    on(dht_fast, "seal", "crypto.seal")
    on(SealedPayload, "open", "crypto.open")

    # overlay: static snapshots and routing-target computation.  The
    # knowledge builders are bound by name in the scenarios module.
    on(StaticOverlay, "from_ids", "overlay.from_ids")
    on(VermeStaticOverlay, "from_ids", "overlay.from_ids")
    on(worm_scenarios, "chord_knowledge", "overlay.knowledge")
    on(worm_scenarios, "verme_knowledge", "overlay.knowledge")
    on(StaticOverlay, "routing_target_indices", "overlay.route")
    on(StaticOverlay, "routing_target_indices_many", "overlay.route")

    # worm: the propagation run, its knowledge extraction and the
    # impersonator's harvesting lookups.
    def harvester_started(args, kwargs, result):
        obs.harvesters.append(args[0])

    on(ColumnarWormSimulation, "run", "worm.run")
    on(_SectionHarvester, "start", "worm.harvest_start", harvester_started)
    on(RoutingKnowledge, "targets_of_many", "worm.targets")
    on(ImpersonatorKnowledge, "targets_of", "worm.targets")
