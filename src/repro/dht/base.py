"""Shared machinery for the DHash and VerDi DHT layers.

A DHT layer object attaches to one overlay node: it owns the node's
block store, registers the data-plane RPC handlers (fetch/store/offer),
runs background replica maintenance, and exposes the client-side
``get``/``put`` operations.  Subclasses implement the paper's four
designs: DHash (baseline, §5.1), Fast-VerDi, Secure-VerDi and
Compromise-VerDi (§5.3).

Every client operation is tagged; the network's byte accounting
attributes each message carrying the tag to that operation, which is
how the Fig. 7 bandwidth numbers are produced (background replication
is deliberately untagged — the paper excludes it too).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..chord.lookup import LookupPurpose, LookupResult
from ..chord.node import ChordNode
from ..chord.rpc import MIN_RPC_BYTES, RpcContext
from ..chord.state import NodeInfo
from ..net.message import ID_BYTES
from ..obs import OBS
from ..sim import PeriodicTimer
from .blocks import BlockStore, block_key, verify_block
from .hotkey import HotKeyTracker, LoadEstimator, ReplicaCache


@dataclass(frozen=True)
class DhtConfig:
    """Knobs for the DHT layers.

    ``num_replicas`` is the paper's *n*: DHash places *n* replicas on
    the key's successors; VerDi splits them *n/2* + *n/2* across two
    opposite-type sections (§5.2).

    The serving-layer knobs are off by default (the paper's model):
    ``hot_cache`` turns on hot-key detection, replica-entry caching and
    value promotion (``hot_window_s`` / ``hot_threshold`` /
    ``cache_capacity`` / ``cache_ttl_s``); ``load_aware`` orders the
    replica list least-loaded-first on the read path
    (``load_ewma_alpha``).  See ``docs/serving.md``.
    """

    num_replicas: int = 6
    stabilize_interval_s: float = 60.0
    fetch_retries: int = 3
    hot_cache: bool = False
    hot_window_s: float = 10.0
    hot_threshold: int = 3
    cache_capacity: int = 128
    cache_ttl_s: float = 30.0
    load_aware: bool = False
    load_ewma_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("need at least one replica")
        if self.hot_window_s <= 0 or self.cache_ttl_s <= 0:
            raise ValueError("hot window and cache ttl must be positive")
        if self.hot_threshold < 1 or self.cache_capacity < 1:
            raise ValueError("hot threshold and cache capacity must be >= 1")
        if not 0.0 < self.load_ewma_alpha <= 1.0:
            raise ValueError("load ewma alpha must be in (0, 1]")

    @property
    def replicas_per_section(self) -> int:
        return max(1, self.num_replicas // 2)


@dataclass(slots=True)
class OpResult:
    """Outcome of one client get/put as seen by the caller."""

    ok: bool
    op: str
    key: int
    op_tag: int
    value: Optional[bytes] = None
    latency_s: float = 0.0
    error: Optional[str] = None


OpCallback = Callable[[OpResult], None]

_op_tags = itertools.count(1)


def next_op_tag() -> int:
    """Globally unique tag attributing messages to one DHT operation."""
    return next(_op_tags)


@dataclass(slots=True)
class _Op:
    op: str
    key: int
    op_tag: int
    on_done: OpCallback
    started_at: float
    value: Optional[bytes] = None
    targets: List[NodeInfo] = field(default_factory=list)
    attempts: int = 0
    #: targets came from the replica cache (hints): on exhaustion fall
    #: back to the full lookup path instead of failing the op.
    from_cache: bool = False


class DhtNode:
    """Base class: block store, data-plane handlers, maintenance."""

    #: category used for client-visible data traffic
    DATA_CATEGORY = "data"
    #: category for background replica maintenance (untagged)
    REPLICATION_CATEGORY = "replication"
    #: variants whose gets are piggybacked on the lookup (Secure /
    #: Compromise-VerDi) never see replica entries, so the entry-cache
    #: fast path and value promotion are structurally incompatible.
    ENTRY_CACHE_OK = True

    def __init__(self, node: ChordNode, config: DhtConfig) -> None:
        self.node = node
        self.config = config
        self.store = BlockStore(node.space)
        self.space = node.space
        self._maintenance = PeriodicTimer(
            node.sim,
            config.stabilize_interval_s,
            self._data_stabilize,
            jitter_rng=getattr(node, "_jitter_rng", None),
        )
        self.hot_tracker: Optional[HotKeyTracker] = None
        self.replica_cache: Optional[ReplicaCache] = None
        self.load: Optional[LoadEstimator] = None
        if config.hot_cache:
            self.hot_tracker = HotKeyTracker(
                config.hot_window_s, config.hot_threshold
            )
            self.replica_cache = ReplicaCache(
                config.cache_capacity, config.cache_ttl_s
            )
            # Failure-detector purges invalidate cached address hints.
            hooks = getattr(node, "_down_hooks", None)
            if hooks is not None:
                hooks.append(self._peer_down)
        if config.load_aware:
            self.load = LoadEstimator(config.load_ewma_alpha)
        node.rpc.register("dht_fetch", self._h_fetch)
        node.rpc.register("dht_store", self._h_store)
        node.rpc.register("dht_offer", self._h_offer)
        self._install_hooks()

    def _install_hooks(self) -> None:
        """Subclasses wire node-level hooks (lookup verification etc.)."""

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._maintenance.start()

    def stop(self) -> None:
        self._maintenance.stop()

    # -- public client API ------------------------------------------------------

    def put(self, value: bytes, on_done: OpCallback) -> int:
        """Store ``value``; the key (its content hash) is returned
        immediately and ``on_done`` fires when the operation completes."""
        key = block_key(self.space, value)
        op = _Op("put", key, next_op_tag(), on_done, self.node.sim.now, value=value)
        self._start_put(op)
        return key

    def get(self, key: int, on_done: OpCallback) -> int:
        """Retrieve the value stored under ``key``.

        With ``hot_cache`` on, hot keys take two fast paths before the
        overlay lookup: a locally promoted copy (content-addressed, so
        never stale) is returned immediately, and cached replica entries
        skip straight to the fetch phase (the hints may be stale — the
        fallback in :meth:`_fetch_from` restores correctness).
        """
        op = _Op("get", key, next_op_tag(), on_done, self.node.sim.now)
        tracker = self.hot_tracker
        if tracker is not None and self.ENTRY_CACHE_OK:
            now = self.node.sim.now
            tracker.note(key, now)
            value = self.store.get(key)
            if value is not None:
                metrics = OBS.metrics
                if metrics is not None:
                    metrics.counter("dht.cache.local_hit").inc()
                self._finish(op, True, value=value)
                return op.op_tag
            cached = self.replica_cache.get(key, now)
            if cached is not None:
                metrics = OBS.metrics
                if metrics is not None:
                    metrics.counter("dht.cache.entry_hit").inc()
                op.from_cache = True
                op.targets = self._order_targets(cached)
                self._fetch_from(op, self._fetch_params_extra())
                return op.op_tag
        self._start_get(op)
        return op.op_tag

    def _start_put(self, op: _Op) -> None:
        raise NotImplementedError

    def _start_get(self, op: _Op) -> None:
        raise NotImplementedError

    def _finish(self, op: _Op, ok: bool, value: Optional[bytes] = None,
                error: Optional[str] = None) -> None:
        latency = self.node.sim.now - op.started_at
        result = OpResult(
            ok=ok,
            op=op.op,
            key=op.key,
            op_tag=op.op_tag,
            value=value,
            latency_s=latency,
            error=error,
        )
        metrics = OBS.metrics
        if metrics is not None:
            metrics.counter(f"dht.{op.op}.{'ok' if ok else 'fail'}").inc()
            metrics.histogram(f"dht.{op.op}.latency_s").observe(latency)
        trace = OBS.trace
        if trace is not None:
            trace.complete(
                "dht." + op.op,
                op.started_at,
                latency,
                lane="dht",
                args={"tag": op.op_tag, "ok": ok, "error": error},
            )
        self.node.sim.call_after(0.0, op.on_done, result)

    # -- wire sizes ----------------------------------------------------------------

    def _data_timeout_s(self) -> float:
        """Timeout for data-plane RPCs: bulk transfers over slow access
        uplinks take far longer than control messages."""
        return self.node.config.lookup_timeout_s


    def _fetch_request_bytes(self) -> int:
        return MIN_RPC_BYTES + ID_BYTES

    def _store_request_bytes(self, value: bytes) -> int:
        return MIN_RPC_BYTES + ID_BYTES + len(value)

    def _value_reply_bytes(self, value: bytes) -> int:
        return MIN_RPC_BYTES + len(value)

    # -- data-plane handlers ----------------------------------------------------------

    def _authorize_fetch(self, params: dict) -> Optional[str]:
        """Reject a fetch (return an error string) or allow (None)."""
        return None

    def _package_value(self, value: bytes, params: dict) -> object:
        return value

    def _h_fetch(self, params: dict, ctx: RpcContext) -> None:
        err = self._authorize_fetch(params)
        if err is not None:
            ctx.fail(err)
            return
        value = self.store.get(params["key"])
        if value is None:
            ctx.respond({"found": False})
            return
        ctx.respond(
            {"found": True, "value": self._package_value(value, params)},
            size=self._value_reply_bytes(value),
        )

    def _h_store(self, params: dict, ctx: RpcContext) -> None:
        key, value = params["key"], params["value"]
        try:
            self.store.put(key, value)
        except ValueError as exc:
            ctx.fail(str(exc))
            return
        if params.get("replicate", True):
            self.node.sim.call_after(0.0, self._replicate_key, key)
        ctx.respond({})

    def _h_offer(self, params: dict, ctx: RpcContext) -> None:
        keys = params["keys"]
        want = self.store.missing(keys)
        ctx.respond({"want": want}, size=MIN_RPC_BYTES + len(want) * ID_BYTES)

    # -- replica maintenance -------------------------------------------------------------

    def _group_candidates(self) -> object:
        """This node's replica-group candidates, built from its routing
        state at call time.

        Everything a group depends on apart from the key is gathered
        here once, so a maintenance round pays for it once rather than
        once per stored key.  Routing tables change between rounds, so
        the result is used within one call and never kept."""
        raise NotImplementedError

    def _group_view(self, candidates: object, key: int) -> List[NodeInfo]:
        """This node's best local guess at the replica group of ``key``,
        selected from ``candidates`` (empty when the node cannot tell it
        is a member).  The returned list is read-only."""
        raise NotImplementedError

    def _replicate_key(self, key: int) -> None:
        """Push a freshly stored key to the rest of its replica group."""
        value = self.store.get(key)
        if value is None or not self.node.alive:
            return
        for info in self._group_view(self._group_candidates(), key):
            if info.node_id == self.node.node_id:
                continue
            self.node.rpc.call(
                info.address,
                "dht_store",
                {"key": key, "value": value, "replicate": False},
                timeout_s=self._data_timeout_s(),
                size=self._store_request_bytes(value),
                category=self.REPLICATION_CATEGORY,
            )

    def _data_stabilize(self) -> None:
        """Periodic sync: offer each held key to the group members the
        node currently believes should hold it; push what they lack."""
        if not self.node.alive:
            return
        candidates = self._group_candidates()
        group_view = self._group_view
        my_id = self.node.node_id
        by_target: Dict[NodeInfo, List[int]] = {}
        for key in self.store.keys():
            for info in group_view(candidates, key):
                if info.node_id != my_id:
                    by_target.setdefault(info, []).append(key)
        for info, keys in by_target.items():
            self.node.rpc.call(
                info.address,
                "dht_offer",
                {"keys": keys},
                on_reply=lambda res, i=info: self._push_wanted(i, res.get("want", [])),
                size=MIN_RPC_BYTES + len(keys) * ID_BYTES,
                category=self.REPLICATION_CATEGORY,
            )

    def _push_wanted(self, info: NodeInfo, keys: List[int]) -> None:
        if not self.node.alive:
            return
        for key in keys:
            value = self.store.get(key)
            if value is None:
                continue
            self.node.rpc.call(
                info.address,
                "dht_store",
                {"key": key, "value": value, "replicate": False},
                timeout_s=self._data_timeout_s(),
                size=self._store_request_bytes(value),
                category=self.REPLICATION_CATEGORY,
            )

    # -- client-side helpers ------------------------------------------------------------

    def _fetch_params_extra(self) -> Optional[dict]:
        """Extra dht_fetch params for cache-hit fetches (Fast-VerDi's
        certificate); None for the plain DHash request."""
        return None

    def _order_targets(self, targets: List[NodeInfo]) -> List[NodeInfo]:
        """Load-aware replica selection: least-loaded-first when on."""
        if self.load is None:
            return list(targets)
        return self.load.order(targets)

    def _peer_down(self, info: NodeInfo) -> None:
        """Failure-detector purge: dead addresses leave the cache."""
        self.replica_cache.invalidate_address(info.address)

    def _fetch_from(self, op: _Op, params_extra: Optional[dict] = None) -> None:
        """Try the next target in ``op.targets`` until one returns the
        value (verified against the key) or targets are exhausted.

        Cache-hint exhaustion is not a failure: the op falls back to the
        full lookup path (and the useless cache entry is dropped)."""
        if not op.targets:
            if op.from_cache:
                op.from_cache = False
                self.replica_cache.invalidate(op.key)
                metrics = OBS.metrics
                if metrics is not None:
                    metrics.counter("dht.cache.fallback").inc()
                self._start_get(op)
                return
            self._finish(op, False, error="no replica answered")
            return
        target = op.targets.pop(0)
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "dht.fetch-phase",
                self.node.sim.now,
                lane="dht",
                args={
                    "tag": op.op_tag,
                    "dst": target.address.host_slot,
                    "attempt": op.attempts,
                },
            )
        params = {"key": op.key}
        if params_extra:
            params.update(params_extra)
        load = self.load
        started = self.node.sim.now

        def _on_reply(res: dict) -> None:
            if load is not None:
                load.note_done(target.address, self.node.sim.now - started)
            self._fetch_reply(op, res, target, params_extra)

        def _on_error(err: str) -> None:
            if load is not None:
                load.note_done(
                    target.address, self.node.sim.now - started, failed=True
                )
            if op.from_cache:
                self.replica_cache.discard_address(op.key, target.address)
            self._fetch_from(op, params_extra)

        if load is not None:
            load.note_start(target.address)
        self.node.rpc.call(
            target.address,
            "dht_fetch",
            params,
            on_reply=_on_reply,
            on_error=_on_error,
            timeout_s=self._data_timeout_s(),
            size=self._fetch_request_bytes(),
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
        )

    def _unpackage_value(self, payload: object) -> bytes:
        return payload  # type: ignore[return-value]

    def _fetch_reply(
        self,
        op: _Op,
        res: dict,
        target: Optional[NodeInfo] = None,
        params_extra: Optional[dict] = None,
    ) -> None:
        if not res.get("found"):
            if op.from_cache:
                # A stale hint (replica no longer holds the key): drop
                # the address and keep the cert/params on the retry.
                if target is not None:
                    self.replica_cache.discard_address(op.key, target.address)
                self._fetch_from(op, params_extra)
                return
            self._fetch_from(op)
            return
        try:
            value = self._unpackage_value(res["value"])
            verify_block(self.space, op.key, value)
        except Exception as exc:
            if op.from_cache:
                if target is not None:
                    self.replica_cache.discard_address(op.key, target.address)
                self._fetch_from(op, params_extra)
                return
            self._finish(op, False, error=str(exc))
            return
        tracker = self.hot_tracker
        if (
            tracker is not None
            and self.ENTRY_CACHE_OK
            and op.op == "get"
            and tracker.is_hot(op.key, self.node.sim.now)
        ):
            self._promote(op.key, value)
        self._finish(op, True, value=value)

    def _promote(self, key: int, value: bytes) -> None:
        """Hot-key replica promotion: keep a verified local copy.

        The copy serves this node's future reads (and anyone's
        ``dht_fetch``) without touching the replica group.  Safe by
        construction: the value is content-addressed and was verified
        above, and a non-member never replicates it outward because
        ``_group_view`` returns [] for keys it does not own."""
        if self.store.get(key) is not None:
            return
        try:
            self.store.put(key, value)
        except ValueError:
            return
        metrics = OBS.metrics
        if metrics is not None:
            metrics.counter("dht.cache.promotions").inc()

    def _note_entries(self, key: int, entries: List[NodeInfo]) -> None:
        """Lookup finished for ``key``: cache its replica entries when
        the key is hot (subclasses call this from ``_get_entries``)."""
        tracker = self.hot_tracker
        if (
            tracker is not None
            and self.ENTRY_CACHE_OK
            and entries
            and tracker.is_hot(key, self.node.sim.now)
        ):
            self.replica_cache.put(key, entries, self.node.sim.now)

    def _lookup_then(
        self,
        op: _Op,
        key: int,
        on_entries: Callable[[_Op, LookupResult], None],
        request_meta: Optional[dict] = None,
        extra_request_bytes: int = 0,
    ) -> None:
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "dht.lookup-phase",
                self.node.sim.now,
                lane="dht",
                args={"tag": op.op_tag, "op": op.op},
            )
        self.node.lookup(
            key,
            on_done=lambda res: on_entries(op, res),
            purpose=LookupPurpose.DHT,
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
            request_meta=request_meta,
            extra_request_bytes=extra_request_bytes,
        )
