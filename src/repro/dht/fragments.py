"""Erasure-coded fragments: the DHash optimization the paper skipped.

§5.1: "a more recent paper has proposed the use of erasure coded
fragments instead of full replicas of the data [Dabek et al., NSDI'04]
but we will not consider that optimization in this paper."  This module
supplies it as an extension, so the storage/bandwidth trade-off can be
measured against full replication.

The coding itself is simulated *structurally* (like the certificates):
an IDA-style (k, n) code where any ``required`` distinct fragments
reconstruct the value and each fragment's wire size is
``ceil(len/required) + header``.  Reassembly enforces the k-of-n rule;
the reconstructed value is then verified against its content-hash key
exactly as whole blocks are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..chord.lookup import LookupResult
from ..chord.rpc import MIN_RPC_BYTES, RpcContext
from ..chord.state import NodeInfo
from ..net.message import ID_BYTES
from .base import DhtConfig, _Op
from .blocks import verify_block
from .dhash import DHashNode

FRAGMENT_HEADER_BYTES = 16


@dataclass(frozen=True)
class FragmentConfig:
    """(k, n) code parameters; DHash's classic choice was 7-of-14."""

    total: int = 6
    required: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.required <= self.total:
            raise ValueError("need 1 <= required <= total")

    def fragment_bytes(self, value_len: int) -> int:
        return math.ceil(value_len / self.required) + FRAGMENT_HEADER_BYTES


@dataclass(frozen=True)
class Fragment:
    """One coded fragment of a block.

    Carries the whole value only as a simulation convenience; its
    *wire and storage size* is ``size`` and reconstruction refuses to
    work with fewer than ``config.required`` distinct indices.
    """

    key: int
    index: int
    total: int
    required: int
    size: int
    _value: bytes

    def __repr__(self) -> str:
        return f"Fragment(key={self.key:#x}, {self.index}/{self.total})"


class ReassemblyError(ValueError):
    """Too few distinct fragments to reconstruct the value."""


def fragment_value(key: int, value: bytes, config: FragmentConfig) -> List[Fragment]:
    size = config.fragment_bytes(len(value))
    return [
        Fragment(key, i, config.total, config.required, size, value)
        for i in range(config.total)
    ]


def reassemble(fragments: Sequence[Fragment]) -> bytes:
    if not fragments:
        raise ReassemblyError("no fragments")
    required = fragments[0].required
    key = fragments[0].key
    indices: Set[int] = set()
    for frag in fragments:
        if frag.key != key:
            raise ReassemblyError("fragments of different blocks")
        indices.add(frag.index)
    if len(indices) < required:
        raise ReassemblyError(
            f"have {len(indices)} distinct fragments, need {required}"
        )
    return fragments[0]._value


class FragmentedDHashNode(DHashNode):
    """DHash storing (k, n)-coded fragments instead of full replicas.

    ``put`` spreads one fragment per responsible node and acknowledges
    when all are stored; ``get`` fetches ``required`` fragments *in
    parallel* from distinct replicas (the NSDI'04 latency trick) and
    reconstructs.  Whole-block handlers remain available, so a mixed
    deployment keeps working.
    """

    def __init__(self, node, config: DhtConfig,
                 fragment_config: Optional[FragmentConfig] = None) -> None:
        self.fragment_config = fragment_config or FragmentConfig()
        if self.fragment_config.total > config.num_replicas:
            raise ValueError("cannot place more fragments than replicas")
        super().__init__(node, config)
        self.fragment_store: Dict[Tuple[int, int], Fragment] = {}
        node.rpc.register("dht_store_fragment", self._h_store_fragment)
        node.rpc.register("dht_fetch_fragment", self._h_fetch_fragment)

    # -- server side -----------------------------------------------------------

    def _h_store_fragment(self, params: dict, ctx: RpcContext) -> None:
        frag: Fragment = params["fragment"]
        self.fragment_store[(frag.key, frag.index)] = frag
        ctx.respond({})

    def _h_fetch_fragment(self, params: dict, ctx: RpcContext) -> None:
        key = params["key"]
        held = [f for (k, _i), f in self.fragment_store.items() if k == key]
        if not held:
            ctx.respond({"found": False})
            return
        frag = held[0]
        ctx.respond(
            {"found": True, "fragment": frag},
            size=MIN_RPC_BYTES + frag.size,
        )

    # -- client put ----------------------------------------------------------------

    def _put_entries(self, op: _Op, res: LookupResult) -> None:
        if not res.success or len(res.entries) < self.fragment_config.total:
            self._finish(op, False, error=res.error or "too few replicas for fragments")
            return
        assert op.value is not None
        fragments = fragment_value(op.key, op.value, self.fragment_config)
        state = {"pending": len(fragments), "failed": 0}
        for fragment, target in zip(fragments, res.entries):
            self.node.rpc.call(
                target.address,
                "dht_store_fragment",
                {"fragment": fragment},
                on_reply=lambda _r: self._fragment_stored(op, state, ok=True),
                on_error=lambda _e: self._fragment_stored(op, state, ok=False),
                timeout_s=self._data_timeout_s(),
                size=MIN_RPC_BYTES + ID_BYTES + fragment.size,
                category=self.DATA_CATEGORY,
                op_tag=op.op_tag,
            )

    def _fragment_stored(self, op: _Op, state: dict, ok: bool) -> None:
        state["pending"] -= 1
        if not ok:
            state["failed"] += 1
        if state["pending"] == 0:
            stored = self.fragment_config.total - state["failed"]
            if stored >= self.fragment_config.required:
                self._finish(op, True, value=op.value)
            else:
                self._finish(
                    op, False,
                    error=f"only {stored} fragments stored, need "
                          f"{self.fragment_config.required}",
                )

    # -- client get ----------------------------------------------------------------

    def _get_entries(self, op: _Op, res: LookupResult) -> None:
        if not res.success or not res.entries:
            self._finish(op, False, error=res.error or "lookup failed")
            return
        cfg = self.fragment_config
        state: dict = {"got": [], "outstanding": 0, "finished": False}
        remaining = list(res.entries)
        # Parallel fan-out to `required` replicas; stragglers take over
        # on failure or miss.
        for _ in range(min(cfg.required, len(remaining))):
            self._fetch_fragment_from(op, state, remaining)

    def _fetch_fragment_from(self, op: _Op, state: dict, remaining: List[NodeInfo]) -> None:
        if state["finished"]:
            return
        if not remaining:
            if state["outstanding"] == 0:
                state["finished"] = True
                self._finish(op, False, error="not enough fragments reachable")
            return
        target = remaining.pop(0)
        state["outstanding"] += 1
        self.node.rpc.call(
            target.address,
            "dht_fetch_fragment",
            {"key": op.key},
            on_reply=lambda r: self._fragment_reply(op, state, remaining, r),
            on_error=lambda _e: self._fragment_failed(op, state, remaining),
            timeout_s=self._data_timeout_s(),
            size=MIN_RPC_BYTES + ID_BYTES,
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
        )

    def _fragment_failed(self, op: _Op, state: dict, remaining: List[NodeInfo]) -> None:
        state["outstanding"] -= 1
        self._fetch_fragment_from(op, state, remaining)

    def _fragment_reply(self, op: _Op, state: dict, remaining: List[NodeInfo], res: dict) -> None:
        state["outstanding"] -= 1
        if state["finished"]:
            return
        if res.get("found"):
            state["got"].append(res["fragment"])
        if len({f.index for f in state["got"]}) >= self.fragment_config.required:
            state["finished"] = True
            try:
                value = reassemble(state["got"])
                verify_block(self.space, op.key, value)
            except ValueError as exc:
                self._finish(op, False, error=str(exc))
                return
            self._finish(op, True, value=value)
            return
        if not res.get("found"):
            self._fetch_fragment_from(op, state, remaining)

    # -- maintenance: fragments are repaired by re-put (kept simple) -------------------

    def _group_candidates(self) -> None:
        # Background whole-block sync does not apply to fragments; the
        # classic system re-codes on repair, which we leave to re-puts.
        # No candidates means every group view is empty.
        return None
