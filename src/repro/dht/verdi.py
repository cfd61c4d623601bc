"""VerDi: shared replication logic for the DHT over Verme (paper §5.2).

A data item with key *k* gets *n/2* replicas on the nodes of *k*'s
section and *n/2* on the same position of the subsequent section (which
is of the opposite type), so a worm outbreak in one type can neither
harvest both replica groups nor wipe out all copies.  The corner case
of a key falling past the last node of its section replicates toward
the predecessors (handled by the in-section group construction).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from ..chord.state import NodeInfo
from ..chord.rpc import RpcContext
from ..chord.lookup import LookupPurpose
from ..verme.node import VermeNode
from .base import DhtConfig, DhtNode


class VerDiNode(DhtNode):
    """Common VerDi machinery; the three variants subclass this."""

    def __init__(self, node: VermeNode, config: DhtConfig) -> None:
        # Duck-typed so the columnar engine's row adapters qualify: any
        # node carrying a section layout (and Verme credentials) works.
        layout = getattr(node, "layout", None)
        if layout is None:
            raise TypeError("VerDi requires a Verme node (with a section layout)")
        self.layout = layout
        super().__init__(node, config)

    # -- replica placement ----------------------------------------------------------

    def other_position(self, key: int) -> Optional[int]:
        """Given that this node holds ``key``, the position of the other
        replica group (None when this node is in neither group —
        possible after heavy churn)."""
        my_section = self.layout.section_index(self.node.node_id)
        if self.layout.section_index(key) == my_section:
            return self.layout.opposite_type_position(key)
        alt = self.layout.opposite_type_position(key)
        if self.layout.section_index(alt) == my_section:
            return key
        return None

    def position_for_me(self, key: int) -> Optional[int]:
        """The replica position (key or key + section) inside this
        node's own section, if any."""
        my_section = self.layout.section_index(self.node.node_id)
        if self.layout.section_index(key) == my_section:
            return key
        alt = self.layout.opposite_type_position(key)
        if self.layout.section_index(alt) == my_section:
            return alt
        return None

    def _group_size(self) -> int:
        return self.config.replicas_per_section

    def _group_candidates(self) -> Tuple[List[int], List[NodeInfo]]:
        """``(ids, entries)``: the in-section entries this node can see
        (successors, predecessors and itself, deduplicated by id, the
        last entry of an id winning), sorted by id."""
        node = self.node
        length = self.layout.section_length
        lo = self.layout.section_index(node.node_id) * length
        hi = lo + length
        by_id = {}
        for entries in (node.successors.entries, node.predecessors.entries):
            for e in entries:
                if lo <= e.node_id < hi:
                    by_id[e.node_id] = e
        by_id[node.node_id] = node.info
        ids = sorted(by_id)
        return ids, [by_id[i] for i in ids]

    def _group_view(self, candidates, key: int) -> List[NodeInfo]:
        """The in-section replica group members this node can see.

        Mirrors the static construction: clockwise from the position's
        owner, then counter-clockwise (the "replicate toward the
        predecessors" corner rule), never leaving the section.

        One bisect over the id-sorted candidates selects the group, and
        it is exact.  ``position_for_me`` always returns a position in
        the node's own section, and sections are the non-wrapping
        ranges ``[k*L, (k+1)*L)``.  A layout has at least two sections
        (in fact four: one high bit above one type bit), so the ring
        holds at least ``2L`` ids.  For a candidate ``c`` of the section,
        ``distance(position, c)`` is ``c - position < L`` when
        ``c >= position`` and at least ``2L - (position - c) > L``
        otherwise: the clockwise members are the candidates from the
        bisect point on, in ascending id order, and the
        counter-clockwise ones are those before it, in descending id
        order.
        """
        position = self.position_for_me(key)
        if position is None:
            return []
        ids, entries = candidates
        size = self._group_size()
        i = bisect_left(ids, position)
        group = entries[i : i + size]
        short = size - len(group)
        if short > 0 and i:
            group += entries[max(0, i - short) : i][::-1]
        return group

    # -- adjusted lookups -------------------------------------------------------------

    def adjusted_key(self, key: int) -> int:
        """The replica position of the *opposite* type from this node
        (§5.3.1: "the lookup operation adds the section length to the id
        being looked up if necessary")."""
        if self.layout.type_of(key) == int(self.node.node_type):
            return self.layout.opposite_type_position(key)
        return key

    # -- cross-section copy (used by Fast/Compromise puts) ------------------------------

    def _h_store(self, params: dict, ctx: RpcContext) -> None:
        """Like the base store, plus VerDi's synchronous cross-section
        copy: the responsible node only acknowledges a tagged put after
        the other replica group (of the opposite type) holds a copy, so
        the data is available to clients of both types (§5.3.1)."""
        if not params.get("cross_copy"):
            super()._h_store(params, ctx)
            return
        key, value = params["key"], params["value"]
        try:
            self.store.put(key, value)
        except ValueError as exc:
            ctx.fail(str(exc))
            return
        self.node.sim.schedule(0.0, self._replicate_key, key)
        other = self.other_position(key)
        if other is None:
            ctx.respond({})  # degenerate placement; background sync will heal
            return
        self.node.lookup(
            other,
            on_done=lambda res: self._cross_copy_entries(key, value, res, ctx),
            purpose=LookupPurpose.DHT,
            category=self.DATA_CATEGORY,
            op_tag=ctx.op_tag,
        )

    def _cross_copy_entries(self, key: int, value: bytes, res, ctx: RpcContext) -> None:
        if not res.success or not res.entries:
            ctx.fail(res.error or "cross-copy lookup failed")
            return
        target = res.entries[0]
        self.node.rpc.call(
            target.address,
            "dht_store",
            {"key": key, "value": value, "replicate": True},
            on_reply=lambda _res: ctx.respond({}),
            on_error=lambda err: ctx.fail(f"cross-copy store failed: {err}"),
            timeout_s=self._data_timeout_s(),
            size=self._store_request_bytes(value),
            category=self.DATA_CATEGORY,
            op_tag=ctx.op_tag,
        )
