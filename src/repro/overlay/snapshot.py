"""Static overlay snapshots.

Computes, from a sorted id population alone, the exact routing state a
converged overlay would hold: successor/predecessor lists, finger
tables, and key ownership.  Three consumers:

* **instant bootstrap** — the experiment rings are initialised with
  converged state instead of paying O(N) protocol joins (p2psim does
  the same);
* **the worm simulations** — the paper's Fig. 8 runs on a 100,000-node
  *static* overlay, far past what a live protocol simulation in Python
  should be asked to maintain;
* **tests** — protocol-built state is checked against this ground truth.

Everything here is O(log N) per query via bisect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

try:  # numpy accelerates the batched knowledge-extraction path
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    np = None  # type: ignore[assignment]

from ..chord.state import NodeInfo
from ..ids.idspace import IdSpace
from ..ids.sections import VermeIdLayout
from ..net.addressing import NodeAddress
from ..verme.fingers import verme_finger_target

#: Row batches above this are processed in chunks by the vectorised
#: knowledge path so the (rows x candidates^2) dedup mask stays small.
_BATCH_CHUNK = 16384


@dataclass(frozen=True)
class OwnerDecision:
    """Who owns a key, and whether the predecessor corner rule fired."""

    index: int
    via_predecessor_rule: bool


class StaticOverlay:
    """Chord ownership and routing state over a fixed population."""

    #: Field layout of typed (Verme) ids; plain Chord ids have none.
    layout: Optional[VermeIdLayout] = None

    def __init__(self, space: IdSpace, infos: Sequence[NodeInfo]) -> None:
        if not infos:
            raise ValueError("an overlay needs at least one node")
        self.space = space
        self._infos: Optional[List[NodeInfo]] = sorted(
            infos, key=lambda i: i.node_id
        )
        self.ids: List[int] = [i.node_id for i in self._infos]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate node ids in overlay population")
        self._ids_np = None

    @classmethod
    def from_ids(cls, space: IdSpace, ids: Sequence[int]) -> "StaticOverlay":
        """Build an overlay from bare ids without materialising
        :class:`NodeInfo` objects.

        At million-node scale the per-node ``NodeInfo``/``NodeAddress``
        dataclasses dominate construction cost and RSS; the worm
        simulations only ever consult ``ids`` and index arithmetic, so
        :attr:`infos` stays lazy (materialised on first access, with
        addresses equal to the sorted position).
        """
        if not ids:
            raise ValueError("an overlay needs at least one node")
        self = object.__new__(cls)
        self.space = space
        sorted_ids = sorted(ids)
        for a, b in zip(sorted_ids, sorted_ids[1:]):
            if a == b:
                raise ValueError("duplicate node ids in overlay population")
        self.ids = sorted_ids
        self._infos = None
        self._ids_np = None
        return self

    @property
    def infos(self) -> List[NodeInfo]:
        if self._infos is None:
            self._infos = [
                NodeInfo(nid, NodeAddress(i)) for i, nid in enumerate(self.ids)
            ]
        return self._infos

    def __len__(self) -> int:
        return len(self.ids)

    # -- basic geometry --------------------------------------------------------

    def index_of(self, node_id: int) -> int:
        i = bisect_left(self.ids, node_id)
        if i == len(self.ids) or self.ids[i] != node_id:
            raise KeyError(f"node id {node_id:#x} not in overlay")
        return i

    def successor_index(self, key: int) -> int:
        """Index of the first node clockwise from ``key`` (inclusive)."""
        i = bisect_left(self.ids, key)
        return i % len(self.ids)

    def predecessor_index(self, key: int) -> int:
        """Index of the last node strictly before ``key`` (clockwise)."""
        i = bisect_left(self.ids, key)
        return (i - 1) % len(self.ids)

    def at(self, index: int) -> NodeInfo:
        return self.infos[index % len(self.infos)]

    # -- routing state ----------------------------------------------------------

    def successor_list(self, index: int, count: int) -> List[NodeInfo]:
        n = len(self.infos)
        count = min(count, n - 1)
        return [self.infos[(index + 1 + j) % n] for j in range(count)]

    def predecessor_list(self, index: int, count: int) -> List[NodeInfo]:
        n = len(self.infos)
        count = min(count, n - 1)
        return [self.infos[(index - 1 - j) % n] for j in range(count)]

    def owner(self, key: int) -> OwnerDecision:
        """Chord: a key is owned by its successor, unconditionally."""
        return OwnerDecision(self.successor_index(key), False)

    def finger_target(self, node_id: int, k: int) -> int:
        return self.space.power_of_two_target(node_id, k)

    def maintained_finger_indices(self, index: int) -> List[int]:
        """Finger numbers not covered by the node's first successor."""
        node_id = self.ids[index]
        succ_id = self.ids[(index + 1) % len(self.ids)]
        span = self.space.distance(node_id, succ_id)
        if span == 0:  # single-node overlay
            return []
        # 2**k > span  <=>  k >= span.bit_length(), so skip the dead ks.
        return list(range(span.bit_length(), self.space.bits))

    def finger_table(self, index: int) -> dict[int, NodeInfo]:
        """Converged finger table of the node at ``index``."""
        node_id = self.ids[index]
        fingers: dict[int, NodeInfo] = {}
        for k in self.maintained_finger_indices(index):
            target = self.finger_target(node_id, k)
            owner = self.infos[self.owner(target).index]
            if owner.node_id != node_id and self._finger_entry_allowed(
                node_id, owner.node_id
            ):
                fingers[k] = owner
        return fingers

    def _finger_entry_allowed(self, node_id: int, owner_id: int) -> bool:
        """May ``owner_id`` be stored as a finger of ``node_id``?
        (Verme refuses containment-violating entries.)"""
        return True

    def replica_group(self, key: int, count: int) -> List[NodeInfo]:
        """The nodes a DHT should place ``count`` replicas of ``key`` on."""
        infos = self.infos
        return [infos[i] for i in self.replica_group_indices(key, count)]

    def replica_group_indices(self, key: int, count: int) -> List[int]:
        """Index form of :meth:`replica_group` (same nodes, same order)
        that never materialises ``NodeInfo`` objects."""
        start = self.owner(key).index
        n = len(self.ids)
        count = min(count, n)
        return [(start + j) % n for j in range(count)]

    def routing_entries(
        self, index: int, num_successors: int, num_predecessors: int
    ) -> List[NodeInfo]:
        """Everything in this node's routing state (for worm knowledge)."""
        seen: dict[int, NodeInfo] = {}
        for info in self.successor_list(index, num_successors):
            seen[info.node_id] = info
        for info in self.predecessor_list(index, num_predecessors):
            seen[info.node_id] = info
        for info in self.finger_table(index).values():
            seen[info.node_id] = info
        return list(seen.values())

    def routing_target_indices(
        self,
        index: int,
        num_successors: int,
        num_predecessors: int,
        keep_type: Optional[int] = None,
    ) -> List[int]:
        """Index-form :meth:`routing_entries`: the same entries in the
        same first-occurrence order (successors, then predecessors, then
        fingers by ascending ``k``), but as overlay indices with no
        ``NodeInfo`` materialisation or ``index_of`` lookups.  This is
        the worm-knowledge hot path.

        ``keep_type`` keeps only entries whose id carries that type
        field (Verme overlays only: plain Chord ids encode no type).
        On a :class:`VermeStaticOverlay` (exactly; not its ablation
        subclasses) the whole extraction runs as one fused integer
        loop, see :func:`_verme_routing_target_indices`.
        """
        if type(self) is VermeStaticOverlay:
            return _verme_routing_target_indices(
                self, index, num_successors, num_predecessors, keep_type
            )
        ids = self.ids
        n = len(ids)
        out: List[int] = []
        seen = set()
        for j in range(1, min(num_successors, n - 1) + 1):
            i = (index + j) % n
            if i not in seen:
                seen.add(i)
                out.append(i)
        for j in range(1, min(num_predecessors, n - 1) + 1):
            i = (index - j) % n
            if i not in seen:
                seen.add(i)
                out.append(i)
        node_id = ids[index]
        finger_target = self.finger_target
        owner = self.owner
        allowed = self._finger_entry_allowed
        for k in self.maintained_finger_indices(index):
            oi = owner(finger_target(node_id, k)).index
            owner_id = ids[oi]
            if owner_id != node_id and oi not in seen and allowed(node_id, owner_id):
                seen.add(oi)
                out.append(oi)
        if keep_type is not None:
            layout = self.layout
            if layout is None:
                raise ValueError("keep_type needs ids that encode a type field")
            type_of = layout.type_of
            out = [i for i in out if type_of(ids[i]) == keep_type]
        return out

    def _ids_numpy(self):
        """The sorted id list as a cached ``uint64`` array (ids fit by
        the ``bits <= 64`` guard of the callers)."""
        arr = self._ids_np
        if arr is None:
            arr = np.array(self.ids, dtype=np.uint64)
            self._ids_np = arr
        return arr

    def _can_batch_routing(self) -> bool:
        """The vectorised path hard-codes plain-Chord semantics, so it
        only runs when no subclass overrides them."""
        cls = type(self)
        return (
            np is not None
            and self.space.bits <= 64
            and cls.owner is StaticOverlay.owner
            and cls.finger_target is StaticOverlay.finger_target
            and cls._finger_entry_allowed is StaticOverlay._finger_entry_allowed
            and cls.maintained_finger_indices is StaticOverlay.maintained_finger_indices
        )

    def routing_target_indices_many(
        self, indices: Sequence[int], num_successors: int, num_predecessors: int
    ):
        """Batched :meth:`routing_target_indices` over many nodes.

        Returns ``(flat, counts)`` where ``flat`` is the concatenation
        of each node's target list (row-major, exact per-node order
        preserved) and ``counts[r]`` is the length of row ``r``.  On
        plain Chord overlays the whole batch is vectorised with numpy
        (``searchsorted`` for finger owners, a candidate matrix with a
        triangular equality mask for first-occurrence dedup); subclasses
        with different ownership/finger rules fall back to the scalar
        path per node.
        """
        if not self._can_batch_routing():
            flat: List[int] = []
            counts: List[int] = []
            for index in indices:
                row = self.routing_target_indices(
                    index, num_successors, num_predecessors
                )
                flat.extend(row)
                counts.append(len(row))
            return flat, counts

        ids_np = self._ids_numpy()
        n = len(ids_np)
        bits = self.space.bits
        idx_all = np.asarray(indices, dtype=np.int64)
        cs = min(num_successors, n - 1)
        cp = min(num_predecessors, n - 1)
        flat_parts = []
        count_parts = []
        for lo in range(0, idx_all.shape[0], _BATCH_CHUNK):
            idx = idx_all[lo : lo + _BATCH_CHUNK]
            m = idx.shape[0]
            node_ids = ids_np[idx]
            # Successor span decides which fingers each node maintains;
            # uint64 wraparound then masking gives distance mod 2**bits.
            spans = ids_np[(idx + 1) % n] - node_ids
            if bits < 64:
                spans &= np.uint64((1 << bits) - 1)
            kmin = int(spans.min()).bit_length() if m else bits
            nk = max(0, bits - kmin)
            cols = cs + cp + nk
            cand = np.full((m, cols), -1, dtype=np.int64)
            if cs:
                cand[:, :cs] = (
                    idx[:, None] + np.arange(1, cs + 1, dtype=np.int64)
                ) % n
            if cp:
                cand[:, cs : cs + cp] = (
                    idx[:, None] - np.arange(1, cp + 1, dtype=np.int64)
                ) % n
            oi = None
            if nk:
                # All finger owners in one searchsorted over the
                # (m, nk) target matrix.
                steps = np.uint64(1) << np.arange(kmin, bits, dtype=np.uint64)
                active = spans[:, None] < steps[None, :]  # 2**k > span
                targets = node_ids[:, None] + steps[None, :]
                if bits < 64:
                    targets &= np.uint64((1 << bits) - 1)
                oi = ids_np.searchsorted(targets.ravel()).reshape(m, nk) % n
                ok = active & (ids_np[oi] != node_ids[:, None])
                cand[:, cs + cp :] = np.where(ok, oi, -1)
            if cp == 0:
                # Structure-aware dedup, O(m*cols): successors are
                # distinct by construction, so only fingers need checks.
                # A finger is a duplicate iff it is shadowed by the
                # successor list (ring offset <= cs) or equals the
                # previous finger column — finger owners move clockwise
                # monotonically by less than half the ring (offsets are
                # 2**k <= 2**(bits-1)), so equal owners are always in
                # adjacent maintained columns.
                keep = np.ones((m, cols), dtype=bool)
                if nk:
                    fkeep = cand[:, cs:] >= 0
                    fkeep &= ((oi - idx[:, None]) % n) > cs
                    fkeep[:, 1:] &= oi[:, 1:] != oi[:, :-1]
                    keep[:, cs:] = fkeep
            else:
                # General first-occurrence dedup: drop a candidate equal
                # to any earlier column (lower-triangular equality).
                eq = cand[:, :, None] == cand[:, None, :]
                dup = (eq & np.tril(np.ones((cols, cols), dtype=bool), -1)).any(
                    axis=2
                )
                keep = (cand >= 0) & ~dup
            flat_parts.append(cand[keep])
            count_parts.append(keep.sum(axis=1))
        if not flat_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(flat_parts), np.concatenate(count_parts)


class VermeStaticOverlay(StaticOverlay):
    """Verme's ownership (section-bounded with the predecessor corner
    rule, §4.4/§5.2) and opposite-type finger placement."""

    def __init__(
        self, layout: VermeIdLayout, infos: Sequence[NodeInfo]
    ) -> None:
        super().__init__(layout.space, infos)
        self.layout = layout

    @classmethod
    def from_ids(
        cls, layout: VermeIdLayout, ids: Sequence[int]
    ) -> "VermeStaticOverlay":
        """Lazy-``infos`` constructor (see :meth:`StaticOverlay.from_ids`)."""
        self = StaticOverlay.from_ids.__func__(cls, layout.space, ids)
        self.layout = layout
        return self

    def owner(self, key: int) -> OwnerDecision:
        """The key's successor if it lies in the key's section, else the
        key's predecessor (the corner case of §4.4)."""
        succ_i = self.successor_index(key)
        if self.layout.same_section(self.ids[succ_i], key):
            return OwnerDecision(succ_i, False)
        return OwnerDecision(self.predecessor_index(key), True)

    def finger_target(self, node_id: int, k: int) -> int:
        return verme_finger_target(self.layout, node_id, k)

    def _finger_entry_allowed(self, node_id: int, owner_id: int) -> bool:
        """In degenerate (sparsely populated) rings the owner of a
        displaced target can be a same-type node from a foreign section;
        storing it would break containment, so it is dropped (routing
        falls back to the successor list)."""
        return self.layout.same_section(owner_id, node_id) or not self.layout.same_type(
            owner_id, node_id
        )

    def section_members(self, section_index: int) -> List[NodeInfo]:
        """All nodes whose ids fall in the given section."""
        start, end = self.layout.section_bounds(section_index)
        lo = bisect_left(self.ids, start)
        hi = bisect_right(self.ids, end)
        return self.infos[lo:hi]

    def replica_group(self, key: int, count: int) -> List[NodeInfo]:
        """Up to ``count`` nodes of the key's section nearest the key.

        Starts at the owner and extends clockwise while staying in the
        key's section, then counter-clockwise (the paper's "replicate
        toward the predecessors" corner rule); never leaves the section.
        """
        infos = self.infos
        return [infos[i] for i in self.replica_group_indices(key, count)]

    def replica_group_indices(self, key: int, count: int) -> List[int]:
        ids = self.ids
        decision = self.owner(key)
        owner_index = decision.index
        section = self.layout.section_index(key)
        if self.layout.section_index(ids[owner_index]) != section:
            # Degenerate: the key's section is empty; only the ring
            # predecessor can own it.
            return [owner_index]
        n = len(ids)
        group = [owner_index]
        j = owner_index
        while len(group) < count:
            j = (j + 1) % n
            if j == owner_index or self.layout.section_index(ids[j]) != section:
                break
            group.append(j)
        j = owner_index
        while len(group) < count:
            j = (j - 1) % n
            if j in group or self.layout.section_index(ids[j]) != section:
                break
            group.append(j)
        return group

    def cross_type_replica_groups(
        self, key: int, per_group: int
    ) -> tuple[List[NodeInfo], List[NodeInfo]]:
        """VerDi's two replica groups (§5.2): ``per_group`` nodes at the
        key's position and the same position one section later."""
        return (
            self.replica_group(key, per_group),
            self.replica_group(self.layout.opposite_type_position(key), per_group),
        )


class NaiveFingerVermeOverlay(VermeStaticOverlay):
    """Ablation: Verme's sectioned ids and ownership, but *plain Chord*
    finger targets and no containment filtering.

    This isolates the contribution of §4.4's finger displacement: with
    naive fingers a node's table contains same-type nodes from distant
    sections, handing a worm exactly the cross-island links Verme
    exists to remove.  Used by the ablation benchmarks.
    """

    def finger_target(self, node_id: int, k: int) -> int:
        return self.space.power_of_two_target(node_id, k)

    def _finger_entry_allowed(self, node_id: int, owner_id: int) -> bool:
        return True


def _verme_routing_target_indices(
    overlay: VermeStaticOverlay,
    index: int,
    num_successors: int,
    num_predecessors: int,
    keep_type: Optional[int],
) -> List[int]:
    """:meth:`StaticOverlay.routing_target_indices` on a Verme overlay,
    fused into one integer loop.

    The output is exactly the generic path's (same indices, same
    order): the §4.4 finger displacement (:func:`verme_finger_target`),
    the section-bounded owner rule with its predecessor fallback
    (:meth:`VermeStaticOverlay.owner`), the containment check
    (:meth:`VermeStaticOverlay._finger_entry_allowed`) and the
    ``keep_type`` filter are inlined as shifts and masks on the ids,
    with one ``bisect_left`` per finger.

    The successor window holds distinct indices.  A predecessor at
    distance ``j`` repeats the successor at distance ``n - j``, so only
    the first ``n - 1 - cs`` predecessors can be new.  Dropping a
    filtered-out entry early cannot change the dedup, because the same
    index at a later position would be filtered out again.

    **Own-section finger cutoff** (``keep_type`` is the node's own
    type).  A finger survives the containment rule if its owner is in
    the node's section or of another type.  It survives the type filter
    only if its owner has the node's type.  Both hold only if the owner
    is in the node's own section.  Let ``b`` be the first node at or
    after the start of the next section, and ``D`` the clockwise
    distance from the node to ``b``.  If ``b`` lies outside the own
    section, every finger ``k`` with ``2**k > D`` targets a point beyond
    ``b``.  The predecessor of that target is then ``b`` or a node after
    it.  Its successor is either in the target's section or it falls
    back to that predecessor.  A finger target lies at most half the
    ring plus one section past the node, and a section is at most a
    quarter of the ring, so none of these wraps back into the own
    section.  Such a finger therefore never survives, and the ``k``
    loop stops at ``D.bit_length()``.  If ``b`` is in the own section,
    no node lies outside it, and there is no cutoff.  This includes
    ``D == 0``, where ``b`` is the node itself.
    """
    ids = overlay.ids
    n = len(ids)
    layout = overlay.layout
    section_bits = layout.section_bits
    type_mask = (1 << layout.type_bits) - 1
    bits = layout.space.bits
    id_mask = layout.space.mask
    section_length = 1 << section_bits
    node_id = ids[index]
    own_section = node_id >> section_bits
    own_type = own_section & type_mask

    cs = max(0, min(num_successors, n - 1))
    cp = min(num_predecessors, n - 1 - cs)
    out: List[int] = []
    for i in range(index + 1, index + 1 + cs):
        if i >= n:
            i -= n
        if keep_type is None or (ids[i] >> section_bits) & type_mask == keep_type:
            out.append(i)
    for i in range(index - 1, index - 1 - cp, -1):
        if i < 0:
            i += n
        if keep_type is None or (ids[i] >> section_bits) & type_mask == keep_type:
            out.append(i)

    # Maintained fingers: those not covered by the first successor.
    span = (ids[index + 1 if index + 1 < n else 0] - node_id) & id_mask
    if not span:  # single-node overlay
        return out
    k_stop = bits
    own_only = keep_type == own_type
    if own_only:
        # b: the first node at or after the start of the next section.
        b = bisect_left(ids, ((own_section + 1) << section_bits) & id_mask)
        b_id = ids[b if b < n else 0]
        if b_id >> section_bits != own_section:
            k_stop = min(bits, ((b_id - node_id) & id_mask).bit_length())
    seen = set(out)
    for k in range(span.bit_length(), k_stop):
        target = (node_id + (1 << k)) & id_mask
        target_section = target >> section_bits
        if (
            target_section != own_section
            and not (target_section ^ own_section) & type_mask
        ):
            # A foreign section of our own type (never the next section,
            # whose type always differs): displace one section.
            target = (target + section_length) & id_mask
            target_section = target >> section_bits
        p = bisect_left(ids, target)
        oi = p if p < n else 0
        owner_id = ids[oi]
        if owner_id >> section_bits != target_section:
            # Successor outside the target's section: the predecessor owns it.
            oi = p - 1 if p else n - 1
            owner_id = ids[oi]
        if owner_id == node_id or oi in seen:
            continue
        owner_section = owner_id >> section_bits
        if own_only:
            keep = owner_section == own_section
        elif keep_type is None:
            keep = (
                owner_section == own_section
                or (owner_section ^ own_section) & type_mask
            )
        else:
            # Another type than the node's own: containment always holds.
            keep = owner_section & type_mask == keep_type
        if keep:
            seen.add(oi)
            out.append(oi)
    return out
