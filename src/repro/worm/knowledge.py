"""What a topological worm knows: routing-state knowledge extraction.

A worm on an infected node harvests the overlay routing state —
successor list, predecessor list, finger table — to choose its next
targets (paper §3: "use the routing state maintained by the application
to choose the next target to infect").

Target filtering: Verme ids *encode* the platform type in their middle
bits, so a worm on a Verme overlay skips opposite-type entries for free
(they cannot be vulnerable to it).  Chord ids carry no type
information, so a Chord worm must spend scan slots probing targets that
turn out to be invulnerable.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

from ..ids.sections import VermeIdLayout
from ..overlay.snapshot import StaticOverlay, VermeStaticOverlay


class KnowledgeModel(Protocol):
    """Maps a node index to the indices its worm instance can target.

    Implementations may additionally declare ``targets_unique = True``
    (a class or instance attribute) to promise that every list returned
    by ``targets_of`` is duplicate-free and never contains ``index``
    itself; the columnar engine then skips per-target dedup on first
    knowledge injection.  They may also provide
    ``targets_of_many(indices) -> (flat, counts)`` — the concatenated
    target lists plus per-row lengths — which batch engines prefer.
    """

    def targets_of(self, index: int) -> List[int]: ...


class RoutingKnowledge:
    """Knowledge = the node's full routing state on a static overlay."""

    #: Routing state never references the node itself and is
    #: deduplicated by construction (see ``routing_target_indices``).
    targets_unique = True

    def __init__(
        self,
        overlay: StaticOverlay,
        num_successors: int = 10,
        num_predecessors: int = 0,
        same_type_only: bool = False,
        layout: Optional[VermeIdLayout] = None,
        node_types: Optional[Sequence[int]] = None,
    ) -> None:
        """``same_type_only`` models the worm reading types from ids
        (requires ``layout``, which then decides every type);
        ``node_types`` records per-index types for callers that
        inspect them but plays no part in the filtering."""
        if same_type_only and layout is None:
            raise ValueError("same_type_only filtering needs a VermeIdLayout")
        self.overlay = overlay
        self.num_successors = num_successors
        self.num_predecessors = num_predecessors
        self.same_type_only = same_type_only
        self.layout = layout
        self.node_types = node_types

    def targets_of(self, index: int) -> List[int]:
        overlay = self.overlay
        if not self.same_type_only:
            return overlay.routing_target_indices(
                index, self.num_successors, self.num_predecessors
            )
        layout = self.layout
        ids = overlay.ids
        own_type = layout.type_of(ids[index])
        if overlay.layout is layout or overlay.layout == layout:
            # The overlay filters by type in the same pass.
            return overlay.routing_target_indices(
                index, self.num_successors, self.num_predecessors, own_type
            )
        # The overlay's ids are not typed by this layout (e.g. Chord):
        # filter its routing state here instead.
        type_of = layout.type_of
        return [
            i
            for i in overlay.routing_target_indices(
                index, self.num_successors, self.num_predecessors
            )
            if type_of(ids[i]) == own_type
        ]

    def targets_of_many(self, indices):
        """Batched :meth:`targets_of`: ``(flat, counts)`` with the
        concatenated per-node target lists and each row's length.
        Unfiltered knowledge delegates to the overlay's vectorised
        batch extraction; type-filtered knowledge runs the overlay's
        per-node extraction (on Verme, the fused integer loop of
        :meth:`~repro.overlay.snapshot.StaticOverlay.routing_target_indices`).
        """
        if not self.same_type_only:
            return self.overlay.routing_target_indices_many(
                indices, self.num_successors, self.num_predecessors
            )
        flat: List[int] = []
        counts: List[int] = []
        for index in indices:
            row = self.targets_of(index)
            flat.extend(row)
            counts.append(len(row))
        return flat, counts


def verme_knowledge(
    overlay: VermeStaticOverlay,
    num_successors: int = 10,
    num_predecessors: int = 10,
) -> RoutingKnowledge:
    """Standard knowledge model for a worm on Verme: routing state with
    type-filtering (the worm reads types straight from the ids)."""
    return RoutingKnowledge(
        overlay,
        num_successors=num_successors,
        num_predecessors=num_predecessors,
        same_type_only=True,
        layout=overlay.layout,
    )


def chord_knowledge(
    overlay: StaticOverlay,
    num_successors: int = 10,
) -> RoutingKnowledge:
    """Standard knowledge model for a worm on Chord: routing state,
    unfiltered (Chord ids reveal nothing about platform types)."""
    return RoutingKnowledge(overlay, num_successors=num_successors)
