"""Verme finger-target placement (paper §4.4).

A Chord finger ``k`` targets ``id + 2**k``.  Verme must guarantee that
every finger points at a node of the *opposite* type, so the raw target
is displaced by one section length whenever it would land in a section
of the node's own type — except for nearby targets that fall either in
the node's own section (same-island knowledge is allowed) or in the
subsequent section (already of the opposite type).

This function is deliberately free of protocol dependencies: the live
:class:`~repro.verme.node.VermeNode`, the static overlay builder used
for the 100k-node worm runs, and the lookup-legitimacy verifier all
share it.
"""

from __future__ import annotations

from ..ids.sections import VermeIdLayout


def verme_finger_target(layout: VermeIdLayout, node_id: int, k: int) -> int:
    """The id whose Verme owner is node ``node_id``'s finger ``k``.

    Pure integer arithmetic on the layout's fields (no per-call id
    validation or derived-property lookups): this runs for every finger
    of every node in the static worm overlays and the live engine.
    """
    section_bits = layout.section_bits
    mask = layout.space.mask
    raw = (node_id + (1 << k)) & mask
    own_section = node_id >> section_bits
    raw_section = raw >> section_bits
    if raw_section == own_section:
        # Within the node's own island: successors there are legal.
        return raw
    if raw_section == (own_section + 1) & (mask >> section_bits):
        # The subsequent section is of the opposite type already.
        return raw
    if not (raw_section ^ own_section) & ((1 << layout.type_bits) - 1):
        # Would land among nodes of our own type: displace one section.
        return (raw + (1 << section_bits)) & mask
    return raw


def is_verme_finger_target(layout: VermeIdLayout, node_id: int, key: int) -> bool:
    """Is ``key`` a legitimate finger target for ``node_id``?

    Used by the responsible node to verify finger-maintenance lookups
    (§4.5: "the node must verify if it is ... a correct finger of the id
    in the certificate").
    """
    for k in range(layout.space.bits):
        if verme_finger_target(layout, node_id, k) == key:
            return True
    return False
