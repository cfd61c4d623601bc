"""Tests for VerDi replication placement and the three variants'
functional behaviour (paper §5.2-§5.3)."""

import random

import pytest

from repro.crypto import SealedPayload
from repro.dht import (
    CompromiseVerDiNode,
    DhtConfig,
    FastVerDiNode,
    SecureVerDiNode,
)
from repro.chord.state import NodeInfo
from repro.ids import IdSpace, NodeType, VermeIdLayout
from repro.net import NodeAddress

from conftest import build_verme_ring, stub_overlay_node


def attach(ring, cls, num_replicas=6):
    layers = [cls(node, DhtConfig(num_replicas=num_replicas)) for node in ring.nodes]
    for layer in layers:
        layer.start()
    return layers


def do_op(ring, fn, *args):
    results = []
    fn(*args, results.append)
    ring.sim.run(until=ring.sim.now + 240)
    assert results
    return results[0]


@pytest.fixture(params=[FastVerDiNode, SecureVerDiNode, CompromiseVerDiNode])
def variant(request):
    return request.param


def test_put_get_roundtrip_each_variant(variant):
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=3)
    layers = attach(ring, variant)
    value = b"verdi-block" * 20
    put = do_op(ring, layers[0].put, value)
    assert put.ok, put.error
    got = do_op(ring, layers[-1].get, put.key)
    assert got.ok, got.error
    assert got.value == value


def test_cross_type_clients_can_both_read(variant):
    """Data must be available to clients of both types (§5.2/§5.3.1)."""
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=5)
    layers = attach(ring, variant)
    writer = next(l for l in layers if l.node.node_type is NodeType.A)
    value = b"both-types-read-me"
    put = do_op(ring, writer.put, value)
    assert put.ok, put.error
    ring.sim.run(until=ring.sim.now + 120)  # let replication settle
    reader_a = next(
        l for l in layers if l.node.node_type is NodeType.A and l is not writer
    )
    reader_b = next(l for l in layers if l.node.node_type is NodeType.B)
    for reader in (reader_a, reader_b):
        got = do_op(ring, reader.get, put.key)
        assert got.ok, got.error
        assert got.value == value


def test_fast_verdi_replicas_in_both_type_sections():
    ring = build_verme_ring(num_nodes=128, num_sections=8, seed=7)
    layers = attach(ring, FastVerDiNode)
    value = b"two-section-placement"
    put = do_op(ring, layers[0].put, value)
    assert put.ok
    ring.sim.run(until=ring.sim.now + 10)
    holder_types = {
        int(l.node.node_type) for l in layers if put.key in l.store
    }
    assert holder_types == {0, 1}, "replicas must live in both types"


def test_secure_verdi_single_section_placement():
    ring = build_verme_ring(num_nodes=128, num_sections=8, seed=9)
    layers = attach(ring, SecureVerDiNode)
    value = b"one-section-placement"
    put = do_op(ring, layers[0].put, value)
    assert put.ok
    ring.sim.run(until=ring.sim.now + 10)
    holder_sections = {
        ring.layout.section_index(l.node.node_id)
        for l in layers
        if put.key in l.store
    }
    assert len(holder_sections) == 1


def test_fast_verdi_lookup_rejects_same_type_initiator():
    """The §5.3.1 type check at the responsible node."""
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=11)
    attach(ring, FastVerDiNode)
    node = ring.nodes[0]
    # Look up a key in a section of the node's OWN type (no adjustment).
    key = ring.layout.random_id(random.Random(1), int(node.node_type))
    from repro.chord import LookupPurpose, LookupStyle

    results = []
    node.lookup(
        key, on_done=results.append,
        style=LookupStyle.RECURSIVE, purpose=LookupPurpose.DHT,
    )
    ring.sim.run(until=ring.sim.now + 120)
    assert results and not results[0].success


def test_fast_verdi_fetch_rejects_same_type_requester():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=13)
    layers = attach(ring, FastVerDiNode)
    value = b"guarded-fetch"
    put = do_op(ring, layers[0].put, value)
    ring.sim.run(until=ring.sim.now + 10)
    holder = next(l for l in layers if put.key in l.store)
    same_type_peer = next(
        l
        for l in layers
        if l.node.node_type is holder.node.node_type and l is not holder
    )
    errors = []
    same_type_peer.node.rpc.call(
        holder.node.address,
        "dht_fetch",
        {"key": put.key, "cert": same_type_peer.node.cert},
        on_error=errors.append,
    )
    ring.sim.run(until=ring.sim.now + 10)
    assert errors == ["same-type fetch rejected"]


def test_fast_verdi_fetched_value_sealed_for_requester():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=15)
    layers = attach(ring, FastVerDiNode)
    value = b"sealed-in-transit"
    put = do_op(ring, layers[0].put, value)
    ring.sim.run(until=ring.sim.now + 10)
    holder = next(l for l in layers if put.key in l.store)
    opposite = next(
        l for l in layers if l.node.node_type is not holder.node.node_type
    )
    replies = []
    opposite.node.rpc.call(
        holder.node.address,
        "dht_fetch",
        {"key": put.key, "cert": opposite.node.cert},
        on_reply=replies.append,
    )
    ring.sim.run(until=ring.sim.now + 10)
    assert replies and replies[0]["found"]
    assert isinstance(replies[0]["value"], SealedPayload)
    assert replies[0]["value"].open(opposite.node.keys) == value


def test_secure_verdi_raw_dht_lookup_rejected():
    """In Secure-VerDi, address-returning DHT lookups do not exist."""
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=17)
    attach(ring, SecureVerDiNode)
    from repro.chord import LookupPurpose, LookupStyle

    node = ring.nodes[0]
    results = []
    node.lookup(
        0xABCDEF, on_done=results.append,
        style=LookupStyle.RECURSIVE, purpose=LookupPurpose.DHT,
    )
    ring.sim.run(until=ring.sim.now + 120)
    assert results and not results[0].success


def test_secure_verdi_get_returns_no_addresses():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=19)
    layers = attach(ring, SecureVerDiNode)
    value = b"addressless-get"
    put = do_op(ring, layers[0].put, value)
    assert put.ok
    # Instrument the client's lookup to inspect the raw result.
    from repro.chord import LookupPurpose

    client = layers[5]
    raw = []
    client.node.lookup(
        put.key,
        on_done=raw.append,
        purpose=LookupPurpose.DHT,
        request_meta={"op": "get", "suppress_entries": True, "op_tag": 0},
    )
    ring.sim.run(until=ring.sim.now + 240)
    assert raw and raw[0].success
    assert raw[0].entries == []  # no replica addresses disclosed
    assert raw[0].app_payload["found"]


def test_compromise_relay_performs_operation():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=21)
    layers = attach(ring, CompromiseVerDiNode)
    value = b"relayed-op"
    put = do_op(ring, layers[0].put, value)
    assert put.ok
    got = do_op(ring, layers[7].get, put.key)
    assert got.ok and got.value == value
    assert sum(l.relayed_operations for l in layers) >= 1


def test_compromise_relay_rejects_invalid_certificate():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=23)
    layers = attach(ring, CompromiseVerDiNode)
    client, relay = layers[0], layers[1]
    errors = []
    client.node.rpc.call(
        relay.node.address,
        "verdi_relay",
        {"op": "get", "key": 1, "cert": None, "statement": ("vouch",)},
        on_error=errors.append,
    )
    ring.sim.run(until=ring.sim.now + 10)
    assert errors == ["invalid initiator certificate"]


def test_compromise_relay_requires_statement():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=25)
    layers = attach(ring, CompromiseVerDiNode)
    client, relay = layers[0], layers[1]
    errors = []
    client.node.rpc.call(
        relay.node.address,
        "verdi_relay",
        {"op": "get", "key": 1, "cert": client.node.cert, "statement": None},
        on_error=errors.append,
    )
    ring.sim.run(until=ring.sim.now + 10)
    assert errors == ["missing signed statement"]


def test_verdi_requires_verme_node(chord_ring):
    with pytest.raises(TypeError):
        FastVerDiNode(chord_ring.nodes[0], DhtConfig())


def test_adjusted_key_always_opposite_type():
    ring = build_verme_ring(num_nodes=64, num_sections=8, seed=27)
    layers = attach(ring, FastVerDiNode)
    rng = random.Random(31)
    for layer in layers[:8]:
        for _ in range(10):
            key = rng.getrandbits(32)
            adjusted = layer.adjusted_key(key)
            assert ring.layout.type_of(adjusted) != int(layer.node.node_type)
            # Same in-section offset: the displaced position is "the same
            # position of the subsequent section".
            assert ring.layout.offset_in_section(adjusted) == ring.layout.offset_in_section(key)


# -- replica-group selection: exact equality with the per-key construction --


def reference_group_view(self, key):
    """The per-key group construction that the per-round candidate step
    replaced, kept verbatim as the oracle for ``_group_view``."""
    position = self.position_for_me(key)
    if position is None:
        return []
    node = self.node
    space = node.space
    my_section = self.layout.section_index(node.node_id)
    length = self.layout.section_length
    candidates = {
        e.node_id: e
        for e in list(node.successors.entries)
        + list(node.predecessors.entries)
        + [node.info]
        if self.layout.section_index(e.node_id) == my_section
    }
    after = sorted(
        (e for e in candidates.values() if space.distance(position, e.node_id) < length),
        key=lambda e: space.distance(position, e.node_id),
    )
    before = sorted(
        (e for e in candidates.values() if space.distance(position, e.node_id) >= length),
        key=lambda e: space.distance(e.node_id, position),
    )
    return (after + before)[: self._group_size()]


GROUP_SPACE = IdSpace(32)
GROUP_LAYOUTS = {
    "8-sections": VermeIdLayout.for_sections(GROUP_SPACE, 8),
    # The smallest legal layout: one high bit and one type bit.
    "4-sections": VermeIdLayout.for_sections(GROUP_SPACE, 4),
}


def test_smallest_layout_has_four_sections():
    """The bisect selection needs at least two sections; no layout has
    fewer than four, by either constructor."""
    with pytest.raises(ValueError):
        VermeIdLayout.for_sections(GROUP_SPACE, 2)
    with pytest.raises(ValueError):
        VermeIdLayout(GROUP_SPACE, section_bits=31)
    assert VermeIdLayout(GROUP_SPACE, section_bits=30) == GROUP_LAYOUTS["4-sections"]


def _entries(ids, first_slot):
    return [NodeInfo(i, NodeAddress(first_slot + n)) for n, i in enumerate(ids)]


def group_layer(cls, layout, node_id, in_section, outside=(), stale=()):
    """A layer whose node sees ``in_section`` + ``outside`` ids, split
    into successor and predecessor lists as a ring would order them.
    ``stale`` ids appear once more, with another address, in the
    predecessor list (the entry the dedup must keep)."""
    space = layout.space
    others = sorted((set(in_section) | set(outside)) - {node_id})
    succ = sorted(others, key=lambda i: space.distance(node_id, i))
    pred = sorted(others, key=lambda i: space.distance(i, node_id))
    half = (len(others) + 1) // 2
    node = stub_overlay_node(
        space,
        node_id,
        successors=_entries(succ[:half], 1),
        predecessors=_entries(pred[:half], 100) + _entries(stale, 200),
        layout=layout,
    )
    return cls(node, DhtConfig(num_replicas=6))


def probe_keys(layout, section, ids):
    """Keys placing a replica position at the telling spots of
    ``section`` — its first and last id, every candidate and its
    neighbours — given directly and as the opposite-type position (the
    key one section back, wrapping at section 0), plus keys with no
    position in the section."""
    length = layout.section_length
    lo = section * length
    hi = lo + length - 1
    spots = {lo, lo + 1, (lo + hi) // 2, hi - 1, hi}
    for i in ids:
        spots.update((i - 1, i, i + 1))
    spots = {s for s in spots if lo <= s <= hi}
    wrap = layout.space.wrap
    keys = set(spots)
    keys.update(wrap(s - length) for s in spots)
    keys.update(wrap(s + 2 * length) for s in spots)
    return sorted(keys)


def assert_groups_match(layer, keys):
    candidates = layer._group_candidates()
    for key in keys:
        assert layer._group_view(candidates, key) == reference_group_view(
            layer, key
        ), hex(key)


#: name -> (in-section offsets, offset of the node itself); offsets are
#: fractions of the section length so every layout can use them.
GROUP_CASES = {
    "spread": ([0.05, 0.2, 0.3, 0.45, 0.6, 0.7, 0.85, 0.95], 0.45),
    "only-after": ([0.8, 0.85, 0.9, 0.95], 0.9),
    "only-before": ([0.05, 0.1, 0.15, 0.2], 0.1),
    "fewer-than-group": ([0.5, 0.6], 0.5),
    "alone": ([0.3], 0.3),
    "section-edges": ([0.0, 0.5, 1.0], 0.5),
}


@pytest.mark.parametrize("variant_cls", [FastVerDiNode, SecureVerDiNode, CompromiseVerDiNode])
@pytest.mark.parametrize("layout_name", sorted(GROUP_LAYOUTS))
@pytest.mark.parametrize("section_case", ["first", "middle", "last"])
@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_group_view_equals_per_key_reference(variant_cls, layout_name, section_case, case):
    layout = GROUP_LAYOUTS[layout_name]
    num = layout.num_sections
    section = {"first": 0, "middle": num // 2, "last": num - 1}[section_case]
    length = layout.section_length
    lo = section * length
    fractions, own = GROUP_CASES[case]
    in_section = [lo + min(length - 1, int(f * length)) for f in fractions]
    node_id = in_section[fractions.index(own)]
    wrap = layout.space.wrap
    # Neighbours just across both section boundaries (the lists of a
    # node near an edge hold them; the selection must drop them).
    outside = [wrap(lo - 1), wrap(lo - 7), wrap(lo + length), wrap(lo + length + 5)]
    stale = in_section[:2]
    layer = group_layer(variant_cls, layout, node_id, in_section, outside, stale)
    assert_groups_match(layer, probe_keys(layout, section, in_section))


@pytest.mark.parametrize("layout_name", sorted(GROUP_LAYOUTS))
def test_group_view_equals_reference_on_random_tables(layout_name):
    layout = GROUP_LAYOUTS[layout_name]
    length = layout.section_length
    wrap = layout.space.wrap
    rng = random.Random(13)
    for variant_cls in (FastVerDiNode, SecureVerDiNode):
        for _ in range(60):
            section = rng.randrange(layout.num_sections)
            lo = section * length
            in_section = rng.sample(range(lo, lo + length), rng.randint(1, 12))
            outside = [
                wrap(lo + rng.choice((-1, 1)) * rng.randrange(1, length))
                for _ in range(rng.randint(0, 4))
            ]
            stale = rng.sample(in_section, rng.randint(0, len(in_section)))
            layer = group_layer(
                variant_cls, layout, in_section[0], in_section, outside, stale
            )
            keys = probe_keys(layout, section, in_section)
            keys += [rng.getrandbits(32) for _ in range(20)]
            assert_groups_match(layer, keys)
