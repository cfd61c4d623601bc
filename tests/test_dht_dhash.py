"""Integration tests for the DHash baseline DHT over Chord."""

import random

import pytest

from repro.chord.state import NodeInfo
from repro.dht import DhtConfig, DHashNode, block_key
from repro.dht.fragments import FragmentedDHashNode
from repro.ids import IdSpace
from repro.net import NodeAddress

from conftest import stub_overlay_node


def attach_dhash(ring, num_replicas=4):
    layers = [DHashNode(node, DhtConfig(num_replicas=num_replicas)) for node in ring.nodes]
    for layer in layers:
        layer.start()
    return layers


def do_put(ring, layer, value):
    results = []
    layer.put(value, results.append)
    ring.sim.run(until=ring.sim.now + 120)
    assert results
    return results[0]


def do_get(ring, layer, key):
    results = []
    layer.get(key, results.append)
    ring.sim.run(until=ring.sim.now + 120)
    assert results
    return results[0]


def test_put_get_roundtrip(chord_ring):
    layers = attach_dhash(chord_ring)
    value = b"the quick brown fox" * 10
    put = do_put(chord_ring, layers[0], value)
    assert put.ok
    assert put.key == block_key(chord_ring.config.space, value)
    got = do_get(chord_ring, layers[-1], put.key)
    assert got.ok
    assert got.value == value


def test_get_from_any_client(chord_ring):
    layers = attach_dhash(chord_ring)
    value = b"shared-data"
    put = do_put(chord_ring, layers[3], value)
    rng = random.Random(1)
    for layer in rng.sample(layers, 5):
        got = do_get(chord_ring, layer, put.key)
        assert got.ok and got.value == value


def test_get_missing_key_fails(chord_ring):
    layers = attach_dhash(chord_ring)
    res = do_get(chord_ring, layers[0], 0x12345)
    assert not res.ok
    assert res.error


def test_block_placed_on_key_successors(chord_ring):
    layers = attach_dhash(chord_ring)
    value = b"placement-check"
    put = do_put(chord_ring, layers[0], value)
    chord_ring.sim.run(until=chord_ring.sim.now + 5)  # background pushes
    holders = {
        layer.node.node_id for layer in layers if put.key in layer.store
    }
    expected = {
        e.node_id for e in chord_ring.overlay.replica_group(put.key, 4)
    }
    assert holders == expected


def test_replication_survives_primary_crash(chord_ring):
    layers = attach_dhash(chord_ring)
    value = b"durable-block"
    put = do_put(chord_ring, layers[0], value)
    chord_ring.sim.run(until=chord_ring.sim.now + 5)
    owner = chord_ring.overlay.at(chord_ring.overlay.owner(put.key).index)
    chord_ring.node_for(owner.node_id).crash()
    chord_ring.sim.run(until=chord_ring.sim.now + 120)  # stabilize routing
    live_layers = [l for l in layers if l.node.alive]
    got = do_get(chord_ring, random.Random(2).choice(live_layers), put.key)
    assert got.ok and got.value == value


def test_data_stabilization_heals_new_owner(chord_ring):
    """After the owner crashes, periodic sync pushes the block to the
    node that became responsible."""
    layers = attach_dhash(chord_ring)
    value = b"healing-check"
    put = do_put(chord_ring, layers[0], value)
    chord_ring.sim.run(until=chord_ring.sim.now + 5)
    owner = chord_ring.overlay.at(chord_ring.overlay.owner(put.key).index)
    chord_ring.node_for(owner.node_id).crash()
    # Run long enough for stabilization + data sync rounds.
    chord_ring.sim.run(until=chord_ring.sim.now + 400)
    live = sorted(n.node_id for n in chord_ring.nodes if n.alive)
    import bisect

    new_owner_id = live[bisect.bisect_left(live, put.key) % len(live)]
    new_owner_layer = next(l for l in layers if l.node.node_id == new_owner_id)
    assert put.key in new_owner_layer.store


def test_op_results_carry_latency_and_tags(chord_ring):
    layers = attach_dhash(chord_ring)
    put = do_put(chord_ring, layers[0], b"tagged")
    assert put.latency_s > 0
    assert put.op_tag > 0
    got = do_get(chord_ring, layers[1], put.key)
    assert got.op_tag != put.op_tag
    assert chord_ring.network.accounting.bytes_for_op(got.op_tag) > 0


def test_background_replication_not_tagged(chord_ring):
    layers = attach_dhash(chord_ring)
    put = do_put(chord_ring, layers[0], b"untagged-replication")
    chord_ring.sim.run(until=chord_ring.sim.now + 5)
    acct = chord_ring.network.accounting
    assert acct.category_bytes("replication") > 0
    # The op tag covers only lookup + primary store, far less than
    # total replication traffic would add.
    assert acct.bytes_for_op(put.op_tag) < acct.total_bytes


# -- replica-group selection: exact equality with the per-key construction --


def reference_group_view(self, key):
    """The per-key group construction that the per-round candidate step
    replaced, kept verbatim as the oracle for ``_group_view``."""
    node = self.node
    pred = node.predecessor
    if pred is not None and node.space.in_half_open(
        key, pred.node_id, node.node_id
    ):
        return [node.info] + node.successors.entries[
            : self.config.num_replicas - 1
        ]
    # Not provably the owner: stay quiet and let the owner push.
    return []


GROUP_SPACE = IdSpace(16)


def dhash_layer(node_id, pred_id, succ_ids, cls=DHashNode, num_replicas=4):
    succ = [NodeInfo(i, NodeAddress(1 + n)) for n, i in enumerate(succ_ids)]
    pred = None if pred_id is None else NodeInfo(pred_id, NodeAddress(99))
    node = stub_overlay_node(GROUP_SPACE, node_id, successors=succ, predecessor=pred)
    return cls(node, DhtConfig(num_replicas=num_replicas))


def _probe_keys(node_id, pred_id):
    wrap = GROUP_SPACE.wrap
    spots = {node_id, 0, GROUP_SPACE.mask, (node_id + GROUP_SPACE.mask) // 2}
    if pred_id is not None:
        spots.add(pred_id)
    return sorted({wrap(s + d) for s in spots for d in (-1, 0, 1)})


@pytest.mark.parametrize(
    "node_id, pred_id, succ_ids",
    [
        (5000, None, [6000, 7000, 8000]),  # no predecessor: never a member
        (5000, 4000, [6000, 7000, 8000, 9000, 10000]),  # more successors than n-1
        (5000, 4000, [6000]),  # fewer successors than n-1
        (5000, 4000, []),
        (100, 60000, [200, 300, 400]),  # (pred, self] wraps through 0
        (65535, 65000, [0, 10, 20]),  # the node sits on the last id
        (5000, 5000, [5000]),  # single-node ring: owns every key
    ],
)
def test_group_view_equals_per_key_reference(node_id, pred_id, succ_ids):
    layer = dhash_layer(node_id, pred_id, succ_ids)
    candidates = layer._group_candidates()
    keys = _probe_keys(node_id, pred_id)
    members = [k for k in keys if reference_group_view(layer, k)]
    if pred_id is None:
        assert members == []
    elif pred_id != node_id:
        # Both sides of (pred, self] are probed.
        assert 0 < len(members) < len(keys)
    for key in keys:
        assert layer._group_view(candidates, key) == reference_group_view(
            layer, key
        ), key


def test_fragmented_dhash_group_view_is_empty():
    layer = dhash_layer(5000, 4000, [6000, 7000], cls=FragmentedDHashNode, num_replicas=6)
    candidates = layer._group_candidates()
    assert candidates is None
    assert layer._group_view(candidates, 4500) == []
