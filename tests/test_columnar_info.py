"""``ColumnarEngine.info_of``: one shared, immutable NodeInfo per row."""

from repro.chord import OverlayConfig
from repro.chord.columnar import ColumnarEngine
from repro.chord.columnar_dht import ColumnarDhtEngine, ColumnarNodeAdapter
from repro.chord.state import NodeInfo
from repro.ids import IdSpace
from repro.net import ConstantLatency, Network, NodeAddress
from repro.sim import RngRegistry, Simulator


def _engine(cls, num_nodes=16, seed=5):
    sim = Simulator()
    network = Network(sim, ConstantLatency(num_hosts=num_nodes, one_way=0.02))
    config = OverlayConfig(space=IdSpace(32), num_successors=4)
    engine = cls(sim, network, config)
    rngs = RngRegistry(seed)
    return sim, engine, rngs


def test_info_of_is_memoised_and_equals_a_fresh_info():
    _sim, engine, rngs = _engine(ColumnarEngine)
    engine.build(16, rngs)
    for row in range(16):
        info = engine.info_of(row)
        assert engine.info_of(row) is info
        assert info == NodeInfo(
            engine.node_id[row], NodeAddress(engine.host[row], engine.inc[row])
        )


def test_respawned_row_gets_its_own_info():
    sim, engine, rngs = _engine(ColumnarEngine)
    engine.build(16, rngs)
    before = {row: engine.info_of(row) for row in range(16)}
    engine.start_churn(rngs.stream("churn"), 60.0)
    sim.run(until=600.0)
    assert engine.deaths > 0 and len(engine.node_id) > 16
    for row in range(16, len(engine.node_id)):
        info = engine.info_of(row)
        assert info.node_id == engine.node_id[row]
        assert info.address.incarnation == engine.inc[row] >= 1
        # The host's previous incarnation is a different row whose info
        # (memoised before the churn) is untouched.
        prev = next(
            r for r in range(row - 1, -1, -1)
            if engine.host[r] == engine.host[row]
        )
        assert engine.inc[row] == engine.inc[prev] + 1
        assert engine.info_of(prev).address != info.address
    for row, info in before.items():
        assert engine.info_of(row) is info


def test_neighbor_views_return_fresh_lists():
    _sim, engine, rngs = _engine(ColumnarDhtEngine)
    engine.build_dht(16, rngs)
    adapter: ColumnarNodeAdapter = engine.adapters[0]
    succs = adapter.successors.entries
    expected = list(succs)
    assert succs == [engine.info_of(e[1]) for e in engine.succs[0]]
    succs.clear()
    adapter.predecessors.entries.append(adapter.info)
    adapter.fingers.entries().clear()
    assert adapter.successors.entries == expected
    assert adapter.successors.entries is not adapter.successors.entries
    assert adapter.predecessors.entries == [
        engine.info_of(e[1]) for e in engine.preds[0]
    ]
    assert len(adapter.fingers.entries()) == len(engine.fingers[0])
