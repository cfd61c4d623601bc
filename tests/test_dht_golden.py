"""Recorded-golden guard for DHT replica maintenance.

The fig6/7 golden pins per-operation latency and bytes only, and those
exclude background replication.  This guard pins the rest of each
seed cell — logical events, messages and bytes per traffic category
(``replication`` included) and a sha256 over every node's stored keys
at cell end — on **both** live-protocol engines, so a change to which
replicas a node offers or pushes to cannot pass silently.
``scripts/capture_dht_golden.py`` wrote the file; see its docstring
for when regenerating is legitimate.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.dht_ops import DhtExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "golden" / "dht_maintenance_golden.json"


def _load_capture():
    spec = importlib.util.spec_from_file_location(
        "capture_dht_golden", ROOT / "scripts" / "capture_dht_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


capture = _load_capture()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_system(golden):
    assert sorted(golden["cells"]) == sorted(capture.DHT_SYSTEMS)
    for cell in golden["cells"].values():
        # A golden with no replication traffic would pin nothing.
        assert cell["messages"]["replication"] > 0
        assert cell["bytes"]["replication"] > 0


@pytest.mark.parametrize("engine", ["object", "columnar"])
@pytest.mark.parametrize("system", capture.DHT_SYSTEMS)
def test_dht_maintenance_bit_identical(golden, system, engine):
    config = replace(DhtExperimentConfig(**golden["dht_config"]), engine=engine)
    assert capture.maintenance_record(config, system) == golden["cells"][system]
