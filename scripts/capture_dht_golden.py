#!/usr/bin/env python3
"""Record the DHT replica-maintenance golden for the fig6/7 seed cells.

``tests/golden/fig567_golden.json`` pins per-operation latency and
bytes, which exclude background replication (the paper excludes it
too), so a change to *which* replicas a node offers or pushes to during
maintenance would pass it unnoticed.  This file pins the rest of the
cell: the logical event count, the messages and bytes sent per
traffic category (``replication`` included) and a sha256 over every
node's sorted stored keys at cell end.  ``tests/test_dht_golden.py``
asserts it on both live-protocol engines.

The cell's ``Network`` and DHT layers are picked up by wrapping their
constructors for the duration of one cell, so ``run_dht_cell`` itself
is untouched.

Regenerating the file is only legitimate when an *intentional*
semantics change lands (a placement fix, a new default); rerun::

    PYTHONPATH=src python scripts/capture_dht_golden.py

and commit the diff together with the change that explains it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
# perf_common owns the constructor-capture helper.
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "perf"))

from perf_common import capturing  # noqa: E402
from repro.dht.base import DhtNode  # noqa: E402
from repro.experiments.dht_ops import (  # noqa: E402
    DhtExperimentConfig,
    run_dht_cell_instrumented,
)
from repro.net.network import Network  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "dht_maintenance_golden.json"

#: The fig6/7 seed workload of ``capture_fig567_golden.py``.
DHT_CONFIG = dict(
    num_nodes=64, num_sections=8, num_puts=12, num_gets=12, seed=3
)
DHT_SYSTEMS = ("dhash", "fast-verdi", "secure-verdi", "compromise-verdi")


def stores_sha256(layers) -> str:
    """sha256 over one line per node (its id and sorted stored keys),
    lines sorted, so the hash is independent of layer build order."""
    lines = sorted(
        f"{layer.node.node_id}:{','.join(map(str, sorted(layer.store.keys())))}"
        for layer in layers
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def maintenance_record(config: DhtExperimentConfig, system: str) -> dict:
    """Run one cell and return what the golden pins for it."""
    networks: list = []
    layers: list = []
    with capturing(Network, networks), capturing(DhtNode, layers):
        _result, events = run_dht_cell_instrumented(config, system)
    (network,) = networks
    acct = network.accounting
    return {
        "events": events,
        "messages": dict(sorted(acct.messages_by_category.items())),
        "bytes": dict(sorted(acct.bytes_by_category.items())),
        "stores_sha256": stores_sha256(layers),
    }


def capture() -> dict:
    config = DhtExperimentConfig(**DHT_CONFIG)
    return {
        "dht_config": DHT_CONFIG,
        "cells": {
            system: maintenance_record(config, system) for system in DHT_SYSTEMS
        },
    }


def main() -> int:
    golden = capture()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
