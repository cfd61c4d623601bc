#!/usr/bin/env python3
"""Record the Fig. 8 golden worm outcomes for the seed workloads.

Both worm engines share one knowledge model (``RoutingKnowledge`` over a
static overlay), so the engine-equivalence suite cannot notice a change
in *what* a worm learns from the routing state: both engines would move
together.  This file pins the outcome itself.  For every Fig. 8
scenario at two seeded scales it records the final infection count,
scans, events, the number of infection-curve points and a sha256 of
the curve, and ``tests/test_fig8_golden.py`` compares every later run
against it.

Regenerating the file is only legitimate when an *intentional*
semantics change lands (a knowledge-model fix, a new default); rerun::

    PYTHONPATH=src python scripts/capture_fig8_golden.py

and commit the diff together with the change that explains it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.worm import SCENARIOS, WormScenarioConfig, run_scenario  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "fig8_golden.json"

#: The pinned seed workloads (those of the engine-equivalence suite).
CONFIGS = {
    "1k": dict(num_nodes=1000, num_sections=64, seed=3),
    "10k": dict(num_nodes=10_000, num_sections=256, seed=11),
}

#: Sim-time horizons long enough for every scenario to go quiescent at
#: these scales (the slow verme-* curves are harvester-rate-bound).
HORIZONS = {
    "chord": 200.0,
    "verme": 200.0,
    "verme-secure": 200.0,
    "verme-fast": 1500.0,
    "verme-compromise": 15000.0,
}


def curve_sha256(points) -> str:
    """A digest of the ``(time, count)`` curve; floats via ``repr``."""
    text = ";".join(f"{t!r},{c}" for t, c in points)
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(scale: str, scenario: str) -> dict:
    config = WormScenarioConfig(**CONFIGS[scale])
    result = run_scenario(scenario, config, until=HORIZONS[scenario])
    return {
        "final_infected": result.final_infected,
        "scans_performed": result.scans_performed,
        "events": result.events,
        "curve_points": len(result.curve.points),
        "curve_sha256": curve_sha256(result.curve.points),
    }


def capture() -> dict:
    return {
        "configs": CONFIGS,
        "horizons": HORIZONS,
        "runs": {
            scale: {scenario: outcome(scale, scenario) for scenario in SCENARIOS}
            for scale in CONFIGS
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
