"""Recorded-golden guard for the Fig. 8 worm outcomes.

Both worm engines read their targets from the same knowledge model, so
the engine-equivalence suite cannot see a change in what a worm learns
from the routing state.  This file can: on the pinned seed workloads
every scenario's final infection count, scans, events and infection
curve must match the records ``scripts/capture_fig8_golden.py`` wrote
(see its docstring for when regenerating is legitimate).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.worm import SCENARIOS, WormScenarioConfig, run_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "fig8_golden.json"


def curve_sha256(points) -> str:
    text = ";".join(f"{t!r},{c}" for t, c in points)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_scenario(golden):
    for scale in ("1k", "10k"):
        assert sorted(golden["runs"][scale]) == sorted(SCENARIOS)


@pytest.mark.parametrize("scale", ["1k", "10k"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fig8_outcome_bit_identical(golden, scale, scenario):
    config = WormScenarioConfig(**golden["configs"][scale])
    result = run_scenario(scenario, config, until=golden["horizons"][scenario])
    assert {
        "final_infected": result.final_infected,
        "scans_performed": result.scans_performed,
        "events": result.events,
        "curve_points": len(result.curve.points),
        "curve_sha256": curve_sha256(result.curve.points),
    } == golden["runs"][scale][scenario]
