"""``scripts/compare_bench.py`` refuses records that show no work."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import compare_bench  # noqa: E402


def _record(**metrics):
    return {
        "name": "fig5_synthetic",
        "schema_version": 1,
        "wall_clock_s": 1.5,
        "events": 1000,
        "events_per_s": 1000 / 1.5,
        "peak_rss_kib": 1024,
        "seed": 0,
        "machine": {},
        "parameters": {"num_nodes": 10},
        "metrics": metrics,
    }


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_check_accepts_a_record_with_work(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ok.json",
        _record(lookups=120.0, mean_latency_s=0.4, failure_rate=0.0),
    )
    assert compare_bench.main(["--check", path]) == 0
    assert "ok:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "metrics, events, reason",
    [
        (dict(lookups=0.0, mean_latency_s=0.4, failure_rate=0.0), 1000, "lookups"),
        (dict(lookups=5.0, mean_latency_s=float("nan"), failure_rate=0.0), 1000,
         "mean_latency_s"),
        (dict(lookups=5.0, mean_latency_s=0.4, failure_rate=float("nan")), 1000,
         "failure_rate"),
        (dict(**{"shed.lookups": 0.0}), 1000, "shed.lookups"),
        (dict(lookups=5.0), 0, "no kernel events"),
    ],
)
def test_check_rejects_zero_work_records(tmp_path, capsys, metrics, events, reason):
    record = _record(**metrics)
    record["events"] = events
    path = _write(tmp_path, "stale.json", record)
    assert compare_bench.main(["--check", path]) == 2
    err = capsys.readouterr().err
    assert "shows no work" in err and reason in err


def test_zero_work_baseline_cannot_gate(tmp_path):
    good = _record(lookups=120.0, mean_latency_s=0.4, failure_rate=0.0)
    stale = _record(lookups=0.0, mean_latency_s=float("nan"), failure_rate=float("nan"))
    base = _write(tmp_path, "base.json", stale)
    cur = _write(tmp_path, "cur.json", good)
    assert compare_bench.main([base, cur]) == 2


def test_committed_records_show_work():
    paths = sorted(str(p) for p in REPO_ROOT.glob("BENCH_*.json"))
    assert paths
    assert compare_bench.main(["--check", *paths]) == 0
