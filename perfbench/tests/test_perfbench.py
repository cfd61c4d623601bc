"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import signal

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hooks import LayerObservations, Probe, install_layer_spans  # noqa: E402
from ledger import PER_LAYER, layer_times, traced_metrics  # noqa: E402
from repro.analysis.stats import LookupStats  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from spans import Patcher, SpanRecorder, chrome_trace, outermost_totals, self_times  # noqa: E402


def _iterate(name, seed, traced=False):
    rec = SpanRecorder()
    obs = LayerObservations()
    probe = Probe(rec)
    patch = Patcher()
    probe.install(patch)
    if traced:
        install_layer_spans(patch, rec, obs)
    try:
        out = workloads.run_iteration(name, seed, probe)
    finally:
        patch.restore()
    return out, rec, obs


# -- percentile rule -------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        checks.checked_percentile([float(i) for i in range(999)], 99.0)
    values = [float(i) for i in range(1000)]
    assert checks.checked_percentile(values, 99.0) == pytest.approx(989.01)


def test_p50_needs_twenty_samples():
    with pytest.raises(ValueError):
        checks.checked_percentile([1.0] * 19, 50.0)
    assert checks.checked_percentile([3.0, 1.0] * 10, 50.0) == 2.0


# -- op_fail_ratio ---------------------------------------------------------

def test_shed_lookups_count_as_failed():
    stats = LookupStats()
    for _ in range(6):
        stats.record(True, 0.5, 3)
    for _ in range(3):  # shed at admission: the initiator fails fast
        stats.record(False, 0.0, 0)
    stats.record(False, 20.0, 5)  # timed out
    assert checks.op_fail_ratio(stats.total, stats.successes) == pytest.approx(0.4)


def test_op_fail_ratio_refuses_zero_attempts():
    with pytest.raises(ValueError):
        checks.op_fail_ratio(0, 0)


# -- self time -------------------------------------------------------------

NESTED = [
    ("sim.run", 0.0, 10.0, -1, "c"),
    ("rpc.call", 1.0, 4.0, 0, "c"),
    ("net.send", 2.0, 3.0, 1, "c"),
    ("rpc.call", 5.0, 9.0, 0, "c"),
    ("rpc.call", 6.0, 7.0, 3, "c"),  # same-layer recursion
]


def test_self_time_subtracts_children():
    assert self_times(NESTED) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])


def test_self_time_clips_overlapping_children():
    spans = [
        ("a.x", 0.0, 10.0, -1, ""),
        ("b.y", 2.0, 6.0, 0, ""),
        ("b.z", 4.0, 12.0, 0, ""),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_layer_busy_counts_recursion_once():
    times = layer_times(NESTED)
    assert times["rpc"]["busy_s"] == pytest.approx(7.0)
    assert times["rpc"]["self_s"] == pytest.approx(6.0)
    assert times["sim"]["self_s"] == pytest.approx(3.0)
    assert outermost_totals(NESTED, lambda n: n)["rpc.call"] == pytest.approx(7.0)


def test_chrome_trace_is_complete_events_in_microseconds():
    events = chrome_trace(NESTED)["traceEvents"]
    assert [e["ph"] for e in events] == ["X"] * len(NESTED)
    assert events[1]["ts"] == pytest.approx(1e6)
    assert events[1]["dur"] == pytest.approx(3e6)
    assert events[2]["args"]["parent"] == 1


# -- reference-second scaling ----------------------------------------------

def _timeline():
    """Samples of 1, 2, 4 and 2 ms at t = 0, 1, 2 and 3 s, the handler
    having spent 0.5 s by t = 2.5."""
    clock = refclock.Sampler()
    clock.at = [0.0, 1.0, 2.0, 3.0]
    clock.took = [0.001, 0.002, 0.004, 0.002]
    return clock


def test_scaled_time_uses_the_samples_taken_inside_the_interval():
    clock = _timeline()
    a, b = (0.5, 1, 0.0), (2.5, 3, 0.5)  # holds the 2 and 4 ms samples
    assert clock.ref_s(a, b) == pytest.approx(0.003)
    assert clock.host_s(a, b) == pytest.approx(1.5)
    assert clock.scaled_s(a, b) == pytest.approx(1.5 * refclock.REF_NOMINAL_S / 0.003)


def test_a_short_interval_uses_the_samples_around_it():
    clock = _timeline()
    a, b = (1.2, 2, 0.1), (1.3, 2, 0.1)
    assert clock.ref_s(a, b) == pytest.approx(0.003)  # the 2 and 4 ms samples
    assert clock.host_s(a, b) == pytest.approx(0.1)


def test_the_timer_samples_during_an_iteration_and_is_disarmed_after():
    handler = signal.getsignal(signal.SIGALRM)
    out, _rec, _obs = _iterate("flash_crowd", 3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert out.host_run_s > 0 and out.run_s > 0 and out.ref_s > 0
    assert out.host_setup_s + out.host_run_s <= out.host_wall_s


# -- output checks ---------------------------------------------------------

def _outcome(**kw):
    out = workloads.Outcome("lookup_churn", 0, events=1000)
    for key, value in kw.items():
        setattr(out, key, value)
    return out


def test_checks_reject_zero_lookups():
    problems = checks.check_outcome(_outcome(attempted=0, succeeded=0))
    assert any("no client operations" in p for p in problems)


def test_checks_reject_nan_latency():
    lat = [0.5] * 1999 + [math.nan]
    problems = checks.check_outcome(
        _outcome(attempted=2000, succeeded=2000, latencies=lat)
    )
    assert any("non-finite" in p for p in problems)


def test_checks_reject_too_few_successes_for_p99():
    problems = checks.check_outcome(
        _outcome(attempted=999, succeeded=999, latencies=[0.5] * 999)
    )
    assert any("p99" in p for p in problems)


def test_checks_accept_a_sane_outcome():
    out = _outcome(attempted=1200, succeeded=1100, latencies=[0.5] * 1100,
                   sim={"sim_maint_bytes_per_node_s": 300.0})
    assert checks.check_outcome(out) == []


def test_worm_range_check():
    out = workloads.Outcome("worm_outbreak", 0, events=10,
                            problems=["chord: 0 infected of 10 vulnerable"])
    assert checks.check_outcome(out)


# -- the program under test ------------------------------------------------

def test_flash_crowd_reproduces_the_committed_shed_arm():
    """The overload experiment's defaults at seed 0 (BENCH_overload.json)."""
    out, _rec, _obs = _iterate("flash_crowd", 0)
    assert (out.attempted, out.succeeded) == (22462, 12060)
    sim = checks.sim_metrics(out)
    assert sim["sim_latency_p99_s"] == pytest.approx(6.620392215617306, abs=0)
    assert checks.check_outcome(out) == []


def test_worm_chord_reproduces_the_committed_record(monkeypatch):
    """Worm ``chord`` at 100k nodes, seed 7 (BENCH_worm100k.json)."""
    monkeypatch.setattr(workloads, "WORM_SCENARIOS", ("chord",))
    out, _rec, _obs = _iterate("worm_outbreak", 7)
    assert out.sim["sim_chord_infected"] == 50075
    assert out.counts["worm.vulnerable"] == 50082
    assert checks.check_outcome(out) == []


def test_tracing_does_not_perturb_the_simulation():
    plain, _rec, _obs = _iterate("flash_crowd", 3)
    traced, rec, obs = _iterate("flash_crowd", 3, traced=True)
    assert checks.fingerprint(plain) == checks.fingerprint(traced)
    assert rec.calls["admission.admit"] > 0
    assert obs.arrivals > obs.spike_arrivals > 0
    metrics = traced_metrics(traced, rec.spans(), rec.calls, obs)
    assert set(metrics) == {name for name, _unit in PER_LAYER}
    assert metrics["chord.lookups"] == traced.attempted
    assert 0 < metrics["admission.accept_ratio"] < 1


def test_wrappers_are_removed_after_an_iteration():
    original = Simulator.__dict__["run"]
    _iterate("flash_crowd", 3, traced=True)
    assert Simulator.__dict__["run"] is original


# -- BENCHMARK.json --------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _better) in run.HOST_METRICS.items()
    }
    for metric in spec["end_to_end"]:
        assert metric["better"] == run.HOST_METRICS[metric["name"]][1]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_missing_sources_exit_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "flash_crowd", "--seed", "1",
                     "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
