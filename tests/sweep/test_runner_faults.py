"""Tests for the sweep runner's crash tolerance and soft-timeout handling.

Real faults (a worker process dying, an evaluation wedging) are injected
through the test-only environment hooks in
:func:`repro.sweep.scenario.apply_test_fault_hooks` -- workers inherit the
environment, so arming a hook in the parent reaches every pool worker.
"""

import pytest

from repro.hardware.cluster import build_system
from repro.sweep import Scenario, SweepRunner


@pytest.fixture
def system():
    return build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")


def grid(system, tiny_model, count=6):
    return [
        Scenario.inference(system, tiny_model, batch_size=1 + index, tag=f"s{index}")
        for index in range(count)
    ]


def arm_crash_once(monkeypatch, tmp_path, tag):
    monkeypatch.setenv("REPRO_TEST_CRASH_TAG", tag)
    monkeypatch.setenv("REPRO_TEST_CRASH_ONCE", str(tmp_path / "crashed.marker"))


def test_sweep_survives_worker_crash(monkeypatch, tmp_path, system, tiny_model):
    scenarios = grid(system, tiny_model)
    baseline = [r.value.total_latency for r in SweepRunner().run(scenarios)]

    arm_crash_once(monkeypatch, tmp_path, "s3")
    runner = SweepRunner(executor="process", max_workers=2)
    results = runner.run(scenarios)

    assert (tmp_path / "crashed.marker").exists()  # a worker really died
    assert runner.stats.pool_rebuilds == 1
    assert [r.error for r in results] == [None] * len(scenarios)
    assert [r.value.total_latency for r in results] == pytest.approx(baseline)


def test_crash_recovery_does_not_duplicate_recorded_results(
    monkeypatch, tmp_path, system, tiny_model
):
    scenarios = grid(system, tiny_model)
    arm_crash_once(monkeypatch, tmp_path, "s5")
    runner = SweepRunner(executor="process", max_workers=2)
    results = runner.run(scenarios)
    assert len(results) == len(scenarios)
    # Every scenario evaluated exactly once from the runner's point of view:
    # shards whose outcomes landed before the crash are not re-recorded.
    assert runner.stats.evaluations == len(scenarios)


# The stall tests give every scenario its own shard (max_workers == scenario
# count), so only the sleeper's shard is abandoned.  The sleeper is short on
# purpose: an abandoned worker keeps running, and the interpreter waits for
# it at exit.  The window leaves the other shards ample time to fork and
# finish on a loaded host.
STALL_SECONDS = "1.5"
STALL_TIMEOUT = 0.5


def test_stalled_scenario_times_out_as_captured_error(monkeypatch, system, tiny_model):
    scenarios = grid(system, tiny_model, count=3)
    monkeypatch.setenv("REPRO_TEST_SLOW_TAG", "s1")
    monkeypatch.setenv("REPRO_TEST_SLOW_SECONDS", STALL_SECONDS)
    runner = SweepRunner(
        executor="process", max_workers=len(scenarios), capture_errors=True, scenario_timeout=STALL_TIMEOUT
    )
    results = runner.run(scenarios)
    assert runner.stats.timeouts == 1
    stalled = [r for r in results if r.error is not None]
    assert len(stalled) == 1
    assert stalled[0].scenario.tag == "s1"
    assert "stalled past" in str(stalled[0].error)


def test_timeouts_are_transient_not_cached(monkeypatch, tmp_path, system, tiny_model):
    scenarios = grid(system, tiny_model, count=2)
    store = str(tmp_path / "cache")
    monkeypatch.setenv("REPRO_TEST_SLOW_TAG", "s0")
    monkeypatch.setenv("REPRO_TEST_SLOW_SECONDS", STALL_SECONDS)
    first = SweepRunner(
        executor="process",
        max_workers=len(scenarios),
        capture_errors=True,
        scenario_timeout=STALL_TIMEOUT,
        disk_cache=store,
    )
    first.run(scenarios)
    assert first.stats.timeouts == 1

    # The stall was environmental: a later run without it re-evaluates the
    # stalled scenario (nothing was cached) and the rest comes off the disk.
    monkeypatch.delenv("REPRO_TEST_SLOW_TAG")
    second = SweepRunner(capture_errors=True, disk_cache=store)
    results = second.run(scenarios)
    assert [r.error for r in results] == [None, None]
    assert second.stats.evaluations == 1
    assert second.stats.disk_hits == 1
