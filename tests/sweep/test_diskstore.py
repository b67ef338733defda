"""Tests for the persistent on-disk result store and its runner integration."""

import concurrent.futures
import os
import pickle

import pytest

from repro.sweep import Scenario, SweepRunner
from repro.sweep.diskstore import (
    CACHE_DIR_ENV,
    FORMAT_VERSION,
    DiskResultStore,
    code_fingerprint,
    default_cache_root,
)
from repro.sweep.runner import _resolve_disk_cache


@pytest.fixture
def store(tmp_path):
    return DiskResultStore(root=tmp_path)


def _grid(model, count=4):
    return [Scenario.decode_bottlenecks("A100", model, kv_len=100 + index) for index in range(count)]


# ---------------------------------------------------------------------------
# Store primitives.
# ---------------------------------------------------------------------------


def test_put_get_roundtrip(store):
    assert store.get("abcd") is None
    assert store.put("abcd", value={"x": 1})
    assert store.get("abcd") == ({"x": 1}, None)
    assert store.count() == 1


def test_entries_shard_under_the_fingerprint(store):
    store.put("abcd", value=1)
    path = store.path_for("abcd")
    assert path.exists()
    assert path.parent.name == "ab"
    assert path.parent.parent.name == store.fingerprint
    assert store.fingerprint == code_fingerprint()


def test_corrupted_entry_reads_as_a_miss(store):
    store.put("abcd", value=1)
    store.path_for("abcd").write_bytes(b"not a pickle at all")
    assert store.get("abcd") is None


def test_truncated_entry_reads_as_a_miss(store):
    store.put("abcd", value=list(range(1000)))
    path = store.path_for("abcd")
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    assert store.get("abcd") is None


def test_foreign_record_shapes_read_as_a_miss(store):
    path = store.path_for("abcd")
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"weird": "shape"}))
    assert store.get("abcd") is None
    path.write_bytes(pickle.dumps((FORMAT_VERSION + 1, "value", None)))  # future format
    assert store.get("abcd") is None


def test_fingerprint_change_orphans_old_entries(tmp_path):
    old = DiskResultStore(root=tmp_path, fingerprint="aaaa")
    old.put("abcd", value=1)
    new = DiskResultStore(root=tmp_path, fingerprint="bbbb")
    assert new.get("abcd") is None  # a new code version never serves old results
    assert old.get("abcd") == (1, None)  # ...but does not delete them either


def test_unpicklable_values_fail_softly(store):
    assert not store.put("abcd", value=lambda: None)
    assert store.get("abcd") is None
    assert store.count() == 0


def test_cache_dir_env_overrides_the_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
    assert default_cache_root() == tmp_path / "elsewhere"
    assert DiskResultStore().root == tmp_path / "elsewhere"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert str(default_cache_root()).endswith(os.path.join(".cache", "repro"))


# ---------------------------------------------------------------------------
# Runner integration.
# ---------------------------------------------------------------------------


def test_second_runner_prices_nothing(tmp_path, tiny_model):
    scenarios = _grid(tiny_model)
    first = SweepRunner(disk_cache=tmp_path)
    first_results = first.run(scenarios)
    assert first.stats.evaluations == len(scenarios)
    assert first.stats.disk_hits == 0

    second = SweepRunner(disk_cache=tmp_path)  # fresh process stand-in: empty LRU
    second_results = second.run(scenarios)
    assert second.stats.evaluations == 0
    assert second.stats.disk_hits == len(scenarios)
    assert second.stats.cache_hits == len(scenarios)
    for ours, theirs in zip(second_results, first_results):
        assert ours.value == theirs.value
        assert ours.from_cache


def test_disk_hits_promote_into_the_lru(tmp_path, tiny_model):
    scenario = _grid(tiny_model, count=1)[0]
    SweepRunner(disk_cache=tmp_path).run([scenario])
    runner = SweepRunner(disk_cache=tmp_path)
    runner.run([scenario])
    runner.run([scenario])
    assert runner.stats.disk_hits == 1  # the repeat was served from memory


def test_captured_errors_persist_and_are_served_from_disk(tmp_path):
    bad = Scenario.inference("A100", "Llama2-70B", tensor_parallel=1)
    first = SweepRunner(disk_cache=tmp_path, capture_errors=True)
    first_results = first.run([bad])
    assert first.stats.errors == 1

    second = SweepRunner(disk_cache=tmp_path, capture_errors=True)
    second_results = second.run([bad])
    assert second.stats.evaluations == 0
    assert second.stats.disk_hits == 1
    assert second.stats.errors == 0  # nothing fresh failed; the error was replayed
    assert second_results[0].error == first_results[0].error


def test_corrupted_store_reprices_instead_of_crashing(tmp_path, tiny_model):
    scenarios = _grid(tiny_model, count=2)
    first = SweepRunner(disk_cache=tmp_path)
    first_results = first.run(scenarios)
    store = first.disk_cache
    store.path_for(scenarios[0].cache_key()).write_bytes(b"garbage")

    second = SweepRunner(disk_cache=tmp_path)
    second_results = second.run(scenarios)
    assert second.stats.evaluations == 1  # only the damaged entry re-priced
    assert second.stats.disk_hits == 1
    assert [r.value for r in second_results] == [r.value for r in first_results]
    # The re-evaluation healed the damaged entry.
    assert store.get(scenarios[0].cache_key()) is not None


def _price_into_store(root, scenarios):
    """One writer process: a fresh runner pricing into the shared store."""
    runner = SweepRunner(disk_cache=root)
    runner.run(scenarios)
    return runner.stats.evaluations, runner.stats.disk_hits


def test_process_pool_writers_share_one_store(tmp_path, tiny_model):
    # Separate `repro run` / `repro serve` processes may write one store at
    # once; overlapping halves let both processes write the middle keys.
    scenarios = _grid(tiny_model, count=6)
    halves = [scenarios[:4], scenarios[2:]]
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        counts = list(pool.map(_price_into_store, [tmp_path, tmp_path], halves))
    # A writer that starts late reads the shared keys the other one wrote.
    assert [evaluations + disk_hits for evaluations, disk_hits in counts] == [4, 4]
    assert len(scenarios) <= sum(evaluations for evaluations, _ in counts) <= 8

    reader = SweepRunner(disk_cache=tmp_path)
    reader_results = reader.run(scenarios)
    assert reader.stats.evaluations == 0
    assert reader.stats.disk_hits == len(scenarios)
    assert reader.disk_cache.count() == len(scenarios)
    for ours, theirs in zip(reader_results, SweepRunner().run(scenarios)):
        assert ours.value == theirs.value


def test_resolve_disk_cache_forms(tmp_path):
    assert _resolve_disk_cache(None) is None
    assert _resolve_disk_cache(False) is None
    built = DiskResultStore(root=tmp_path)
    assert _resolve_disk_cache(built) is built
    from_path = _resolve_disk_cache(tmp_path / "sub")
    assert isinstance(from_path, DiskResultStore)
    assert from_path.root == tmp_path / "sub"


def test_disk_cache_true_opens_the_default_store(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "default-root"))
    runner = SweepRunner(disk_cache=True)
    assert runner.disk_cache is not None
    assert runner.disk_cache.root == tmp_path / "default-root"


def test_disk_cache_off_by_default(tiny_model):
    runner = SweepRunner()
    assert runner.disk_cache is None


# ---------------------------------------------------------------------------
# Housekeeping: stats / clear / prune.
# ---------------------------------------------------------------------------


def test_stats_report_entries_and_bytes_per_fingerprint(tmp_path):
    current = DiskResultStore(root=tmp_path, fingerprint="current")
    stale = DiskResultStore(root=tmp_path, fingerprint="stale")
    current.put("aa11", value=1)
    current.put("bb22", value=2)
    stale.put("cc33", value=3)
    report = current.stats()
    assert set(report) == {"current", "stale"}
    assert report["current"]["entries"] == 2
    assert report["stale"]["entries"] == 1
    assert report["current"]["bytes"] > 0
    assert report["current"]["current"] == 1
    assert report["stale"]["current"] == 0
    assert current.fingerprints() == ["current", "stale"]


def test_stats_on_empty_root(tmp_path):
    store = DiskResultStore(root=tmp_path / "missing")
    assert store.stats() == {}
    assert store.fingerprints() == []


def test_clear_empties_only_the_current_fingerprint(tmp_path):
    current = DiskResultStore(root=tmp_path, fingerprint="current")
    stale = DiskResultStore(root=tmp_path, fingerprint="stale")
    current.put("aa11", value=1)
    current.put("bb22", value=2)
    stale.put("cc33", value=3)
    assert current.clear() == 2
    assert current.count() == 0
    assert current.get("aa11") is None
    assert stale.count() == 1
    assert current.clear() == 0  # idempotent


def test_prune_drops_stale_fingerprints(tmp_path):
    current = DiskResultStore(root=tmp_path, fingerprint="current")
    for name in ("old1", "old2"):
        DiskResultStore(root=tmp_path, fingerprint=name).put("aa11", value=1)
    current.put("bb22", value=2)
    assert current.prune() == ["old1", "old2"]
    assert current.fingerprints() == ["current"]
    assert current.count() == 1
    assert current.prune(keep_current=False) == ["current"]
    assert current.fingerprints() == []


# ---------------------------------------------------------------------------
# Degraded writes: environmental failures fall back to in-memory caching.
# ---------------------------------------------------------------------------


def _failing_replace(*args, **kwargs):
    raise OSError(28, "No space left on device")


def test_write_failures_warn_once_and_keep_the_sweep_alive(store, monkeypatch, caplog):
    import logging

    monkeypatch.setattr(os, "replace", _failing_replace)
    with caplog.at_level(logging.WARNING, logger="repro.sweep.diskstore"):
        assert store.put("aa11", value=1) is False
        assert store.put("bb22", value=2) is False
    warnings = [r for r in caplog.records if "disk result store write" in r.message]
    assert len(warnings) == 1  # one warning, however many puts fail


def test_writes_disable_after_consecutive_failures(store, monkeypatch):
    from repro.sweep.diskstore import WRITE_FAILURE_LIMIT

    monkeypatch.setattr(os, "replace", _failing_replace)
    for index in range(WRITE_FAILURE_LIMIT):
        assert not store.writes_disabled
        store.put(f"aa{index}", value=index)
    assert store.writes_disabled
    monkeypatch.undo()
    # Disabled is for the store's lifetime: even a healthy disk is not retried...
    assert store.put("bb00", value=1) is False
    assert store.count() == 0
    # ...but reads keep working (a fresh store sees the same directory).
    healthy = DiskResultStore(root=store.root)
    healthy.put("cc00", value=3)
    assert store.get("cc00") == (3, None)


def test_one_write_success_resets_the_failure_count(store, monkeypatch):
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", _failing_replace)
    store.put("aa11", value=1)
    store.put("bb22", value=2)
    monkeypatch.setattr(os, "replace", real_replace)
    assert store.put("cc33", value=3) is True  # success resets the streak
    monkeypatch.setattr(os, "replace", _failing_replace)
    store.put("dd44", value=4)
    store.put("ee55", value=5)
    assert not store.writes_disabled  # never hit the consecutive limit


def test_unpicklable_values_do_not_count_toward_degrade(store):
    for _ in range(10):
        assert store.put("aa11", value=lambda: None) is False
    assert not store.writes_disabled
    assert store.put("bb22", value=2) is True


def test_degraded_store_keeps_runner_results_in_memory(tmp_path, tiny_model, monkeypatch):
    store = DiskResultStore(root=tmp_path)
    monkeypatch.setattr(os, "replace", _failing_replace)
    runner = SweepRunner(disk_cache=store)
    scenarios = _grid(tiny_model)
    first = runner.run(scenarios)
    second = runner.run(scenarios)
    assert runner.stats.evaluations == len(scenarios)  # LRU carried the re-run
    assert [r.value for r in second] == [r.value for r in first]
    assert store.count() == 0  # nothing landed on disk
