"""Concurrent sweeps: several threads sharing ONE runner (the service setup).

The study service drives a single warm ``SweepRunner`` from a pool of worker
threads, so overlapping grids race on the shared LRU, the disk store, and the
stats counters.  These tests pin the contract that makes that safe: results
stay bit-identical to a serial reference, no thread observes a torn cache,
and the stats counters account for every input exactly once.
"""

import json
import threading

import pytest

from repro.hardware.cluster import build_system
from repro.sweep import Scenario, SweepRunner


@pytest.fixture
def system():
    return build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")


def _grid(system, model, batches):
    return [Scenario.inference(system, model, batch_size=batch) for batch in batches]


def _training_grid(system, model, batches):
    # One layer shape for every scenario: the threads race on one layer-graph memo entry.
    return [Scenario.training(system, model, "2-2-2-1", global_batch_size=2 * batch) for batch in batches]


def _run_threads(runner, grids, results, errors):
    """Run each grid on its own thread, all released by one barrier."""
    barrier = threading.Barrier(len(grids))

    def work(slot, scenarios):
        try:
            barrier.wait()
            results[slot] = runner.run_table(scenarios)
        except Exception as error:  # noqa: BLE001 -- the assertion reports it
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(slot, grid)) for slot, grid in enumerate(grids)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_two_threads_overlapping_grids_bit_identical(system, tiny_model):
    batches_a = [1, 2, 4]
    batches_b = [2, 4, 8]  # overlaps A on 2 and 4

    # Serial reference on a fresh runner.
    reference = SweepRunner()
    expected_a = reference.run_table(_grid(system, tiny_model, batches_a)).to_json()
    expected_b = reference.run_table(_grid(system, tiny_model, batches_b)).to_json()

    shared = SweepRunner()
    results = [None, None]
    errors = []
    _run_threads(
        shared,
        [_grid(system, tiny_model, batches_a), _grid(system, tiny_model, batches_b)],
        results,
        errors,
    )

    assert errors == []
    assert results[0].to_json() == expected_a
    assert results[1].to_json() == expected_b


def test_concurrent_stats_account_for_every_input(system, tiny_model):
    shared = SweepRunner()
    grids = [
        _grid(system, tiny_model, [1, 2, 4, 2]),  # internal duplicate too
        _grid(system, tiny_model, [2, 4, 8]),
    ]
    total_inputs = sum(len(grid) for grid in grids)
    results = [None, None]
    errors = []
    _run_threads(shared, grids, results, errors)

    assert errors == []
    # Every input is either priced fresh or served from a cache, exactly once.
    # (Overlapping keys may race to a double evaluation; they must never be
    # double-counted for one input or dropped.)
    assert shared.stats.evaluations + shared.stats.cache_hits == total_inputs
    assert shared.stats.evaluations >= 4  # at least the distinct batch sizes
    assert shared.stats.errors == 0

    # A repeat of both grids is now fully warm: zero new evaluations.
    before = shared.stats.evaluations
    for grid in grids:
        shared.run(grid)
    assert shared.stats.evaluations == before


def test_many_threads_hammering_one_grid(system, tiny_model):
    for grid in (_grid, _training_grid):
        shared = SweepRunner()
        grid_batches = [1, 2, 4, 8]
        thread_count = 6
        results = [None] * thread_count
        errors = []
        _run_threads(
            shared,
            [grid(system, tiny_model, grid_batches) for _ in range(thread_count)],
            results,
            errors,
        )

        assert errors == []
        tables = [json.loads(table.to_json()) for table in results]
        assert all(table == tables[0] for table in tables[1:])
        assert shared.stats.evaluations + shared.stats.cache_hits == thread_count * len(grid_batches)


def test_concurrent_threads_share_disk_store(system, tiny_model, tmp_path):
    writer = SweepRunner(disk_cache=str(tmp_path))
    writer.run(_grid(system, tiny_model, [1, 2]))

    # A fresh runner over the same store: concurrent readers hit disk, never price.
    reader = SweepRunner(disk_cache=str(tmp_path))
    results = [None, None]
    errors = []
    _run_threads(
        reader,
        [_grid(system, tiny_model, [1, 2]), _grid(system, tiny_model, [1, 2])],
        results,
        errors,
    )
    assert errors == []
    assert reader.stats.evaluations == 0
    assert reader.stats.cache_hits == 4
