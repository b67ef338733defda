"""Batched collective pricing: bit-for-bit scalar equivalence and interning."""

import pytest

from repro.comm.collectives import CollectiveAlgorithm
from repro.comm.fabric import (
    CollectiveBatch,
    CollectiveModel,
    clear_collective_model_cache,
    shared_collective_model,
)
from repro.hardware.cluster import build_system
from repro.units import MIB
from repro.workload.operators import CollectiveKind, CommunicationOp

ALL_KINDS = [
    CollectiveKind.ALL_REDUCE,
    CollectiveKind.ALL_GATHER,
    CollectiveKind.REDUCE_SCATTER,
    CollectiveKind.BROADCAST,
    CollectiveKind.POINT_TO_POINT,
]


@pytest.fixture
def system():
    return build_system("A100", num_devices=16, intra_node="NVLink3", inter_node="HDR-IB")


def _op_zoo():
    """A mixed batch covering every kind, scope, and the trivial corners."""
    ops = []
    for kind in ALL_KINDS:
        for scope in ("intra_node", "inter_node"):
            for group in (2, 4, 8):
                for data_bytes in (512.0, 64 * 1024.0, 4 * MIB, 64 * MIB):
                    ops.append(
                        CommunicationOp(
                            name=f"{kind.value}-{scope}-{group}",
                            collective=kind,
                            data_bytes=data_bytes,
                            group_size=group,
                            scope=scope,
                        )
                    )
    # Trivial rows: empty payload and singleton group.
    ops.append(CommunicationOp(name="empty", collective=CollectiveKind.ALL_REDUCE, data_bytes=0.0, group_size=8))
    ops.append(CommunicationOp(name="solo", collective=CollectiveKind.ALL_REDUCE, data_bytes=4 * MIB, group_size=1))
    return ops


@pytest.mark.parametrize("algorithm", list(CollectiveAlgorithm))
def test_evaluate_batch_matches_scalar_exactly(system, algorithm):
    ops = _op_zoo()
    batched_model = CollectiveModel(system=system, algorithm=algorithm)
    scalar_model = CollectiveModel(system=system, algorithm=algorithm)
    times = batched_model.evaluate_batch(CollectiveBatch.from_ops(ops)).tolist()
    for op, batched_time in zip(ops, times):
        assert batched_time == scalar_model.time(op), op


def test_time_memoizes_nontrivial_rows(system):
    model = CollectiveModel(system=system)
    op = CommunicationOp(
        name="ar", collective=CollectiveKind.ALL_REDUCE, data_bytes=4 * MIB, group_size=8, scope="intra_node"
    )
    trivial = CommunicationOp(name="solo", collective=CollectiveKind.ALL_REDUCE, data_bytes=4 * MIB, group_size=1)
    assert not model.memoized(op)
    first = model.time(op)
    assert model.memoized(op)
    assert model.time(op) == first
    assert model.time(trivial) == 0.0
    assert not model.memoized(trivial)


def test_batch_seeded_memo_serves_scalar_time(system):
    """The sweep planner's pattern: price a batch once, seed the memo, and
    the scalar path then reads the seeded rows."""
    ops = [op for op in _op_zoo() if not op.is_trivial]
    seeded = CollectiveModel(system=system)
    times = seeded.evaluate_batch(CollectiveBatch.from_ops(ops)).tolist()
    for op, op_time in zip(ops, times):
        assert seeded.memoize(op, op_time) == op_time
        assert seeded.memoized(op)
    reference = CollectiveModel(system=system)
    assert [seeded.time(op) for op in ops] == [reference.time(op) for op in ops]
    seeded.memoize(ops[0], 123.0)
    assert seeded.time(ops[0]) == 123.0  # served from the memo, not recomputed


def test_evaluate_batch_trivial_rows_are_zero(system):
    model = CollectiveModel(system=system)
    ops = [
        CommunicationOp(name="empty", collective=CollectiveKind.ALL_GATHER, data_bytes=0.0, group_size=8),
        CommunicationOp(name="solo", collective=CollectiveKind.BROADCAST, data_bytes=1 * MIB, group_size=1),
    ]
    assert model.evaluate_batch(CollectiveBatch.from_ops(ops)).tolist() == [0.0, 0.0]


def test_shared_model_interned_per_system_and_algorithm(system):
    clear_collective_model_cache()
    ring = shared_collective_model(system)
    assert shared_collective_model(system) is ring
    tree = shared_collective_model(system, CollectiveAlgorithm.DOUBLE_BINARY_TREE)
    assert tree is not ring
    assert tree.algorithm is CollectiveAlgorithm.DOUBLE_BINARY_TREE
    assert shared_collective_model(system, CollectiveAlgorithm.DOUBLE_BINARY_TREE) is tree


def test_shared_model_interns_equal_systems(system):
    clear_collective_model_cache()
    twin = build_system("A100", num_devices=16, intra_node="NVLink3", inter_node="HDR-IB")
    assert shared_collective_model(system) is shared_collective_model(twin)


def test_clear_collective_model_cache(system):
    clear_collective_model_cache()
    first = shared_collective_model(system)
    clear_collective_model_cache()
    assert shared_collective_model(system) is not first
