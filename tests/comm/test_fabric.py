"""Tests for the system-level collective model."""

import pytest

from repro.comm.collectives import CollectiveAlgorithm
from repro.comm.fabric import CollectiveModel
from repro.errors import ConfigurationError
from repro.hardware.cluster import build_system
from repro.workload.operators import CollectiveKind, CommunicationOp
from repro.units import MIB


@pytest.fixture
def system():
    return build_system("A100", num_devices=16, intra_node="NVLink3", inter_node="HDR-IB")


@pytest.fixture
def model(system):
    return CollectiveModel(system=system)


def _all_reduce(data_bytes, group=8, scope="intra_node"):
    return CommunicationOp(
        name="ar", collective=CollectiveKind.ALL_REDUCE, data_bytes=data_bytes, group_size=group, scope=scope
    )


def test_fabric_selection_by_scope(model):
    assert model.fabric_for_scope("intra_node").name == "NVLink3"
    assert model.fabric_for_scope("inter_node").name == "HDR-IB"


def test_node_level_fabric_bandwidth_is_shared(model, system):
    inter = model.fabric_for_scope("inter_node")
    intra = model.fabric_for_scope("intra_node")
    assert model.per_device_bandwidth(inter) == pytest.approx(inter.bandwidth / system.devices_per_node)
    assert model.per_device_bandwidth(intra) == pytest.approx(intra.bandwidth)


def test_message_size_utilization_ramp(model):
    assert model.bandwidth_utilization(64 * MIB) == pytest.approx(1.0)
    assert model.bandwidth_utilization(1024) == pytest.approx(model.min_utilization)
    mid = model.bandwidth_utilization(model.saturation_bytes / 2)
    assert model.min_utilization < mid < 1.0


def test_trivial_collectives_are_free(model):
    assert model.time(_all_reduce(0.0)) == 0.0
    assert model.time(_all_reduce(1024, group=1)) == 0.0


def test_software_latency_dominates_small_messages(model):
    small = model.time(_all_reduce(8 * 1024))
    assert small >= model.software_latency
    assert small < 10 * model.software_latency


def test_large_messages_scale_with_volume(model):
    one = model.time(_all_reduce(64 * MIB))
    two = model.time(_all_reduce(128 * MIB))
    assert two > 1.8 * one


def test_intra_node_faster_than_inter_node(model):
    payload = 64 * MIB
    assert model.time(_all_reduce(payload, scope="intra_node")) < model.time(_all_reduce(payload, scope="inter_node"))


def test_tree_algorithm_helps_small_messages(system):
    ring = CollectiveModel(system=system, algorithm=CollectiveAlgorithm.RING)
    tree = ring.with_algorithm(CollectiveAlgorithm.DOUBLE_BINARY_TREE)
    payload = _all_reduce(16 * 1024, group=8)
    assert tree.time(payload) < ring.time(payload)


def test_all_collective_kinds_priced(model):
    kinds = [
        CollectiveKind.ALL_REDUCE,
        CollectiveKind.ALL_GATHER,
        CollectiveKind.REDUCE_SCATTER,
        CollectiveKind.BROADCAST,
        CollectiveKind.POINT_TO_POINT,
    ]
    for kind in kinds:
        op = CommunicationOp(name="c", collective=kind, data_bytes=1 * MIB, group_size=8, scope="intra_node")
        assert model.time(op) > 0


def test_all_gather_cheaper_than_all_reduce(model):
    all_reduce = _all_reduce(64 * MIB)
    all_gather = CommunicationOp(
        name="ag", collective=CollectiveKind.ALL_GATHER, data_bytes=64 * MIB, group_size=8, scope="intra_node"
    )
    assert model.time(all_gather) < model.time(all_reduce)


def test_convenience_helpers(model):
    assert model.all_reduce(64 * MIB, group_size=8) > 0
    assert model.all_reduce(64 * MIB, group_size=1) == 0.0


def test_validation(system):
    with pytest.raises(ConfigurationError):
        CollectiveModel(system=system, saturation_bytes=0)
    with pytest.raises(ConfigurationError):
        CollectiveModel(system=system, min_utilization=0)
    with pytest.raises(ConfigurationError):
        CollectiveModel(system=system, software_latency=-1)
