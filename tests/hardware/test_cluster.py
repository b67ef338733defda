"""Tests for node and system assembly."""

import pytest

from repro.errors import ConfigurationError, UnknownHardwareError
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cluster import build_system, preset_cluster
from repro.hardware.network import get_interconnect
from repro.hardware.node import NodeSpec


def test_node_spec_capacity():
    node = NodeSpec(
        accelerator=get_accelerator("A100"),
        devices_per_node=8,
        intra_node_fabric=get_interconnect("NVLink3"),
    )
    assert node.total_dram_capacity == pytest.approx(8 * 80e9)


def test_node_spec_validation():
    with pytest.raises(ConfigurationError):
        NodeSpec(accelerator=get_accelerator("A100"), devices_per_node=0, intra_node_fabric=get_interconnect("NVLink3"))
    with pytest.raises(ConfigurationError):
        NodeSpec(accelerator=get_accelerator("A100"), devices_per_node=8, intra_node_fabric=None)


def test_build_system_by_names():
    system = build_system("A100", num_devices=64, intra_node="NVLink3", inter_node="HDR-IB")
    assert system.num_devices == 64
    assert system.num_nodes == 8
    assert system.devices_per_node == 8
    assert system.accelerator.name == "A100-80GB"
    assert system.intra_node_fabric.name == "NVLink3"
    assert system.inter_node_fabric.name == "HDR-IB"


def test_build_system_smaller_than_one_node():
    system = build_system("A100", num_devices=2, devices_per_node=8)
    assert system.devices_per_node == 2
    assert system.num_nodes == 1


def test_build_system_rejects_partial_nodes():
    with pytest.raises(ConfigurationError):
        build_system("A100", num_devices=12, devices_per_node=8)


def test_with_accelerator_and_fabric_and_devices():
    system = build_system("A100", num_devices=16)
    h100 = get_accelerator("H100")
    swapped = system.with_accelerator(h100, name="h100-system")
    assert swapped.accelerator.name == "H100-SXM"
    assert swapped.name == "h100-system"
    rewired = system.with_inter_node_fabric(get_interconnect("NVS"))
    assert rewired.inter_node_fabric.name == "NVS"
    bigger = system.with_num_devices(128)
    assert bigger.num_devices == 128


def test_preset_clusters():
    a100 = preset_cluster("A100-HDR", num_devices=64)
    assert a100.inter_node_fabric.name == "HDR-IB"
    h100 = preset_cluster("H100-NVS", num_devices=64)
    assert h100.inter_node_fabric.name == "NVS"
    b200_large = preset_cluster("B200-NVS-L", num_devices=64)
    assert b200_large.accelerator.name == "B200"
    with pytest.raises(UnknownHardwareError):
        preset_cluster("Z100-XYZ", num_devices=8)


def test_system_summary():
    system = build_system("H100", num_devices=8, intra_node="NVLink4", inter_node="NDR-IB")
    summary = system.summary()
    assert summary["accelerator"] == "H100-SXM"
    assert summary["num_devices"] == 8
    assert summary["inter_node_fabric"] == "NDR-IB"
