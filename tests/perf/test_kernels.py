"""Tests for memory-bound kernel timing and the device dispatcher."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.perf.kernels import DeviceKernelModel, MemoryBoundKernelModel
from repro.perf.roofline import BoundType
from repro.workload.operators import (
    CollectiveKind,
    CommunicationOp,
    ElementwiseOp,
    GEMM,
    MemoryOp,
    NormalizationOp,
)


@pytest.fixture
def memory_model(a100):
    return MemoryBoundKernelModel(accelerator=a100)


@pytest.fixture
def device_model(a100):
    return DeviceKernelModel(accelerator=a100)


def test_softmax_is_memory_bound(memory_model):
    op = NormalizationOp(name="softmax", num_elements=10_000_000, flops_per_element=5.0)
    point = memory_model.evaluate(op)
    assert point.bound is BoundType.MEMORY
    assert point.time == pytest.approx(op.bytes_total / (1.935e12 * memory_model.dram_utilization), rel=0.01)


def test_elementwise_time_scales_with_elements(memory_model):
    small = ElementwiseOp(name="gelu", num_elements=1_000_000, flops_per_element=8.0)
    large = ElementwiseOp(name="gelu", num_elements=4_000_000, flops_per_element=8.0)
    assert memory_model.time(large, include_overhead=False) == pytest.approx(
        4 * memory_model.time(small, include_overhead=False), rel=1e-6
    )


def test_memory_op_timing(memory_model):
    op = MemoryOp(name="kv_read", bytes_moved=1e9)
    expected = 1e9 / (1.935e12 * memory_model.dram_utilization)
    assert memory_model.time(op, include_overhead=False) == pytest.approx(expected, rel=0.01)


def test_overhead_applies(memory_model):
    op = ElementwiseOp(name="tiny", num_elements=10)
    assert memory_model.time(op) >= memory_model.kernel_overhead


def test_memory_model_validation(a100):
    with pytest.raises(ConfigurationError):
        MemoryBoundKernelModel(accelerator=a100, dram_utilization=0)
    with pytest.raises(ConfigurationError):
        MemoryBoundKernelModel(accelerator=a100, kernel_overhead=-1)


def test_vectorized_times_equal_evaluate_bit_for_bit(memory_model):
    ops = [
        NormalizationOp(name="softmax", num_elements=10_000_000, flops_per_element=5.0),
        NormalizationOp(name="tiny_softmax", num_elements=3, flops_per_element=5.0, precision=Precision.FP8),
        ElementwiseOp(name="gelu", num_elements=123_457, flops_per_element=8.0),
        ElementwiseOp(name="dropout", num_elements=99_991, flops_per_element=2.0, extra_bytes_per_element=1.0),
        MemoryOp(name="kv_read", bytes_moved=7e6),  # zero flops
        MemoryOp(name="kv_append", bytes_moved=3.5e3, is_write=True),  # zero flops
        ElementwiseOp(name="compute_only", num_elements=1000, reads_per_element=0.0, writes_per_element=0.0),
        ElementwiseOp(name="empty", num_elements=0),  # zero flops and zero bytes
    ]
    assert ops[-2].bytes_total == 0 and ops[-1].flops == 0 and ops[-1].bytes_total == 0
    times = memory_model.evaluate_times(ops)
    assert times.tolist() == [memory_model.evaluate(op).time for op in ops]
    assert memory_model.evaluate_times([]).shape == (0,)
    # The column entry point evaluate_times runs on: the same numbers from
    # bare flops and bytes columns.
    flops = np.array([op.flops for op in ops], dtype=np.float64)
    bytes_total = np.array([op.bytes_total for op in ops], dtype=np.float64)
    assert memory_model.evaluate_columns(flops, bytes_total).tolist() == times.tolist()
    assert memory_model.evaluate_columns(flops[:0], bytes_total[:0]).shape == (0,)


def test_device_model_dispatches_gemm_and_others(device_model):
    gemm = GEMM(name="g", m=2048, n=2048, k=2048, precision=Precision.FP16)
    softmax = NormalizationOp(name="softmax", num_elements=1_000_000)
    assert device_model.evaluate(gemm).bound is BoundType.COMPUTE
    assert device_model.evaluate(softmax).bound is BoundType.MEMORY
    assert device_model.time(gemm) > 0
    assert device_model.time(softmax) > 0


def test_device_model_rejects_communication(device_model):
    comm = CommunicationOp(name="ar", collective=CollectiveKind.ALL_REDUCE, data_bytes=1024, group_size=4)
    with pytest.raises(ConfigurationError):
        device_model.evaluate(comm)


def test_device_model_builds_submodels_lazily(a100):
    model = DeviceKernelModel(accelerator=a100)
    assert model.gemm_model is not None
    assert model.memory_model is not None
    assert model.kernel_overhead == model.gemm_model.kernel_overhead


def test_higher_bandwidth_helps_memory_bound_kernels(a100, h100):
    op = NormalizationOp(name="layernorm", num_elements=10_000_000, flops_per_element=8.0)
    a100_time = MemoryBoundKernelModel(accelerator=a100).time(op, include_overhead=False)
    h100_time = MemoryBoundKernelModel(accelerator=h100).time(op, include_overhead=False)
    assert h100_time < a100_time
