"""Execution-time model for the non-GEMM kernels of a transformer layer.

Normalization (softmax, layer-norm), element-wise kernels (GELU, dropout,
bias/residual additions), and pure data-movement operations (KV-cache reads
and writes) have low arithmetic intensity: their time is essentially the time
to stream their operands through DRAM, with a small vector-compute floor.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..hardware.accelerator import AcceleratorSpec
from ..units import MICROSECOND
from ..caching import Memo
from ..workload.operators import GEMM, Operator, OperatorKind
from .gemm import GemmTimeModel
from .roofline import RooflinePoint, classify

#: Default DRAM bandwidth utilization of streaming (element-wise) kernels.
DEFAULT_STREAMING_DRAM_UTILIZATION = 0.80
#: Default per-kernel software/launch overhead for the small kernels.
DEFAULT_KERNEL_OVERHEAD = 2.0 * MICROSECOND


@dataclasses.dataclass(frozen=True)
class MemoryBoundKernelModel:
    """Times normalization / element-wise / memory kernels on one accelerator.

    Attributes:
        accelerator: The device the kernels run on.
        dram_utilization: Achievable fraction of the DRAM bandwidth for
            streaming access patterns.
        kernel_overhead: Fixed software overhead added to every kernel.
    """

    accelerator: AcceleratorSpec
    dram_utilization: float = DEFAULT_STREAMING_DRAM_UTILIZATION
    kernel_overhead: float = DEFAULT_KERNEL_OVERHEAD

    def __post_init__(self) -> None:
        if not 0 < self.dram_utilization <= 1:
            raise ConfigurationError("dram_utilization must be in (0, 1]")
        if self.kernel_overhead < 0:
            raise ConfigurationError("kernel_overhead must be non-negative")
        # Memoization of repeated kernel queries (see GemmTimeModel); keyed by
        # the frozen operator descriptor, attached outside the dataclass fields.
        object.__setattr__(self, "_evaluation_cache", Memo())

    def evaluate(self, op: Operator) -> RooflinePoint:
        """Time and classify one memory-bound kernel."""
        cached = self._evaluation_cache.get(op)
        if cached is not None:
            return cached
        dram = self.accelerator.memory.dram
        bandwidth = dram.bandwidth * self.dram_utilization
        memory_time = op.bytes_total / bandwidth if op.bytes_total > 0 else 0.0
        compute_time = op.flops / self.accelerator.compute.vector_throughput if op.flops > 0 else 0.0
        point = classify(
            name=op.name,
            flops=op.flops,
            compute_time=compute_time,
            level_times={dram.name: memory_time},
            level_bytes={dram.name: op.bytes_total},
            outermost_level=dram.name,
        )
        return self._evaluation_cache.put(op, point)

    def evaluate_times(self, ops: Sequence[Operator]) -> np.ndarray:
        """``[self.evaluate(op).time for op in ops]`` in one vectorized pass.

        The same divisions, zero guards and max as :meth:`evaluate`, so every
        entry equals the scalar time bit for bit.  Nothing is memoized.
        """
        dram = self.accelerator.memory.dram
        bandwidth = dram.bandwidth * self.dram_utilization
        flops = np.array([op.flops for op in ops], dtype=np.float64)
        bytes_total = np.array([op.bytes_total for op in ops], dtype=np.float64)
        compute_times = np.divide(
            flops, self.accelerator.compute.vector_throughput, out=np.zeros_like(flops), where=flops > 0
        )
        memory_times = np.divide(bytes_total, bandwidth, out=np.zeros_like(bytes_total), where=bytes_total > 0)
        return np.maximum(compute_times, memory_times)

    def time(self, op: Operator, include_overhead: bool = True) -> float:
        """Execution time of one kernel in seconds."""
        point = self.evaluate(op)
        overhead = self.kernel_overhead if include_overhead else 0.0
        return point.time + overhead


@dataclasses.dataclass(frozen=True)
class DeviceKernelModel:
    """Dispatcher that times any compute operator on one accelerator.

    GEMMs go through the hierarchical-roofline GEMM model; everything else is
    treated as a streaming memory-bound kernel.
    """

    accelerator: AcceleratorSpec
    gemm_model: GemmTimeModel = None  # type: ignore[assignment]
    memory_model: MemoryBoundKernelModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.gemm_model is None:
            object.__setattr__(self, "gemm_model", GemmTimeModel(accelerator=self.accelerator))
        if self.memory_model is None:
            object.__setattr__(self, "memory_model", MemoryBoundKernelModel(accelerator=self.accelerator))

    def evaluate(self, op: Operator) -> RooflinePoint:
        """Time and classify any compute operator."""
        if op.kind is OperatorKind.COMMUNICATION:
            raise ConfigurationError("communication operators are priced by the collective model, not the device model")
        if isinstance(op, GEMM):
            return self.gemm_model.evaluate(op)
        return self.memory_model.evaluate(op)

    def time(self, op: Operator, include_overhead: bool = True) -> float:
        """Execution time of any compute operator in seconds."""
        if isinstance(op, GEMM):
            return self.gemm_model.time(op, include_overhead=include_overhead)
        return self.memory_model.time(op, include_overhead=include_overhead)

    def overhead(self, op: Operator) -> float:
        """The per-kernel launch overhead the dispatcher applies to ``op``.

        Lets callers derive ``time`` from an already-evaluated point as
        ``point.time + overhead(op)`` without a second ``evaluate`` pass.
        """
        if isinstance(op, GEMM):
            return self.gemm_model.kernel_overhead
        return self.memory_model.kernel_overhead

    @property
    def kernel_overhead(self) -> float:
        """The per-kernel software overhead applied to GEMMs (for reports)."""
        return self.gemm_model.kernel_overhead
