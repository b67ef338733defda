"""NumPy-vectorized GEMM roofline backend: whole batches in one set of array ops.

The scalar :class:`~repro.perf.gemm.GemmTimeModel` walks an object-per-kernel
Python path (``GEMM`` dataclass -> :func:`~repro.perf.tiling.traffic_through_level`
-> dict-of-level-times -> :func:`~repro.perf.roofline.classify`), which is what
bottlenecks large sweeps and design-space searches.  This module evaluates the
same hierarchical-roofline model for a *batch* of GEMMs at once:

* :class:`GemmBatch` holds the struct-of-arrays GEMM description
  ``(m, n, k, batch, precision, weight_operand, accumulate)``.
* :class:`BatchedGemmTimeModel` computes tiling traffic, per-level times,
  utilization factors, bound classification, and kernel times for the whole
  batch with NumPy array operations.
* :class:`BatchedRooflineResult` is the struct-of-arrays answer, convertible
  back to per-kernel :class:`~repro.perf.roofline.RooflinePoint` objects.

Numerical contract
------------------
The batched backend mirrors the scalar model's floating-point operation order
exactly, so results are **bit-for-bit identical** to
:meth:`GemmTimeModel.evaluate <repro.perf.gemm.GemmTimeModel.evaluate>` as
long as the integer intermediate products (``m*k*batch`` and
``m*k*ceil(n/tile)``) stay below ``2**53``, i.e. within the exact-integer
range of IEEE float64 -- which covers every realistic kernel shape.  The
equivalence is enforced by the grid tests in ``tests/perf/test_batched.py``.

Array-shape contract
--------------------
All arrays of a :class:`GemmBatch` are one-dimensional with a common length
``len(batch)`` (the number of GEMMs).  Every array on the result
(:attr:`~BatchedRooflineResult.compute_time`, each entry of
:attr:`~BatchedRooflineResult.level_times` / ``level_bytes``,
:attr:`~BatchedRooflineResult.kernel_time`, ``bound_codes``) has that same
length and dtype ``float64`` (``int8`` for the bound codes); row ``i``
everywhere describes GEMM ``i`` of the input.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..hardware.accelerator import AcceleratorSpec
from ..hardware.datatypes import Precision
from ..workload.operators import GEMM
from .gemm import (
    DEFAULT_CACHE_OCCUPANCY,
    DEFAULT_FAT_GEMM_DRAM_UTILIZATION,
    DEFAULT_KERNEL_OVERHEAD,
    GemvUtilizationModel,
)
from .roofline import BoundType, RooflinePoint

#: ``bound_codes`` values of :class:`BatchedRooflineResult`.
BOUND_COMPUTE = 0
BOUND_MEMORY = 1
BOUND_CACHE = 2

_BOUND_BY_CODE = {
    BOUND_COMPUTE: BoundType.COMPUTE,
    BOUND_MEMORY: BoundType.MEMORY,
    BOUND_CACHE: BoundType.CACHE,
}

#: ``min(m, n)`` at or below which a GEMM counts as skinny / GEMV-like.
#: Mirrors :attr:`repro.workload.operators.GEMM.is_gemv_like`.
GEMV_LIKE_THRESHOLD = 16


@dataclasses.dataclass(frozen=True)
class GemmBatch:
    """Struct-of-arrays description of a batch of GEMMs.

    Attributes:
        m, n, k: GEMM dimensions, ``float64`` arrays of shape ``(size,)``
            (integral values; float64 keeps every array op vectorized while
            staying exact below ``2**53``).
        batch: Batched-GEMM repeat count per row, same shape.
        element_bytes: Bytes per element at each row's precision.
        weight_operand: Boolean array; ``True`` rows share their B operand
            across the batch dimension (model weights).
        accumulate: Boolean array; ``True`` rows read-modify-write C.
        precisions: Per-row :class:`~repro.hardware.datatypes.Precision`,
            used to group rows by sustained throughput.
        names: Per-row kernel names, carried into
            :meth:`BatchedRooflineResult.to_points`.
    """

    m: np.ndarray
    n: np.ndarray
    k: np.ndarray
    batch: np.ndarray
    element_bytes: np.ndarray
    weight_operand: np.ndarray
    accumulate: np.ndarray
    precisions: Tuple[Precision, ...]
    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        size = self.m.shape[0]
        for field in ("n", "k", "batch", "element_bytes", "weight_operand", "accumulate"):
            if getattr(self, field).shape != (size,):
                raise ConfigurationError(f"GemmBatch arrays must share shape ({size},); {field} differs")
        if len(self.precisions) != size or len(self.names) != size:
            raise ConfigurationError("GemmBatch precisions/names must have one entry per row")
        if size and min(self.m.min(), self.n.min(), self.k.min(), self.batch.min()) < 1:
            raise ConfigurationError("GemmBatch: m, n, k and batch must be >= 1")

    def __len__(self) -> int:
        return self.m.shape[0]

    @property
    def size(self) -> int:
        """Number of GEMMs in the batch."""
        return len(self)

    @property
    def flops(self) -> np.ndarray:
        """FLOPs per row, with the scalar model's operation order (``2.0*m*n*k*batch``)."""
        return 2.0 * self.m * self.n * self.k * self.batch

    @property
    def is_gemv_like(self) -> np.ndarray:
        """Boolean mask of skinny GEMM / GEMV rows (``min(m, n) <= 16``)."""
        return np.minimum(self.m, self.n) <= GEMV_LIKE_THRESHOLD

    @property
    def a_bytes(self) -> np.ndarray:
        """Bytes of the activation (A) operand across the whole batch, per row."""
        return self.m * self.k * self.batch * self.element_bytes

    @property
    def b_bytes(self) -> np.ndarray:
        """Bytes of the B operand (weights are not replicated across the batch)."""
        replication = np.where(self.weight_operand, 1.0, self.batch)
        return self.k * self.n * replication * self.element_bytes

    @property
    def c_bytes(self) -> np.ndarray:
        """Bytes of the output (C) operand across the whole batch, per row."""
        return self.m * self.n * self.batch * self.element_bytes

    @property
    def compulsory_traffic(self) -> np.ndarray:
        """Minimum possible traffic per row: read A and B once, write (read) C once."""
        bytes_read = self.a_bytes + self.b_bytes
        bytes_read = np.where(self.accumulate, bytes_read + self.c_bytes, bytes_read)
        return bytes_read + self.c_bytes

    @classmethod
    def from_arrays(
        cls,
        m: Sequence[float],
        n: Sequence[float],
        k: Sequence[float],
        batch: "Sequence[float] | float" = 1,
        precision: "Sequence[Precision | str] | Precision | str" = Precision.FP16,
        weight_operand: "Sequence[bool] | bool" = False,
        accumulate: "Sequence[bool] | bool" = False,
        names: Optional[Sequence[str]] = None,
    ) -> "GemmBatch":
        """Build a batch from parallel arrays (scalars broadcast to all rows).

        ``precision`` accepts a :class:`Precision`, a catalog string like
        ``"fp16"``, or one of either per row.
        """
        m_arr = np.atleast_1d(np.asarray(m, dtype=np.float64))
        size = m_arr.shape[0]

        def _broadcast(value, dtype):
            arr = np.asarray(value, dtype=dtype)
            return np.broadcast_to(arr, (size,)).copy() if arr.ndim == 0 else arr

        if isinstance(precision, (Precision, str)):
            parsed = Precision.parse(precision)
            precisions = (parsed,) * size
            element_bytes = np.full(size, parsed.bytes_per_element, dtype=np.float64)
        else:
            precisions = tuple(Precision.parse(p) for p in precision)
            element_bytes = np.array([p.bytes_per_element for p in precisions], dtype=np.float64)
        return cls(
            m=m_arr,
            n=_broadcast(n, np.float64),
            k=_broadcast(k, np.float64),
            batch=_broadcast(batch, np.float64),
            element_bytes=element_bytes,
            weight_operand=_broadcast(weight_operand, bool),
            accumulate=_broadcast(accumulate, bool),
            precisions=precisions,
            names=tuple(names) if names is not None else ("gemm",) * size,
        )

    @classmethod
    def from_gemms(cls, gemms: Iterable[GEMM]) -> "GemmBatch":
        """Build a batch from scalar :class:`~repro.workload.operators.GEMM` descriptors."""
        gemms = list(gemms)
        return cls(
            m=np.array([g.m for g in gemms], dtype=np.float64),
            n=np.array([g.n for g in gemms], dtype=np.float64),
            k=np.array([g.k for g in gemms], dtype=np.float64),
            batch=np.array([g.batch for g in gemms], dtype=np.float64),
            element_bytes=np.array([g.element_bytes for g in gemms], dtype=np.float64),
            weight_operand=np.array([g.weight_operand for g in gemms], dtype=bool),
            accumulate=np.array([g.accumulate for g in gemms], dtype=bool),
            precisions=tuple(g.precision for g in gemms),
            names=tuple(g.name for g in gemms),
        )


@dataclasses.dataclass(frozen=True)
class BatchedRooflineResult:
    """Struct-of-arrays timing decomposition of one GEMM batch.

    Attributes:
        names: Kernel name per row.
        flops: FLOPs per row.
        compute_time: Pure compute time per row, in seconds.
        level_names: Memory-level names, innermost first.
        level_times: Data-movement time per level, arrays of shape ``(size,)``.
        level_bytes: Bytes moved per level, same shapes.
        kernel_time: Kernel time per row (max of compute and every level),
            without the per-kernel launch overhead.
        bound_codes: ``int8`` per row: :data:`BOUND_COMPUTE`,
            :data:`BOUND_MEMORY` (outermost level), or :data:`BOUND_CACHE`.
        bound_levels: Name of the limiting level per row (``""`` when
            compute bound).
    """

    names: Tuple[str, ...]
    flops: np.ndarray
    compute_time: np.ndarray
    level_names: Tuple[str, ...]
    level_times: Dict[str, np.ndarray]
    level_bytes: Dict[str, np.ndarray]
    kernel_time: np.ndarray
    bound_codes: np.ndarray
    bound_levels: Tuple[str, ...]

    def __len__(self) -> int:
        return self.kernel_time.shape[0]

    @property
    def size(self) -> int:
        """Number of GEMMs in the result."""
        return len(self)

    def bounds(self) -> List[BoundType]:
        """Per-row bound types as enum values."""
        return [_BOUND_BY_CODE[int(code)] for code in self.bound_codes]

    def times(self, kernel_overhead: float = 0.0) -> np.ndarray:
        """Execution times per row, optionally adding a fixed launch overhead."""
        if kernel_overhead:
            return self.kernel_time + kernel_overhead
        return self.kernel_time

    def point_at(self, index: int) -> RooflinePoint:
        """Materialize the :class:`RooflinePoint` of one row (scalar-compatible).

        The point is built from the same floats the scalar model would have
        computed (the backend's exact-equality contract), so it can seed the
        scalar model's memo -- the cross-scenario batch planner warms only
        the rows a plan actually needs instead of materializing the whole
        batch.
        """
        return RooflinePoint(
            name=self.names[index],
            flops=float(self.flops[index]),
            compute_time=float(self.compute_time[index]),
            level_times={name: float(self.level_times[name][index]) for name in self.level_names},
            level_bytes={name: float(self.level_bytes[name][index]) for name in self.level_names},
            bound=_BOUND_BY_CODE[int(self.bound_codes[index])],
            bound_level=self.bound_levels[index],
        )

    def to_points(self) -> List[RooflinePoint]:
        """Materialize per-kernel :class:`RooflinePoint` objects (scalar-compatible)."""
        return [self.point_at(index) for index in range(len(self))]


@dataclasses.dataclass(frozen=True)
class BatchedGemmTimeModel:
    """Vectorized twin of :class:`~repro.perf.gemm.GemmTimeModel`.

    Shares the scalar model's parameters and produces bit-for-bit identical
    numbers (see the module docstring for the exact-equality conditions);
    :meth:`GemmTimeModel.evaluate_many <repro.perf.gemm.GemmTimeModel.evaluate_many>`
    uses it as its backend.

    Attributes:
        accelerator: The device the kernels run on.
        gemv_utilization: DRAM utilization model for skinny kernels.
        fat_gemm_dram_utilization: DRAM utilization of large, well-tiled GEMMs.
        cache_occupancy: Fraction of each cache level available for tiling.
        kernel_overhead: Fixed software overhead added by :meth:`times`.
    """

    accelerator: AcceleratorSpec
    gemv_utilization: GemvUtilizationModel = dataclasses.field(default_factory=GemvUtilizationModel)
    fat_gemm_dram_utilization: float = DEFAULT_FAT_GEMM_DRAM_UTILIZATION
    cache_occupancy: float = DEFAULT_CACHE_OCCUPANCY
    kernel_overhead: float = DEFAULT_KERNEL_OVERHEAD

    def __post_init__(self) -> None:
        # Mirror the scalar twin's parameter validation (GemmTimeModel raises
        # the same errors; the tiling occupancy is checked there lazily).
        if not 0 < self.fat_gemm_dram_utilization <= 1:
            raise ConfigurationError("fat_gemm_dram_utilization must be in (0, 1]")
        if not 0 < self.cache_occupancy <= 1:
            raise ConfigurationError("occupancy must be in (0, 1]")
        if self.kernel_overhead < 0:
            raise ConfigurationError("kernel_overhead must be non-negative")

    @classmethod
    def from_scalar(cls, model) -> "BatchedGemmTimeModel":
        """Build the vectorized twin of a :class:`~repro.perf.gemm.GemmTimeModel`."""
        return cls(
            accelerator=model.accelerator,
            gemv_utilization=model.gemv_utilization,
            fat_gemm_dram_utilization=model.fat_gemm_dram_utilization,
            cache_occupancy=model.cache_occupancy,
            kernel_overhead=model.kernel_overhead,
        )

    # -- vectorized building blocks ---------------------------------------------------

    def compute_times(self, batch: GemmBatch) -> np.ndarray:
        """Pure compute time per row (no memory effects)."""
        precisions = batch.precisions
        if precisions and precisions.count(precisions[0]) == len(precisions):
            return batch.flops / self.accelerator.sustained_flops(precisions[0])
        throughput = np.empty(len(batch), dtype=np.float64)
        for precision in set(precisions):
            mask = np.array([p is precision for p in precisions], dtype=bool)
            throughput[mask] = self.accelerator.sustained_flops(precision)
        return batch.flops / throughput

    def _tiled_traffic(self, batch: GemmBatch, capacity_bytes: float) -> np.ndarray:
        """Vectorized :func:`~repro.perf.tiling.traffic_through_level` for one level."""
        element = batch.element_bytes
        usable = capacity_bytes * self.cache_occupancy
        tile = np.maximum(1.0, np.floor(np.sqrt(usable / (3.0 * element))))
        tile_m = np.minimum(batch.m, tile)
        tile_n = np.minimum(batch.n, tile)
        a_traffic = batch.m * batch.k * np.ceil(batch.n / tile_n) * element
        b_traffic = batch.k * batch.n * np.ceil(batch.m / tile_m) * element
        a_total = a_traffic * batch.batch
        b_total = b_traffic * np.where(batch.weight_operand, 1.0, batch.batch)
        c_total = batch.c_bytes * np.where(batch.accumulate, 2.0, 1.0)
        traffic = a_total + b_total + c_total
        return np.maximum(traffic, batch.compulsory_traffic)

    def level_traffic(self, batch: GemmBatch) -> Dict[str, np.ndarray]:
        """Bytes each GEMM moves across each memory level (see scalar ``level_traffic``)."""
        levels = self.accelerator.memory.levels
        traffic: Dict[str, np.ndarray] = {}
        for index, level in enumerate(levels):
            if index == 0:
                traffic[level.name] = batch.compulsory_traffic
            else:
                traffic[level.name] = self._tiled_traffic(batch, levels[index - 1].capacity)
        return traffic

    def skinny_utilization(self, batch: GemmBatch) -> np.ndarray:
        """Per-row DRAM utilization factor of the skinny (GEMV-like) rows.

        Rows that are not GEMV-like get the fat-GEMM factor; the caller masks
        with :attr:`GemmBatch.is_gemv_like` to decide which applies where.
        """
        return self.gemv_utilization.utilization_for_weight_bytes(batch.b_bytes)

    # -- main entry point -------------------------------------------------------------

    def evaluate_batch(self, batch: GemmBatch) -> BatchedRooflineResult:
        """Time and classify every GEMM of the batch in one set of array ops."""
        size = len(batch)
        compute_time = self.compute_times(batch)
        traffic = self.level_traffic(batch)
        levels = self.accelerator.memory.levels
        dram_name = self.accelerator.memory.dram.name
        skinny = batch.is_gemv_like
        skinny_factor = self.skinny_utilization(batch)

        level_times: Dict[str, np.ndarray] = {}
        for level in levels:
            default_factor = self.fat_gemm_dram_utilization if level.name == dram_name else level.utilization
            bandwidth = np.where(skinny, level.bandwidth * skinny_factor, level.bandwidth * default_factor)
            level_times[level.name] = traffic[level.name] / bandwidth

        # Slowest level per row, first-wins on ties (mirrors the scalar classify()).
        slowest_time = np.zeros(size, dtype=np.float64)
        slowest_index = np.full(size, -1, dtype=np.int64)
        for index, level in enumerate(levels):
            mask = level_times[level.name] > slowest_time
            slowest_time = np.where(mask, level_times[level.name], slowest_time)
            slowest_index = np.where(mask, index, slowest_index)

        compute_bound = compute_time >= slowest_time
        dram_index = next(i for i, level in enumerate(levels) if level.name == dram_name)
        bound_codes = np.where(
            compute_bound,
            BOUND_COMPUTE,
            np.where(slowest_index == dram_index, BOUND_MEMORY, BOUND_CACHE),
        ).astype(np.int8)
        level_name_by_index = [level.name for level in levels]
        # Compute-bound rows take the trailing "" (a row that is not compute
        # bound always has a slowest level).
        bound_names = np.array([*level_name_by_index, ""], dtype=object)
        bound_levels = tuple(bound_names[np.where(compute_bound, len(levels), slowest_index)])
        return BatchedRooflineResult(
            names=batch.names,
            flops=batch.flops,
            compute_time=compute_time,
            level_names=tuple(level_name_by_index),
            level_times=level_times,
            level_bytes=traffic,
            kernel_time=np.maximum(compute_time, slowest_time),
            bound_codes=bound_codes,
            bound_levels=bound_levels,
        )

    def times(self, batch: GemmBatch, include_overhead: bool = True) -> np.ndarray:
        """Execution times per row in seconds (overhead included by default)."""
        result = self.evaluate_batch(batch)
        return result.times(self.kernel_overhead if include_overhead else 0.0)
