"""System-level collective pricing: pick the fabric, apply utilization, add overheads.

The :class:`CollectiveModel` is the bridge between the abstract
:class:`~repro.workload.operators.CommunicationOp` descriptors that layer
templates render and the analytical collective equations.  It selects the
right fabric (intra-node NVLink vs. inter-node InfiniBand/NVS) for the
operation's scope, applies a data-volume-dependent bandwidth-utilization
factor (small inference messages never saturate the links), and adds a fixed
per-collective software launch overhead (the NCCL/runtime cost that dominates
kilobyte-sized all-reduces).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence, Tuple

import numpy as np

from ..caching import Memo
from ..errors import ConfigurationError
from ..hardware.cluster import SystemSpec
from ..hardware.network import Interconnect
from ..units import MIB, MICROSECOND
from ..workload.operators import CollectiveColumns, CollectiveKind, CommunicationOp
from .collectives import (
    CollectiveAlgorithm,
    all_gather_time,
    all_gather_times,
    all_reduce_time,
    broadcast_time,
    broadcast_times,
    point_to_point_time,
    point_to_point_times,
    reduce_scatter_time,
    reduce_scatter_times,
    ring_all_reduce_times,
    tree_all_reduce_times,
)

#: Message size at which the links are considered fully saturated.
DEFAULT_SATURATION_BYTES = 4 * MIB
#: Utilization floor for tiny messages.
DEFAULT_MIN_UTILIZATION = 0.25
#: Per-collective software (launch/protocol) overhead.  Calibrated against the
#: small-message all-reduce cost seen in the inference validation (Table 2).
DEFAULT_SOFTWARE_LATENCY = 20.0 * MICROSECOND


#: Dispatch codes of the batched pricing path, one per collective kind.
_KIND_CODES: Dict[CollectiveKind, int] = {
    CollectiveKind.ALL_REDUCE: 0,
    CollectiveKind.ALL_GATHER: 1,
    CollectiveKind.REDUCE_SCATTER: 2,
    CollectiveKind.BROADCAST: 3,
    CollectiveKind.POINT_TO_POINT: 4,
}


@dataclasses.dataclass(frozen=True)
class CollectiveBatch:
    """A struct-of-arrays batch of communication operators.

    The collective analogue of :class:`~repro.perf.batched.GemmBatch`: the
    fields every collective equation needs, transposed into NumPy columns so
    :meth:`CollectiveModel.evaluate_batch` prices a whole generation of
    queries in a handful of vectorized operations.

    Attributes:
        data_bytes: Payload sizes (float64).
        group_sizes: Participating device counts (float64; exact for every
            realistic group size).
        kind_codes: Collective-kind dispatch codes (see ``_KIND_CODES``).
        inter_node: Whether each row uses the inter-node fabric.
    """

    data_bytes: np.ndarray
    group_sizes: np.ndarray
    kind_codes: np.ndarray
    inter_node: np.ndarray

    def __len__(self) -> int:
        return self.data_bytes.shape[0]

    @classmethod
    def from_ops(cls, ops: Sequence[CommunicationOp]) -> "CollectiveBatch":
        """Transpose a sequence of operators into one batch."""
        ops = tuple(ops)
        return cls(
            data_bytes=np.array([op.data_bytes for op in ops], dtype=np.float64),
            group_sizes=np.array([op.group_size for op in ops], dtype=np.float64),
            kind_codes=np.array([_KIND_CODES[op.collective] for op in ops], dtype=np.int8),
            inter_node=np.array([op.scope == "inter_node" for op in ops], dtype=bool),
        )

    @classmethod
    def from_columns(cls, columns: Sequence[CollectiveColumns], size: int) -> "CollectiveBatch":
        """Stack collectives given at ``size`` payloads each into one batch, collective by collective."""
        return cls(
            data_bytes=np.concatenate(
                [np.broadcast_to(np.asarray(column.data_bytes, dtype=np.float64), (size,)) for column in columns]
            ),
            group_sizes=np.repeat(np.array([column.group_size for column in columns], dtype=np.float64), size),
            kind_codes=np.repeat(np.array([_KIND_CODES[column.collective] for column in columns], dtype=np.int8), size),
            inter_node=np.repeat(np.array([column.scope == "inter_node" for column in columns], dtype=bool), size),
        )


@dataclasses.dataclass(frozen=True)
class CollectiveModel:
    """Prices communication operators on a given system.

    Attributes:
        system: The hardware system providing the fabrics.
        algorithm: All-reduce algorithm (ring, or double binary tree which is
            the latency-optimal choice the paper uses for inference).
        saturation_bytes: Message size at which full link utilization is reached.
        min_utilization: Utilization floor for very small messages.
        software_latency: Fixed software overhead added per collective call.
    """

    system: SystemSpec
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.RING
    saturation_bytes: float = DEFAULT_SATURATION_BYTES
    min_utilization: float = DEFAULT_MIN_UTILIZATION
    software_latency: float = DEFAULT_SOFTWARE_LATENCY

    def __post_init__(self) -> None:
        if self.saturation_bytes <= 0:
            raise ConfigurationError("saturation_bytes must be positive")
        if not 0 < self.min_utilization <= 1:
            raise ConfigurationError("min_utilization must be in (0, 1]")
        if self.software_latency < 0:
            raise ConfigurationError("software_latency must be non-negative")
        # Memoization of repeated collective queries: scenario sweeps price the
        # same (collective, bytes, group, scope) tuples over and over.  Keyed
        # by the frozen CommunicationOp; not a dataclass field, so model
        # equality and replace() semantics are unchanged.
        object.__setattr__(self, "_time_cache", Memo())

    # -- fabric selection and effective bandwidth ------------------------------------

    def fabric_for_scope(self, scope: str) -> Interconnect:
        """The interconnect a collective with the given scope uses."""
        if scope == "inter_node":
            return self.system.inter_node_fabric
        return self.system.intra_node_fabric

    def bandwidth_utilization(self, data_bytes: float) -> float:
        """Data-volume-dependent fraction of the peak link bandwidth achieved.

        Large (multi-MiB) messages reach full utilization; small messages ramp
        linearly down to :attr:`min_utilization`.
        """
        if data_bytes <= 0:
            return self.min_utilization
        ramp = data_bytes / self.saturation_bytes
        return min(1.0, max(self.min_utilization, ramp))

    def per_device_bandwidth(self, fabric: Interconnect) -> float:
        """The bandwidth one device sees on ``fabric``.

        Node-level fabrics (e.g. the paper's "HDR InfiniBand (200 GB/s)")
        quote the aggregate NIC bandwidth of one node; each of the node's
        devices only gets its share of it.
        """
        if fabric.per_device:
            return fabric.bandwidth
        return fabric.bandwidth / max(1, self.system.devices_per_node)

    def effective_bandwidth(self, fabric: Interconnect, data_bytes: float) -> float:
        """Per-device bandwidth x fabric utilization x message-size utilization."""
        return self.per_device_bandwidth(fabric) * fabric.utilization * self.bandwidth_utilization(data_bytes)

    # -- pricing ------------------------------------------------------------------------

    def time(self, op: CommunicationOp) -> float:
        """Execution time of one communication operator in seconds."""
        if op.is_trivial:
            return 0.0
        cached = self._time_cache.get(op)
        if cached is not None:
            return cached
        fabric = self.fabric_for_scope(op.scope)
        bandwidth = self.effective_bandwidth(fabric, op.data_bytes)
        latency = fabric.latency
        if op.collective is CollectiveKind.ALL_REDUCE:
            base = all_reduce_time(op.data_bytes, op.group_size, bandwidth, latency, algorithm=self.algorithm)
        elif op.collective is CollectiveKind.ALL_GATHER:
            base = all_gather_time(op.data_bytes, op.group_size, bandwidth, latency)
        elif op.collective is CollectiveKind.REDUCE_SCATTER:
            base = reduce_scatter_time(op.data_bytes, op.group_size, bandwidth, latency)
        elif op.collective is CollectiveKind.BROADCAST:
            base = broadcast_time(op.data_bytes, op.group_size, bandwidth, latency)
        else:
            base = point_to_point_time(op.data_bytes, bandwidth, latency)
        return self._time_cache.put(op, base + self.software_latency)

    def memoized(self, op: CommunicationOp) -> bool:
        """Whether ``op``'s time is already in the shared memo."""
        return op in self._time_cache

    def memoize(self, op: CommunicationOp, time: float) -> float:
        """Seed the shared memo with an externally computed time (see ``evaluate_batch``)."""
        return self._time_cache.put(op, time)

    def evaluate_batch(self, batch: CollectiveBatch) -> np.ndarray:
        """Price every operator of ``batch`` in a few vectorized operations.

        Returns the total times (base + software latency) in row order,
        bit-for-bit equal to calling :meth:`time` per operator: the fabric
        selection, the utilization ramp, and each collective equation mirror
        the scalar floating-point operation order exactly (trivial rows are
        ``0.0``, with no software latency, like the scalar early return).
        The memo is neither read nor written -- callers that want seeding
        combine this with :meth:`memoized` / :meth:`memoize`, as the sweep
        batch planner does.
        """
        times = np.zeros(len(batch), dtype=np.float64)
        active = ~((batch.group_sizes <= 1.0) | (batch.data_bytes == 0.0))
        if not active.any():
            return times
        # bandwidth_utilization, vectorized: min(1.0, max(floor, ramp)),
        # with the floor short-circuit for empty payloads.
        ramp = batch.data_bytes / self.saturation_bytes
        utilization = np.minimum(1.0, np.maximum(self.min_utilization, ramp))
        utilization = np.where(batch.data_bytes <= 0.0, self.min_utilization, utilization)
        # effective_bandwidth = (per-device bandwidth * fabric utilization)
        # * message-size utilization; the per-fabric product is one scalar.
        intra = self.fabric_for_scope("intra_node")
        inter = self.fabric_for_scope("inter_node")
        intra_peak = self.per_device_bandwidth(intra) * intra.utilization
        inter_peak = self.per_device_bandwidth(inter) * inter.utilization
        bandwidths = np.where(batch.inter_node, inter_peak, intra_peak) * utilization
        latencies = np.where(batch.inter_node, inter.latency, intra.latency)
        all_reduce_times = (
            ring_all_reduce_times
            if self.algorithm is CollectiveAlgorithm.RING
            else tree_all_reduce_times
        )
        for code, formula in (
            (_KIND_CODES[CollectiveKind.ALL_REDUCE], all_reduce_times),
            (_KIND_CODES[CollectiveKind.ALL_GATHER], all_gather_times),
            (_KIND_CODES[CollectiveKind.REDUCE_SCATTER], reduce_scatter_times),
            (_KIND_CODES[CollectiveKind.BROADCAST], broadcast_times),
        ):
            mask = active & (batch.kind_codes == code)
            if mask.any():
                base = formula(
                    batch.data_bytes[mask], batch.group_sizes[mask], bandwidths[mask], latencies[mask]
                )
                times[mask] = base + self.software_latency
        mask = active & (batch.kind_codes == _KIND_CODES[CollectiveKind.POINT_TO_POINT])
        if mask.any():
            base = point_to_point_times(batch.data_bytes[mask], bandwidths[mask], latencies[mask])
            times[mask] = base + self.software_latency
        return times

    def all_reduce(self, data_bytes: float, group_size: int, scope: str = "intra_node") -> float:
        """Convenience: time of a raw all-reduce, given by size instead of an operator."""
        op = CommunicationOp(
            name="all_reduce",
            collective=CollectiveKind.ALL_REDUCE,
            data_bytes=data_bytes,
            group_size=group_size,
            scope=scope,
        )
        return self.time(op)

    def with_algorithm(self, algorithm: CollectiveAlgorithm) -> "CollectiveModel":
        """Return a copy of the model using a different all-reduce algorithm."""
        return dataclasses.replace(self, algorithm=algorithm)


# ---------------------------------------------------------------------------
# Interning: one default-parameter CollectiveModel per (system, algorithm).
#
# Mirrors the catalog's SystemSpec interning: engines, training models, and
# step-cost models built for the same system share one model -- and with it
# one collective-time memo, so cross-scenario dedup (the sweep batch planner)
# hits a single cache instead of per-instance ones.
# ---------------------------------------------------------------------------

_SHARED_MODEL_CACHE_SIZE = 64
#: Value-keyed intern table: equal (not just identical) systems share a model.
_SHARED_MODELS: Dict[Tuple[SystemSpec, CollectiveAlgorithm], CollectiveModel] = {}
#: Identity fast path: hashing a deep SystemSpec costs microseconds, an
#: ``id()`` lookup does not.  The entry pins the spec object so its id cannot
#: be recycled while cached.
_SHARED_BY_ID: Dict[Tuple[int, CollectiveAlgorithm], Tuple[SystemSpec, CollectiveModel]] = {}


def shared_collective_model(
    system: SystemSpec, algorithm: CollectiveAlgorithm = CollectiveAlgorithm.RING
) -> CollectiveModel:
    """The interned default-parameter :class:`CollectiveModel` of a system.

    Callers that need non-default saturation/latency parameters construct
    their own model; every default construction site routes through here.
    """
    key = (id(system), algorithm)
    cached = _SHARED_BY_ID.get(key)
    if cached is not None:
        return cached[1]
    model = _SHARED_MODELS.get((system, algorithm))
    if model is None:
        if len(_SHARED_MODELS) >= _SHARED_MODEL_CACHE_SIZE:
            _SHARED_MODELS.pop(next(iter(_SHARED_MODELS)))
        model = CollectiveModel(system=system, algorithm=algorithm)
        _SHARED_MODELS[(system, algorithm)] = model
    if len(_SHARED_BY_ID) >= _SHARED_MODEL_CACHE_SIZE * 8:
        _SHARED_BY_ID.clear()
    _SHARED_BY_ID[key] = (system, model)
    return model


def clear_collective_model_cache() -> None:
    """Drop every interned collective model (cold-benchmark support)."""
    _SHARED_MODELS.clear()
    _SHARED_BY_ID.clear()
