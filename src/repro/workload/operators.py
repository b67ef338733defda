"""Operator descriptors: the kernels that make up a transformer layer.

The paper groups transformer computation into three kernel classes
(Section 1.2): tensor contractions (GEMM/GEMV), normalization (softmax,
layer-norm), and element-wise operations (non-linearities, biases, dropout,
residual additions).  Each descriptor knows its FLOP count and the bytes it
must move to/from memory, which is exactly what the roofline model needs.

All sizes are *logical* (per device, after parallelization has been applied
by the mapper); the descriptors themselves are agnostic of parallelism.

The ``*Columns`` tuples at the end describe one operator at many sizes at
once, with integer arrays in place of its size fields, for the batched
pricing backends.
"""

from __future__ import annotations

import dataclasses
import enum
import types
from typing import Any, NamedTuple

from ..errors import ConfigurationError
from ..hardware.datatypes import Precision


class OperatorKind(enum.Enum):
    """Coarse kernel class of an operator."""

    GEMM = "gemm"
    NORMALIZATION = "normalization"
    ELEMENTWISE = "elementwise"
    COMMUNICATION = "communication"
    MEMORY = "memory"


@dataclasses.dataclass(frozen=True)
class Operator:
    """Base class for every kernel descriptor.

    Attributes:
        name: Human-readable kernel name, e.g. ``"mlp_h_to_4h"``.
        precision: Numeric format of the kernel's operands.
    """

    name: str
    precision: Precision = Precision.FP16

    @property
    def kind(self) -> OperatorKind:
        """Kernel class; subclasses override."""
        raise NotImplementedError

    @property
    def flops(self) -> float:
        """Floating-point operations executed by the kernel."""
        raise NotImplementedError

    @property
    def bytes_read(self) -> float:
        """Bytes the kernel must read from memory (ignoring cache reuse)."""
        raise NotImplementedError

    @property
    def bytes_written(self) -> float:
        """Bytes the kernel writes back to memory."""
        raise NotImplementedError

    @property
    def bytes_total(self) -> float:
        """Total memory traffic of the kernel."""
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of memory traffic."""
        total = self.bytes_total
        return self.flops / total if total > 0 else float("inf")


@dataclasses.dataclass(frozen=True)
class GEMM(Operator):
    """A general matrix-matrix multiply ``C[m, n] = A[m, k] @ B[k, n]``.

    ``batch`` models batched GEMMs (e.g. per-head attention score GEMMs
    executed for every head and every sequence in the batch).

    Attributes:
        m, n, k: GEMM dimensions.
        batch: Number of independent GEMMs with these dimensions.
        weight_operand: Whether the ``B`` operand is a model weight.  Weight
            operands are shared across the batch dimension, and during
            autoregressive decoding they dominate the memory traffic.
        accumulate: Whether the output is accumulated into an existing buffer
            (doubles the write-side traffic of the C operand).
    """

    m: int = 1
    n: int = 1
    k: int = 1
    batch: int = 1
    weight_operand: bool = False
    accumulate: bool = False

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k, self.batch) < 1:
            raise ConfigurationError(f"GEMM {self.name}: m, n, k and batch must be >= 1")

    def __hash__(self) -> int:
        # GEMMs key the kernel-time memo caches and get hashed several times
        # per engine step; caching the (immutable) field-tuple hash keeps
        # those lookups cheap.  Consistent with the generated __eq__.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash(
                (
                    self.name,
                    self.precision,
                    self.m,
                    self.n,
                    self.k,
                    self.batch,
                    self.weight_operand,
                    self.accumulate,
                )
            )
            object.__setattr__(self, "_hash", value)
        return value

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.GEMM

    @property
    def element_bytes(self) -> float:
        """Bytes per element at the kernel's precision."""
        return self.precision.bytes_per_element

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k * self.batch

    @property
    def a_bytes(self) -> float:
        """Bytes of the activation (A) operand across the whole batch."""
        return self.m * self.k * self.batch * self.element_bytes

    @property
    def b_bytes(self) -> float:
        """Bytes of the B operand (weights are not replicated across the batch)."""
        replication = 1 if self.weight_operand else self.batch
        return self.k * self.n * replication * self.element_bytes

    @property
    def c_bytes(self) -> float:
        """Bytes of the output (C) operand across the whole batch."""
        return self.m * self.n * self.batch * self.element_bytes

    @property
    def bytes_read(self) -> float:
        read = self.a_bytes + self.b_bytes
        if self.accumulate:
            read += self.c_bytes
        return read

    @property
    def bytes_written(self) -> float:
        return self.c_bytes

    @property
    def is_gemv_like(self) -> bool:
        """True when one output dimension is tiny (skinny GEMM / GEMV)."""
        return min(self.m, self.n) <= 16

    @property
    def shape(self) -> tuple:
        """The ``(m, n, k, batch)`` tuple, handy in tests and reports."""
        return (self.m, self.n, self.k, self.batch)

    def scaled_batch(self, factor: int) -> "GEMM":
        """Return a copy with the batch count multiplied by ``factor``."""
        return dataclasses.replace(self, batch=self.batch * factor)


def make_gemv(name: str, rows: int, cols: int, precision: Precision = Precision.FP16, batch: int = 1) -> GEMM:
    """Create a matrix-vector multiply ``y[rows] = W[rows, cols] @ x[cols]``."""
    return GEMM(
        name=name,
        precision=precision,
        m=1,
        n=rows,
        k=cols,
        batch=batch,
        weight_operand=True,
    )


@dataclasses.dataclass(frozen=True)
class ElementwiseOp(Operator):
    """An element-wise kernel (GELU, bias add, dropout, residual add, ...).

    Attributes:
        num_elements: Number of elements processed.
        flops_per_element: Arithmetic cost per element (e.g. ~8 for GELU).
        reads_per_element: Operand streams read per element (2 for a residual add).
        writes_per_element: Output streams written per element.
        extra_bytes_per_element: Extra traffic per element outside the main
            streams (e.g. a 1-byte dropout mask).
    """

    num_elements: int = 0
    flops_per_element: float = 1.0
    reads_per_element: float = 1.0
    writes_per_element: float = 1.0
    extra_bytes_per_element: float = 0.0

    def __post_init__(self) -> None:
        if self.num_elements < 0:
            raise ConfigurationError(f"{self.name}: num_elements must be non-negative")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.ELEMENTWISE

    @property
    def flops(self) -> float:
        return self.num_elements * self.flops_per_element

    @property
    def bytes_read(self) -> float:
        per_element = self.reads_per_element * self.precision.bytes_per_element + self.extra_bytes_per_element
        return self.num_elements * per_element

    @property
    def bytes_written(self) -> float:
        return self.num_elements * self.writes_per_element * self.precision.bytes_per_element


@dataclasses.dataclass(frozen=True)
class NormalizationOp(Operator):
    """A normalization kernel: softmax, layer-norm, or RMS-norm.

    Attributes:
        num_elements: Number of elements normalized.
        flops_per_element: Arithmetic cost per element (softmax ~5, layernorm ~8).
        variant: ``"softmax"``, ``"layernorm"`` or ``"rmsnorm"``; informational.
    """

    num_elements: int = 0
    flops_per_element: float = 5.0
    variant: str = "softmax"

    def __post_init__(self) -> None:
        if self.num_elements < 0:
            raise ConfigurationError(f"{self.name}: num_elements must be non-negative")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.NORMALIZATION

    @property
    def flops(self) -> float:
        return self.num_elements * self.flops_per_element

    @property
    def bytes_read(self) -> float:
        return self.num_elements * self.precision.bytes_per_element

    @property
    def bytes_written(self) -> float:
        return self.num_elements * self.precision.bytes_per_element


@dataclasses.dataclass(frozen=True)
class MemoryOp(Operator):
    """A pure data-movement kernel, e.g. reading or appending the KV-cache."""

    bytes_moved: float = 0.0
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.bytes_moved < 0:
            raise ConfigurationError(f"{self.name}: bytes_moved must be non-negative")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.MEMORY

    @property
    def flops(self) -> float:
        return 0.0

    @property
    def bytes_read(self) -> float:
        return 0.0 if self.is_write else self.bytes_moved

    @property
    def bytes_written(self) -> float:
        return self.bytes_moved if self.is_write else 0.0


class CollectiveKind(enum.Enum):
    """Type of a communication collective."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    POINT_TO_POINT = "point_to_point"
    BROADCAST = "broadcast"


@dataclasses.dataclass(frozen=True)
class CommunicationOp(Operator):
    """A collective or point-to-point communication between devices.

    Attributes:
        collective: The collective type.
        data_bytes: Payload size per participating device in bytes.
        group_size: Number of devices participating.
        scope: ``"intra_node"`` or ``"inter_node"``; decides which fabric is used.
    """

    collective: CollectiveKind = CollectiveKind.ALL_REDUCE
    data_bytes: float = 0.0
    group_size: int = 1
    scope: str = "intra_node"

    def __post_init__(self) -> None:
        if self.data_bytes < 0:
            raise ConfigurationError(f"{self.name}: data_bytes must be non-negative")
        if self.group_size < 1:
            raise ConfigurationError(f"{self.name}: group_size must be at least 1")

    @property
    def kind(self) -> OperatorKind:
        return OperatorKind.COMMUNICATION

    @property
    def flops(self) -> float:
        return 0.0

    @property
    def bytes_read(self) -> float:
        return self.data_bytes

    @property
    def bytes_written(self) -> float:
        return self.data_bytes

    @property
    def is_trivial(self) -> bool:
        """A collective over one device (or no data) costs nothing."""
        return self.group_size <= 1 or self.data_bytes == 0


# ---------------------------------------------------------------------------
# Column views: one operator at many sizes.
# ---------------------------------------------------------------------------


class GemmColumns(NamedTuple):
    """A :class:`GEMM` at many shapes; each dimension is an integer or an integer array."""

    name: str
    precision: Precision
    m: Any
    n: Any
    k: Any
    batch: Any = 1
    weight_operand: bool = False
    accumulate: bool = False


class StreamColumns(NamedTuple):
    """A memory-bound kernel at many sizes: its flops and bytes, one entry per size."""

    name: str
    flops: Any
    bytes_read: Any
    bytes_written: Any

    @property
    def bytes_total(self) -> Any:
        """Total memory traffic per size, summed like :attr:`Operator.bytes_total`."""
        return self.bytes_read + self.bytes_written


class CollectiveColumns(NamedTuple):
    """A :class:`CommunicationOp` at many payload sizes."""

    name: str
    collective: CollectiveKind
    data_bytes: Any
    group_size: int
    scope: str


def operator_columns(op_type: type, **fields: Any):
    """The column view of ``op_type(**fields)`` whose size fields are integer arrays.

    GEMMs and collectives keep their fields.  A memory-bound kernel's flops
    and bytes come from running its class's own property code on the array
    fields, so every entry equals what the property returns at that size
    (integer sizes are exact in float64 below ``2**53``).
    """
    if op_type is GEMM:
        return GemmColumns(**fields)
    if op_type is CommunicationOp:
        return CollectiveColumns(**fields)
    values = {field.name: field.default for field in dataclasses.fields(op_type)}
    values.update(fields)
    view = types.SimpleNamespace(**values)
    return StreamColumns(
        fields["name"], op_type.flops.fget(view), op_type.bytes_read.fget(view), op_type.bytes_written.fget(view)
    )
