"""Structured result objects produced by the performance-prediction engine.

Reports deliberately store plain floats (seconds / bytes) plus enough context
to regenerate the paper's tables and figures: a per-kernel breakdown with
bound types, the compute / communication / other decomposition used by the
GPU-generation scaling study, and the memory footprints.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List

from ..memmodel.footprint import InferenceMemoryBreakdown, TrainingMemoryBreakdown
from ..perf.roofline import BoundType, RooflinePoint
from ..units import to_milliseconds
from ..workload.operators import Operator


@dataclasses.dataclass(frozen=True)
class KernelTimeEntry:
    """Aggregated timing of one kernel type.

    Attributes:
        name: Kernel name (e.g. ``"mlp_h_to_4h"``).
        time: Time of a single invocation, in seconds.
        count: Number of invocations included in the aggregate.
        bound: The limiting resource of a single invocation.
        flops: FLOPs of a single invocation.
        bytes_moved: DRAM bytes of a single invocation.
    """

    name: str
    time: float
    count: int
    bound: BoundType
    flops: float = 0.0
    bytes_moved: float = 0.0

    @property
    def total_time(self) -> float:
        """Time across all invocations."""
        return self.time * self.count

    @property
    def is_compute_bound(self) -> bool:
        """Whether a single invocation is compute bound."""
        return self.bound is BoundType.COMPUTE

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict view (the bound type becomes its string value)."""
        data = dataclasses.asdict(self)
        data["bound"] = self.bound.value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KernelTimeEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        data = dict(data)
        data["bound"] = BoundType(data["bound"])
        return cls(**data)


def dram_bytes(point: RooflinePoint, op: Operator) -> float:
    """The DRAM bytes a breakdown entry reports for one priced kernel.

    Every catalog memory hierarchy names its outermost level ``DRAM``; only a
    hierarchy without one falls back to the op's total traffic, so that
    (summed) property is computed only when it is needed.
    """
    value = point.level_bytes.get("DRAM")
    return op.bytes_total if value is None else value


@dataclasses.dataclass(frozen=True)
class TrainingReport:
    """End-to-end prediction of one distributed training step.

    All times are seconds per global batch (one optimizer step).
    """

    model_name: str
    system_name: str
    parallelism_label: str
    global_batch_size: int
    seq_len: int
    recompute_strategy: str

    compute_time: float
    recompute_time: float
    tp_communication_time: float
    pp_communication_time: float
    dp_communication_time: float
    bubble_time: float
    weight_update_time: float

    memory: TrainingMemoryBreakdown
    kernel_breakdown: List[KernelTimeEntry] = dataclasses.field(default_factory=list)

    @property
    def communication_time(self) -> float:
        """All network time: tensor-, pipeline-, and data-parallel collectives."""
        return self.tp_communication_time + self.pp_communication_time + self.dp_communication_time

    @property
    def other_time(self) -> float:
        """The paper's "other" category: pipeline bubbles plus the weight update."""
        return self.bubble_time + self.weight_update_time

    @property
    def step_time(self) -> float:
        """Total time per training step (per global batch), in seconds."""
        return self.compute_time + self.recompute_time + self.communication_time + self.other_time

    @property
    def step_time_ms(self) -> float:
        """Step time in milliseconds."""
        return to_milliseconds(self.step_time)

    def breakdown(self) -> Dict[str, float]:
        """The compute / communication / other decomposition (seconds)."""
        return {
            "compute": self.compute_time + self.recompute_time,
            "communication": self.communication_time,
            "other": self.other_time,
            "total": self.step_time,
        }

    def throughput_tokens_per_second(self) -> float:
        """Training throughput in tokens per second."""
        tokens = self.global_batch_size * self.seq_len
        return tokens / self.step_time if self.step_time > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict view of the whole report, memory breakdown included."""
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name not in ("memory", "kernel_breakdown")
        }
        data["memory"] = self.memory.to_dict()
        data["kernel_breakdown"] = [entry.to_dict() for entry in self.kernel_breakdown]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrainingReport":
        """Rebuild a report from :meth:`to_dict` output."""
        data = dict(data)
        data["memory"] = TrainingMemoryBreakdown.from_dict(data["memory"])
        data["kernel_breakdown"] = [KernelTimeEntry.from_dict(entry) for entry in data.get("kernel_breakdown", [])]
        return cls(**data)

    def to_json(self, **kwargs: object) -> str:
        """Serialize the report to a JSON string."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "TrainingReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass(frozen=True)
class PhaseReport:
    """Timing of one inference phase (prefill or the whole generation phase)."""

    name: str
    device_time: float
    communication_time: float
    compute_bound_time: float
    memory_bound_time: float
    kernel_breakdown: List[KernelTimeEntry] = dataclasses.field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Device kernels plus communication for this phase."""
        return self.device_time + self.communication_time

    @property
    def compute_bound_fraction(self) -> float:
        """Fraction of GEMM time spent in compute-bound kernels."""
        denominator = self.compute_bound_time + self.memory_bound_time
        return self.compute_bound_time / denominator if denominator > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict view."""
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name != "kernel_breakdown"
        }
        data["kernel_breakdown"] = [entry.to_dict() for entry in self.kernel_breakdown]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PhaseReport":
        """Rebuild a phase report from :meth:`to_dict` output."""
        data = dict(data)
        data["kernel_breakdown"] = [KernelTimeEntry.from_dict(entry) for entry in data.get("kernel_breakdown", [])]
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class InferenceReport:
    """End-to-end prediction of one inference request (prefill + generation)."""

    model_name: str
    system_name: str
    tensor_parallel: int
    batch_size: int
    prompt_tokens: int
    generated_tokens: int

    prefill: PhaseReport
    decode: PhaseReport
    memory: InferenceMemoryBreakdown

    @property
    def total_latency(self) -> float:
        """End-to-end latency in seconds."""
        return self.prefill.total_time + self.decode.total_time

    @property
    def total_latency_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return to_milliseconds(self.total_latency)

    @property
    def time_per_output_token(self) -> float:
        """Average decode time per generated token, in seconds."""
        if self.generated_tokens == 0:
            return 0.0
        return self.decode.total_time / self.generated_tokens

    @property
    def communication_time(self) -> float:
        """Total network time of the request."""
        return self.prefill.communication_time + self.decode.communication_time

    @property
    def device_time(self) -> float:
        """Total on-device kernel time of the request."""
        return self.prefill.device_time + self.decode.device_time

    def breakdown(self) -> Dict[str, float]:
        """The memory / communication decomposition used by the paper's Fig. 9."""
        return {
            "memory": self.device_time,
            "communication": self.communication_time,
            "total": self.total_latency,
        }

    def throughput_tokens_per_second(self) -> float:
        """Generation throughput: generated tokens per second across the batch."""
        if self.decode.total_time <= 0:
            return 0.0
        return self.batch_size * self.generated_tokens / self.decode.total_time

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict view of the whole report, phases and memory included."""
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name not in ("prefill", "decode", "memory")
        }
        data["prefill"] = self.prefill.to_dict()
        data["decode"] = self.decode.to_dict()
        data["memory"] = self.memory.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InferenceReport":
        """Rebuild a report from :meth:`to_dict` output."""
        data = dict(data)
        data["prefill"] = PhaseReport.from_dict(data["prefill"])
        data["decode"] = PhaseReport.from_dict(data["decode"])
        data["memory"] = InferenceMemoryBreakdown.from_dict(data["memory"])
        return cls(**data)

    def to_json(self, **kwargs: object) -> str:
        """Serialize the report to a JSON string."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "InferenceReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass(frozen=True)
class GemmBottleneckEntry:
    """One row of the per-GEMM bottleneck table (paper Table 4)."""

    name: str
    time: float
    bound: BoundType
    m: int
    n: int
    k: int
    batch: int = 1
    arithmetic_intensity: float = 0.0

    @property
    def time_us(self) -> float:
        """Time in microseconds (the unit Table 4 uses)."""
        return self.time * 1e6

    @property
    def bound_label(self) -> str:
        """``"compute"`` or ``"memory"`` (cache-bound counts as memory)."""
        return "compute" if self.bound is BoundType.COMPUTE else "memory"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict view (the bound type becomes its string value)."""
        data = dataclasses.asdict(self)
        data["bound"] = self.bound.value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GemmBottleneckEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        data = dict(data)
        data["bound"] = BoundType(data["bound"])
        return cls(**data)


def aggregate_kernel_entries(entries: List[KernelTimeEntry]) -> Dict[str, KernelTimeEntry]:
    """Merge kernel entries that share a name by summing their counts."""
    merged: Dict[str, KernelTimeEntry] = {}
    for entry in entries:
        if entry.name in merged:
            existing = merged[entry.name]
            merged[entry.name] = dataclasses.replace(existing, count=existing.count + entry.count)
        else:
            merged[entry.name] = entry
    return merged
