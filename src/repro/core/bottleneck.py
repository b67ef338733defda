"""Compute- versus memory-boundedness analysis at the matrix-multiply level.

These helpers produce the paper's per-GEMM bottleneck views:

* :func:`prefill_gemm_table` regenerates Table 4 -- the time and bound type of
  every matrix-multiply function of one transformer layer during the
  summarization (prefill) phase of inference,
* :func:`gemm_time_by_bound` regenerates the stacked compute-/memory-bound
  bars of Fig. 8 (inference) and Fig. 7 (training, via the training model),
* :func:`attention_layer_bound_breakdown` feeds the technology-node sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..caching import Memo
from ..hardware.accelerator import AcceleratorSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from ..perf.gemm import GemmTimeModel
from ..perf.kernels import DeviceKernelModel
from ..perf.roofline import BoundType, RooflinePoint
from ..workload.operators import GEMM
from ..workload.transformer_layer import layer_template
from .reports import GemmBottleneckEntry


def layer_gemms(
    model: TransformerConfig,
    batch_size: int,
    seq_len: int,
    kv_len: int,
    tensor_parallel: int,
    precision: Precision,
    use_kv_cache: bool,
    templates: Optional[Memo] = None,
) -> List[GEMM]:
    """The forward GEMMs of one inference layer at the given shapes.

    This is the workload description behind :func:`prefill_gemm_table` and
    :func:`decode_gemm_table`; the cross-scenario batch planner
    (:mod:`repro.sweep.batchplan`) reuses it, with its own memo of layer
    ``templates``, to collect the same queries without pricing them.
    """
    template = layer_template(
        templates,
        model,
        tensor_parallel=tensor_parallel,
        precision=precision,
        with_dropout=False,
        use_kv_cache=use_kv_cache,
    )
    return template.forward_gemms(batch_size, seq_len, kv_len)


def entries_from_points(gemms: List[GEMM], points: List[RooflinePoint]) -> List[GemmBottleneckEntry]:
    """Shape evaluated roofline points into the table's bottleneck rows.

    The row assembly of the scalar path (:func:`prefill_gemm_table` /
    :func:`decode_gemm_table`).  The cross-scenario batch planner
    (:mod:`repro.sweep.batchplan`) builds the same entries straight from its
    batch result's columns, one per distinct GEMM row, and every table of
    the batch that prices that GEMM shares it; ``tests/sweep/test_batchplan.py``
    pins the two paths to equal tables.
    """
    return [
        GemmBottleneckEntry(
            name=gemm.name,
            time=point.time,
            bound=point.bound,
            m=gemm.m,
            n=gemm.n,
            k=gemm.k,
            batch=gemm.batch,
            arithmetic_intensity=point.arithmetic_intensity,
        )
        for gemm, point in zip(gemms, points)
    ]


def _bottleneck_entries(gemm_model: GemmTimeModel, gemms: List[GEMM]) -> List[GemmBottleneckEntry]:
    """Evaluate the table's GEMMs in one batched call and shape the rows."""
    return entries_from_points(gemms, gemm_model.evaluate_many(gemms))


def prefill_gemm_table(
    model: TransformerConfig,
    accelerator: AcceleratorSpec,
    batch_size: int = 1,
    prompt_tokens: int = 200,
    tensor_parallel: int = 1,
    precision: Precision = Precision.FP16,
    gemm_model: Optional[GemmTimeModel] = None,
) -> List[GemmBottleneckEntry]:
    """Per-GEMM time and bound type for one layer of the prefill phase (Table 4)."""
    gemm_model = gemm_model or GemmTimeModel(accelerator=accelerator)
    gemms = layer_gemms(
        model,
        batch_size=batch_size,
        seq_len=prompt_tokens,
        kv_len=prompt_tokens,
        tensor_parallel=tensor_parallel,
        precision=precision,
        use_kv_cache=False,
    )
    return _bottleneck_entries(gemm_model, gemms)


def decode_gemm_table(
    model: TransformerConfig,
    accelerator: AcceleratorSpec,
    batch_size: int = 1,
    kv_len: int = 200,
    tensor_parallel: int = 1,
    precision: Precision = Precision.FP16,
    gemm_model: Optional[GemmTimeModel] = None,
) -> List[GemmBottleneckEntry]:
    """Per-GEMM time and bound type for one decode step attending to ``kv_len`` tokens."""
    gemm_model = gemm_model or GemmTimeModel(accelerator=accelerator)
    gemms = layer_gemms(
        model,
        batch_size=batch_size,
        seq_len=1,
        kv_len=kv_len,
        tensor_parallel=tensor_parallel,
        precision=precision,
        use_kv_cache=True,
    )
    return _bottleneck_entries(gemm_model, gemms)


def gemm_time_by_bound(entries: List[GemmBottleneckEntry]) -> Dict[str, float]:
    """Sum the GEMM time of a table by bound type (``compute`` / ``memory``)."""
    totals = {"compute": 0.0, "memory": 0.0}
    for entry in entries:
        totals[entry.bound_label] += entry.time
    totals["total"] = totals["compute"] + totals["memory"]
    totals["compute_fraction"] = totals["compute"] / totals["total"] if totals["total"] > 0 else 0.0
    return totals


def attention_layer_gemms(
    model: TransformerConfig,
    micro_batch: int,
    seq_len: int,
    tensor_parallel: int = 1,
    precision: Precision = Precision.FP16,
    templates: Optional[Memo] = None,
) -> List[GEMM]:
    """The forward GEMMs of the training-layer bound breakdown below (``templates`` as in :func:`layer_gemms`)."""
    template = layer_template(templates, model, tensor_parallel=tensor_parallel, precision=precision)
    return template.forward_gemms(micro_batch, seq_len)


def attention_layer_bound_breakdown(
    model: TransformerConfig,
    accelerator: AcceleratorSpec,
    micro_batch: int,
    seq_len: int,
    tensor_parallel: int = 1,
    precision: Precision = Precision.FP16,
    kernel_model: Optional[DeviceKernelModel] = None,
) -> Dict[str, float]:
    """Compute- vs memory-bound GEMM time of one *training* transformer layer.

    Used by the technology-node scaling study (paper Fig. 7): as the logic
    node advances and compute throughput grows, GEMMs that used to be compute
    bound become DRAM bound.  Passing a ``kernel_model`` (for the same
    accelerator) reuses its memoized GEMM evaluations; the numbers are
    unchanged.
    """
    if kernel_model is None:
        kernel_model = DeviceKernelModel(accelerator=accelerator)
    compute_bound = 0.0
    memory_bound = 0.0
    gemms = attention_layer_gemms(
        model,
        micro_batch=micro_batch,
        seq_len=seq_len,
        tensor_parallel=tensor_parallel,
        precision=precision,
    )
    for point in kernel_model.gemm_model.evaluate_many(gemms):
        if point.bound is BoundType.COMPUTE:
            compute_bound += point.time
        else:
            memory_bound += point.time
    return {
        "compute_bound": compute_bound,
        "memory_bound": memory_bound,
        "total": compute_bound + memory_bound,
    }
