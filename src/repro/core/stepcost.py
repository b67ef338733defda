"""Step-cost API: price one prefill or one decode step of an inference engine.

This module is the reusable pricing core that both the end-to-end
:class:`~repro.core.inference.InferencePerformanceModel` and the serving
simulator (:mod:`repro.serving`) are built on.  It answers three questions
directly:

* **What does one prefill over this set of prompt lengths cost?**
  (:meth:`StepCostModel.prefill_step`) -- a continuous-batching engine packs
  the admitted prompts into one forward pass: the weight GEMMs see the
  *total* token count, while attention stays per-sequence.
* **What does one decode step over this mixed batch of per-request KV
  lengths cost?** (:meth:`StepCostModel.decode_step`) -- one token per
  request through the weight GEMMs, plus one attention-scores/context GEMM
  pair per request at its own KV-cache length.
* **What do ``k`` consecutive decode steps of a fixed batch cost?**
  (:meth:`StepCostModel.decode_run`) -- between two composition changes of a
  continuous-batching engine the decode batch is identical except for every
  KV length advancing by one per step, so the whole steps x batch KV-length
  matrix is priced at once.

The serving paths (:meth:`~StepCostModel.prefill_step` and
:meth:`~StepCostModel.decode_run`) price from length-indexed tables, one set
per (model, TP degree, precision): decode attention by KV length, prefill
attention by prompt length, the token kernels' partial sums by token count,
the lm head by logits-row count, and the TP collective time by token count.
A table grows over a contiguous range of lengths with one batched
evaluation (:mod:`repro.perf.batched`, the memory-bound kernel model's
column entry point, the collective model's ``evaluate_batch``) of the column
views a :class:`~repro.workload.transformer_layer.LayerTemplate` renders.
A step is then one gather plus one sequential ``cumsum`` per time bin, in
the scalar accumulation order, so its cost is bit-identical to pricing the
step's operators one by one.

That scalar pricing stays as the reference: :meth:`~StepCostModel.decode_step`
and ``_price_step`` walk the template's operator objects through the kernel
memos (:meth:`GemmTimeModel.evaluate_many
<repro.perf.gemm.GemmTimeModel.evaluate_many>` warms them in one batched
call).  The template, one per (model, TP degree, precision) and held by the
model for its lifetime, builds the token-count kernels once per token count
and each request's attention core once per (query, KV) length, in the order
the step accumulations sum them.

The module also hosts the phase-report builders
(:meth:`StepCostModel.phase_report`, :meth:`StepCostModel.decode_report_exact`)
that :meth:`InferencePerformanceModel.predict
<repro.core.inference.InferencePerformanceModel.predict>` is reimplemented on
top of; their numbers are bit-identical to the pre-refactor scalar path
(pinned by ``tests/core/test_inference_golden.py``).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..caching import Memo
from ..comm.collectives import CollectiveAlgorithm
from ..comm.fabric import CollectiveBatch, CollectiveModel, shared_collective_model
from ..errors import ConfigurationError
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from ..perf.kernels import DeviceKernelModel
from ..perf.roofline import BoundType
from ..workload.operators import GEMM, GemmColumns, Operator
from ..workload.transformer_layer import LayerTemplate, layer_template
from .reports import KernelTimeEntry, PhaseReport, dram_bytes


@dataclasses.dataclass(frozen=True)
class StepCost:
    """Cost of one engine step (a prefill or a decode iteration).

    Attributes:
        device_time: On-device kernel time of the step, in seconds.
        communication_time: Tensor-parallel collective time of the step.
        compute_bound_time: GEMM time spent in compute-bound kernels.
        memory_bound_time: GEMM time spent in memory/cache-bound kernels.
        num_requests: Requests processed by the step.
        tokens: Query tokens processed by the step (total prompt tokens for a
            prefill, one per request for a decode step).
    """

    device_time: float
    communication_time: float
    compute_bound_time: float
    memory_bound_time: float
    num_requests: int = 0
    tokens: int = 0

    @property
    def total_time(self) -> float:
        """Wall-clock time of the step: device kernels plus communication."""
        return self.device_time + self.communication_time

    @property
    def is_idle(self) -> bool:
        """Whether the step priced no work at all."""
        return self.num_requests == 0


ZERO_STEP = StepCost(0.0, 0.0, 0.0, 0.0)


@dataclasses.dataclass(frozen=True)
class DecodeRun:
    """Cost of ``num_steps`` consecutive decode steps over a fixed batch.

    Produced by :meth:`StepCostModel.decode_run`.  All arrays are
    ``float64`` of shape ``(num_steps,)``; entry ``s`` is bit-identical to
    the corresponding field of the :class:`StepCost` a scalar
    :meth:`StepCostModel.decode_step` call at the step's KV lengths returns.

    Attributes:
        device_times: On-device kernel time per step.
        communication_time: Tensor-parallel collective time of each step
            (constant across the epoch -- it depends only on the batch size).
        compute_bound_times: GEMM time in compute-bound kernels per step.
        memory_bound_times: GEMM time in memory/cache-bound kernels per step.
        total_times: Wall-clock time per step (device + communication).
        num_requests: Requests decoded together in every step.
    """

    device_times: np.ndarray
    communication_time: float
    compute_bound_times: np.ndarray
    memory_bound_times: np.ndarray
    total_times: np.ndarray
    num_requests: int

    @property
    def num_steps(self) -> int:
        """Number of decode steps the run prices."""
        return int(self.device_times.shape[0])

    def step_costs(self) -> List[StepCost]:
        """Materialize the per-step :class:`StepCost` objects."""
        return [
            StepCost(
                device_time=float(self.device_times[step]),
                communication_time=self.communication_time,
                compute_bound_time=float(self.compute_bound_times[step]),
                memory_bound_time=float(self.memory_bound_times[step]),
                num_requests=self.num_requests,
                tokens=self.num_requests,
            )
            for step in range(self.num_steps)
        ]


_EMPTY_TIMES = np.zeros(0, dtype=np.float64)

#: Smallest size a length table grows to.
_MIN_TABLE_SIZE = 256
#: Configurations (model, TP degree, precision) whose tables one model keeps.
_MAX_TABLE_CONFIGS = 64


class _LengthTable:
    """Step terms of one kernel group at every length below ``high``.

    ``terms`` holds the lengths on axis 1.  Growth builds a new array in
    full (old rows copied, new rows priced), publishes it, and only then
    raises ``high``; rows below ``high`` are never written again.  A reader
    that checks ``high`` before it reads ``terms`` therefore gathers from an
    array that covers what it checked, without taking a lock.
    """

    __slots__ = ("terms", "high")

    def __init__(self) -> None:
        self.terms = _EMPTY_TIMES
        self.high = 0


class _StepTables:
    """The length-indexed step terms of one (model, TP degree, precision).

    Axis 0 of every table is ``(device, compute-bound, memory-bound)`` as
    :meth:`StepCostModel._kernel_terms` defines them; axis 1 is the length.

    * ``decode_attention``: ``(3, KV length, kernel)`` of one request's
      scores, context and softmax at query length 1 (KV length 0 prices as 1);
    * ``prefill_attention``: the same at query length = KV length = prompt
      length (row 0 is never read);
    * ``tokens``: ``(3, token count)``, the token kernels' sums in step order;
    * ``lm_head``: ``(3, logits rows)``;
    * ``collectives``: ``(1, token count)``, one layer's TP collective time.
    """

    __slots__ = ("template", "scope", "decode_attention", "prefill_attention", "tokens", "lm_head", "collectives")

    def __init__(self, template: LayerTemplate, scope: str) -> None:
        self.template = template
        self.scope = scope
        self.decode_attention = _LengthTable()
        self.prefill_attention = _LengthTable()
        self.tokens = _LengthTable()
        self.lm_head = _LengthTable()
        self.collectives = _LengthTable()


@dataclasses.dataclass
class StepCostModel:
    """Prices individual inference-engine steps on one system.

    Attributes:
        system: The hardware system; steps use ``tensor_parallel`` of its
            devices.
        kernel_model: Device kernel timing model (defaults to the system's
            accelerator with standard GEMV utilization).
        collective_model: Communication model; defaults to the double-binary-
            tree algorithm, the latency-optimal choice for the small messages
            of the decode phase.

    ``cache_hits`` and ``cache_misses`` count lookups in the step tables,
    one per table a :meth:`prefill_step` or :meth:`decode_run` call reads
    (attention, token kernels, lm head, and the collectives when TP > 1): a
    hit when the table already covers the demanded length, a miss when the
    lookup grew it.  The scalar :meth:`decode_step` reads no table and
    counts nothing.
    """

    system: SystemSpec
    kernel_model: Optional[DeviceKernelModel] = None
    collective_model: Optional[CollectiveModel] = None

    def __post_init__(self) -> None:
        if self.kernel_model is None:
            self.kernel_model = DeviceKernelModel(accelerator=self.system.accelerator)
        if self.collective_model is None:
            self.collective_model = shared_collective_model(
                self.system, CollectiveAlgorithm.DOUBLE_BINARY_TREE
            )
        # Layer templates: one per model, TP degree and precision, with
        # their operator groups.
        self._templates = Memo(max_size=64)
        # The length-indexed step tables of each configuration.  They
        # survive across simulations (and across the scenarios of a sweep
        # when the model instance is shared through the engine).
        self._tables: Dict[Tuple, _StepTables] = {}
        # The same tables keyed by the model object's identity, each entry
        # pinning its model so the id cannot be reused while it is here:
        # every step after the first skips hashing the whole config.
        self._tables_by_id: Dict[Tuple, Tuple[TransformerConfig, _StepTables]] = {}
        # Serializes creating, evicting and growing tables: one
        # StepCostModel is shared per system (engine_for), so the study
        # service's job threads price steps concurrently.  Reads stay
        # lock-free (see _LengthTable).
        self._table_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    def tp_scope(self, tensor_parallel: int) -> str:
        """Collective scope of a TP group of the given size on this system."""
        return "intra_node" if tensor_parallel <= self.system.devices_per_node else "inter_node"

    def template(self, model: TransformerConfig, tensor_parallel: int, precision: Precision) -> LayerTemplate:
        """The serving layer template (no SP, no dropout, KV cache) of one model and TP degree."""
        return layer_template(
            self._templates,
            model,
            tensor_parallel=tensor_parallel,
            precision=precision,
            with_dropout=False,
            use_kv_cache=True,
        )

    # -- phase reports (the InferencePerformanceModel backend) -------------------------

    def phase_report(
        self,
        name: str,
        ops: Sequence[Operator],
        comms: Sequence[Operator],
        num_layers: int,
        lm_head: Optional[GEMM],
        repeats: int,
    ) -> PhaseReport:
        """Price one phase: ``repeats`` executions of ``num_layers`` layers.

        ``ops``/``comms`` are one layer's compute kernels and collectives, as
        a layer template's ``forward_compute_ops`` / ``forward_communication``
        return them, so a planning pass can build the workload once and price
        it later.
        """
        device_time = 0.0
        compute_bound_time = 0.0
        memory_bound_time = 0.0
        entries: List[KernelTimeEntry] = []
        for op in ops:
            point = self.kernel_model.evaluate(op)
            time = point.time + self.kernel_model.overhead(op)
            device_time += time * num_layers
            if isinstance(op, GEMM):
                if point.bound is BoundType.COMPUTE:
                    compute_bound_time += point.time * num_layers
                else:
                    memory_bound_time += point.time * num_layers
            entries.append(
                KernelTimeEntry(
                    name=op.name,
                    time=time,
                    count=num_layers * repeats,
                    bound=point.bound,
                    flops=op.flops,
                    bytes_moved=dram_bytes(point, op),
                )
            )
        communication_time = 0.0
        for comm in comms:
            communication_time += self.collective_model.time(comm) * num_layers
        if lm_head is not None:
            head_point, head_time, entry = self.lm_head_entry(lm_head, count=repeats)
            device_time += head_time
            if head_point.bound is BoundType.COMPUTE:
                compute_bound_time += head_point.time
            else:
                memory_bound_time += head_point.time
            entries.append(entry)
        return PhaseReport(
            name=name,
            device_time=device_time * repeats,
            communication_time=communication_time * repeats,
            compute_bound_time=compute_bound_time * repeats,
            memory_bound_time=memory_bound_time * repeats,
            kernel_breakdown=entries,
        )

    def lm_head_entry(self, lm_head: GEMM, count: int):
        """Price the logits GEMM once and shape its breakdown entry.

        Shared by the average and exact decode paths (the lm_head cost does
        not depend on the KV length); callers scale the returned times by
        their own repeat count.
        """
        head_point = self.kernel_model.evaluate(lm_head)
        head_time = head_point.time + self.kernel_model.overhead(lm_head)
        entry = KernelTimeEntry(
            name=lm_head.name,
            time=head_time,
            count=count,
            bound=head_point.bound,
            flops=lm_head.flops,
            bytes_moved=dram_bytes(head_point, lm_head),
        )
        return head_point, head_time, entry

    def decode_report_exact(
        self,
        step_ops: Sequence[Sequence[Operator]],
        comms: Sequence[Operator],
        num_layers: int,
        lm_head: Optional[GEMM],
    ) -> PhaseReport:
        """Price the decode phase with every token at its true KV length.

        ``step_ops`` holds one layer's compute kernels per generated token:
        the KV-cache grows from ``prompt_len`` to ``prompt_len + T - 1`` over
        the ``T`` tokens, so the per-token lists differ only in the
        KV-dependent kernels (attention scores/context, softmax).  ``comms``
        are one step's layer collectives.  All GEMMs of all steps are
        evaluated in **one** call through the vectorized roofline backend;
        the kernel breakdown reports the mean per-invocation time (so
        ``entry.time * entry.count`` stays the exact phase total) and the
        bound type of the median-KV step.
        """
        steps = len(step_ops)
        if steps == 0:
            return PhaseReport(
                name="decode",
                device_time=0.0,
                communication_time=0.0,
                compute_bound_time=0.0,
                memory_bound_time=0.0,
                kernel_breakdown=[],
            )
        # One batched evaluation warms the kernel memo for every GEMM of every
        # step; the per-slot loop below then only takes cache hits.
        self.kernel_model.gemm_model.evaluate_many(
            [op for ops in step_ops for op in ops if isinstance(op, GEMM)]
        )

        device_time = 0.0
        compute_bound_time = 0.0
        memory_bound_time = 0.0
        entries: List[KernelTimeEntry] = []
        median_step = steps // 2
        for slot in zip(*step_ops):
            overhead = self.kernel_model.overhead(slot[0])
            points = [self.kernel_model.evaluate(op) for op in slot]
            slot_kernel_time = sum(point.time for point in points)
            slot_time = slot_kernel_time + overhead * steps
            device_time += slot_time * num_layers
            if isinstance(slot[0], GEMM):
                slot_compute = sum(point.time for point in points if point.bound is BoundType.COMPUTE)
                compute_bound_time += slot_compute * num_layers
                memory_bound_time += (slot_kernel_time - slot_compute) * num_layers
            entries.append(
                KernelTimeEntry(
                    name=slot[0].name,
                    time=slot_time / steps,
                    count=num_layers * steps,
                    bound=points[median_step].bound,
                    flops=sum(op.flops for op in slot) / steps,
                    bytes_moved=sum(dram_bytes(point, op) for op, point in zip(slot, points)) / steps,
                )
            )
        communication_time = 0.0
        for comm in comms:
            communication_time += self.collective_model.time(comm) * num_layers
        communication_time *= steps
        if lm_head is not None:
            head_point, head_time, entry = self.lm_head_entry(lm_head, count=steps)
            device_time += head_time * steps
            if head_point.bound is BoundType.COMPUTE:
                compute_bound_time += head_point.time * steps
            else:
                memory_bound_time += head_point.time * steps
            entries.append(entry)
        return PhaseReport(
            name="decode",
            device_time=device_time,
            communication_time=communication_time,
            compute_bound_time=compute_bound_time,
            memory_bound_time=memory_bound_time,
            kernel_breakdown=entries,
        )

    # -- mixed-batch step costs: the scalar reference ---------------------------------
    #
    # decode_step and _price_step price the template's operator objects
    # through the kernel memos, one step at a time.  They are the oracle the
    # table-priced paths below are tested against, and the decode path of
    # ServingSimulator(fused=False).

    def _token_ops(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> Tuple[Operator, ...]:
        """Kernels whose cost depends only on the *total* token count.

        A continuous-batching engine concatenates the step's query tokens into
        one activation matrix, so the weight GEMMs (QKV / attention output /
        MLP), the layer-norms, residuals, and the KV-cache append all see
        ``tokens`` rows regardless of how those rows split across requests.
        """
        return self.template(model, tensor_parallel, precision).step_token_ops(tokens)

    def _attention_ops(
        self,
        model: TransformerConfig,
        seq_len: int,
        kv_len: int,
        tensor_parallel: int,
        precision: Precision,
    ) -> Tuple[Operator, ...]:
        """Per-request attention kernels: scores and context GEMMs plus softmax."""
        return self.template(model, tensor_parallel, precision).step_attention_ops(seq_len, max(1, kv_len))

    def _layer_comm_time(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> float:
        """Tensor-parallel collective time of one layer over ``tokens`` query tokens."""
        if tensor_parallel <= 1:
            return 0.0
        comms = self.template(model, tensor_parallel, precision).forward_communication(
            tokens, self.tp_scope(tensor_parallel)
        )
        return sum(self.collective_model.time(comm) for comm in comms)

    def _price_step(
        self,
        model: TransformerConfig,
        layer_ops: Sequence[Operator],
        tensor_parallel: int,
        precision: Precision,
        num_requests: int,
        tokens: int,
        include_lm_head: bool,
    ) -> StepCost:
        """Price ``num_layers x layer_ops`` plus collectives and the lm_head."""
        gemms = [op for op in layer_ops if isinstance(op, GEMM)]
        lm_head = None
        if include_lm_head:
            lm_head = self.template(model, tensor_parallel, precision).lm_head(num_requests)
            gemms.append(lm_head)
        # One batched call warms the kernel memo for every GEMM of the step;
        # the per-op loop below then only takes cache hits.
        points = self.kernel_model.gemm_model.evaluate_many(gemms)

        num_layers = model.num_layers
        device_time = 0.0
        compute_bound_time = 0.0
        memory_bound_time = 0.0
        evaluate = self.kernel_model.evaluate
        overhead = self.kernel_model.overhead
        for op in layer_ops:
            point = evaluate(op)
            point_time = point.time
            device_time += point_time + overhead(op)
            if isinstance(op, GEMM):
                if point.bound is BoundType.COMPUTE:
                    compute_bound_time += point_time
                else:
                    memory_bound_time += point_time
        device_time *= num_layers
        compute_bound_time *= num_layers
        memory_bound_time *= num_layers

        communication_time = self._layer_comm_time(model, tokens, tensor_parallel, precision) * num_layers

        if lm_head is not None:
            head_point = points[-1]
            head_time = head_point.time
            device_time += head_time + self.kernel_model.overhead(lm_head)
            if head_point.bound is BoundType.COMPUTE:
                compute_bound_time += head_time
            else:
                memory_bound_time += head_time

        return StepCost(
            device_time=device_time,
            communication_time=communication_time,
            compute_bound_time=compute_bound_time,
            memory_bound_time=memory_bound_time,
            num_requests=num_requests,
            tokens=tokens,
        )

    def decode_step(
        self,
        model: TransformerConfig,
        kv_lens: Sequence[int],
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        include_lm_head: bool = True,
    ) -> StepCost:
        """Cost of one decode step over a mixed batch of per-request KV lengths.

        Each request contributes one query token to the shared weight GEMMs
        and one attention-scores/context pair at its own KV-cache length
        ``kv_lens[i]`` -- exactly the mixed-shape batch the vectorized
        roofline backend evaluates in one call.
        """
        kv_lens = [int(length) for length in kv_lens]
        if not kv_lens:
            return ZERO_STEP
        layer_ops: List[Operator] = list(self._token_ops(model, len(kv_lens), tensor_parallel, precision))
        for kv_len in kv_lens:
            layer_ops.extend(self._attention_ops(model, 1, kv_len, tensor_parallel, precision))
        return self._price_step(
            model,
            layer_ops,
            tensor_parallel,
            precision,
            num_requests=len(kv_lens),
            tokens=len(kv_lens),
            include_lm_head=include_lm_head,
        )

    # -- length-indexed step tables (the serving-simulator backend) --------------------

    def _step_tables(self, model: TransformerConfig, tensor_parallel: int, precision: Precision) -> _StepTables:
        """The step tables of one configuration, created on first use.

        Equal (not just identical) configurations share one set of tables.
        """
        pinned = self._tables_by_id.get((id(model), tensor_parallel, precision))
        if pinned is not None:
            return pinned[1]
        key = (model, tensor_parallel, precision)
        with self._table_lock:
            tables = self._tables.get(key)
            if tables is None:
                if len(self._tables) >= _MAX_TABLE_CONFIGS:
                    # Evict the oldest configuration only: clearing
                    # everything would throw away the warm tables of the
                    # others.  Identity entries may name it, so they go.
                    self._tables.pop(next(iter(self._tables)))
                    self._tables_by_id = {}
                tables = _StepTables(self.template(model, tensor_parallel, precision), self.tp_scope(tensor_parallel))
                self._tables[key] = tables
            if len(self._tables_by_id) >= _MAX_TABLE_CONFIGS:
                self._tables_by_id = {}
            self._tables_by_id[(id(model), tensor_parallel, precision)] = (model, tables)
        return tables

    def _cover(
        self, table: _LengthTable, demand: int, price: Callable[..., np.ndarray], *args: object
    ) -> np.ndarray:
        """``table``'s terms, grown first when they stop below length ``demand``.

        Growth prices the new lengths ``[high, size)`` with one
        ``price(*args, lengths)`` call, ``size = max(demand, 2 * high, 256)``,
        so one growth prices at most about twice the demanded lengths.
        Counts one cache hit when the table already covers ``demand`` and one
        miss when this lookup grew it.
        """
        if demand <= table.high:
            self.cache_hits += 1
            return table.terms
        with self._table_lock:
            high = table.high
            if demand > high:
                size = max(demand, 2 * high, _MIN_TABLE_SIZE)
                fresh = price(*args, np.arange(high, size, dtype=np.int64))
                terms = np.empty(fresh.shape[:1] + (size,) + fresh.shape[2:], dtype=np.float64)
                if high:
                    terms[:, :high] = table.terms[:, :high]
                terms[:, high:] = fresh
                table.terms = terms
                table.high = size
                self.cache_misses += 1
                return terms
        self.cache_hits += 1  # another thread grew it meanwhile
        return table.terms

    def _kernel_terms(self, kernels: Sequence, size: int) -> np.ndarray:
        """Step terms of column-view kernels, shape ``(3, len(kernels), size)``.

        Row 0 holds each kernel's ``point.time + overhead``, the term the
        scalar accumulation of :meth:`_price_step` adds to the device time.
        Rows 1 and 2 hold a GEMM's bare kernel time in its bound's bin
        (compute, then memory/cache) and 0.0 in the other; memory-bound
        kernels only add to the device time.  Adding 0.0 is exact, so a
        sequential sum over any kernels equals the scalar accumulation bit
        for bit (the batched backends' exact-equality contract).
        """
        from ..perf.batched import BOUND_COMPUTE, GemmBatch

        def column(values) -> np.ndarray:
            return np.broadcast_to(np.asarray(values, dtype=np.float64), (size,))

        terms = np.zeros((3, len(kernels), size), dtype=np.float64)
        gemm_rows = [row for row, kernel in enumerate(kernels) if isinstance(kernel, GemmColumns)]
        stream_rows = [row for row, kernel in enumerate(kernels) if not isinstance(kernel, GemmColumns)]
        if gemm_rows:
            gemms = [kernels[row] for row in gemm_rows]
            (precision,) = {gemm.precision for gemm in gemms}  # one template, one precision
            gemm_model = self.kernel_model.gemm_model
            result = gemm_model.batched.evaluate_batch(
                GemmBatch.from_arrays(
                    m=np.concatenate([column(gemm.m) for gemm in gemms]),
                    n=np.concatenate([column(gemm.n) for gemm in gemms]),
                    k=np.concatenate([column(gemm.k) for gemm in gemms]),
                    batch=np.concatenate([column(gemm.batch) for gemm in gemms]),
                    precision=precision,
                    weight_operand=np.repeat([gemm.weight_operand for gemm in gemms], size),
                    accumulate=np.repeat([gemm.accumulate for gemm in gemms], size),
                )
            )
            times = result.kernel_time.reshape(len(gemms), size)
            compute_bound = (result.bound_codes == BOUND_COMPUTE).reshape(len(gemms), size)
            terms[0, gemm_rows] = times + gemm_model.kernel_overhead
            terms[1, gemm_rows] = np.where(compute_bound, times, 0.0)
            terms[2, gemm_rows] = np.where(compute_bound, 0.0, times)
        if stream_rows:
            streams = [kernels[row] for row in stream_rows]
            memory_model = self.kernel_model.memory_model
            times = memory_model.evaluate_columns(
                np.concatenate([column(stream.flops) for stream in streams]),
                np.concatenate([column(stream.bytes_total) for stream in streams]),
            )
            terms[0, stream_rows] = times.reshape(len(streams), size) + memory_model.kernel_overhead
        return terms

    def _token_terms(self, template: LayerTemplate, tokens: np.ndarray) -> np.ndarray:
        """The token kernels' sums in step order at each token count (row 0 is never read)."""
        kernels = template.step_token_columns(np.maximum(tokens, 1))
        return self._kernel_terms(kernels, len(tokens)).cumsum(axis=1)[:, -1]

    def _attention_terms(self, template: LayerTemplate, seq_len, kv_len: np.ndarray) -> np.ndarray:
        kernels = template.step_attention_columns(seq_len, kv_len)
        return self._kernel_terms(kernels, len(kv_len)).transpose(0, 2, 1)

    def _decode_attention_terms(self, template: LayerTemplate, kv_lens: np.ndarray) -> np.ndarray:
        return self._attention_terms(template, 1, np.maximum(kv_lens, 1))

    def _prefill_attention_terms(self, template: LayerTemplate, prompt_lens: np.ndarray) -> np.ndarray:
        prompt_lens = np.maximum(prompt_lens, 1)
        return self._attention_terms(template, prompt_lens, prompt_lens)

    def _lm_head_terms(self, template: LayerTemplate, rows: np.ndarray) -> np.ndarray:
        return self._kernel_terms((template.lm_head_columns(np.maximum(rows, 1)),), len(rows))[:, 0]

    def _collective_terms(self, template: LayerTemplate, scope: str, tokens: np.ndarray) -> np.ndarray:
        columns = template.forward_communication_columns(np.maximum(tokens, 1), scope)
        times = self.collective_model.evaluate_batch(CollectiveBatch.from_columns(columns, len(tokens)))
        return times.reshape(len(columns), len(tokens)).cumsum(axis=0)[-1:]

    def _layer_collective_time(self, tables: _StepTables, tokens: int, tensor_parallel: int) -> float:
        """:meth:`_layer_comm_time` from the collective table."""
        if tensor_parallel <= 1:
            return 0.0
        terms = self._cover(tables.collectives, tokens + 1, self._collective_terms, tables.template, tables.scope)
        return float(terms[0, tokens])

    def prefill_step(
        self,
        model: TransformerConfig,
        prompt_lens: Sequence[int],
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        include_lm_head: bool = True,
    ) -> StepCost:
        """Cost of one prefill over a batch of prompts with the given lengths.

        The prompts are packed into one forward pass: weight GEMMs and norms
        see ``sum(prompt_lens)`` tokens, while each request keeps its own
        attention-scores/context GEMMs and softmax at its own length.  The
        lm_head prices one logits row per request (only the last prompt token
        feeds generation).  Every term comes from the step tables, summed in
        :meth:`_price_step`'s order, so the cost equals the scalar pricing of
        the same operators bit for bit.
        """
        prompt_lens = [int(length) for length in prompt_lens]
        if not prompt_lens:
            return ZERO_STEP
        if min(prompt_lens) < 1:
            raise ConfigurationError("micro_batch and seq_len must be positive")
        num_requests = len(prompt_lens)
        tokens = sum(prompt_lens)
        num_layers = model.num_layers
        tables = self._step_tables(model, tensor_parallel, precision)
        template = tables.template
        attention = self._cover(tables.prefill_attention, max(prompt_lens) + 1, self._prefill_attention_terms, template)
        token_terms = self._cover(tables.tokens, tokens + 1, self._token_terms, template)
        # One sequential sum per bin over [token-kernel sum, zeros, then each
        # prompt's scores, context and softmax terms]: _price_step's order.
        terms = np.zeros((3, num_requests + 1, attention.shape[2]), dtype=np.float64)
        terms[:, 0, 0] = token_terms[:, tokens]
        terms[:, 1:] = attention[:, prompt_lens]
        device, compute, memory = (terms.reshape(3, -1).cumsum(axis=1)[:, -1] * num_layers).tolist()
        if include_lm_head:
            head = self._cover(tables.lm_head, num_requests + 1, self._lm_head_terms, template)
            head_device, head_compute, head_memory = head[:, num_requests].tolist()
            device += head_device
            compute += head_compute
            memory += head_memory
        return StepCost(
            device_time=device,
            communication_time=self._layer_collective_time(tables, tokens, tensor_parallel) * num_layers,
            compute_bound_time=compute,
            memory_bound_time=memory,
            num_requests=num_requests,
            tokens=tokens,
        )

    def decode_run(
        self,
        model: TransformerConfig,
        kv_lens: Sequence[int],
        num_steps: int,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        include_lm_head: bool = True,
    ) -> DecodeRun:
        """Price ``num_steps`` consecutive decode steps of a fixed batch at once.

        Step ``s`` (0-based) prices the batch at KV lengths
        ``[kv + s for kv in kv_lens]`` -- exactly what ``num_steps``
        sequential :meth:`decode_step` calls see over a continuous-batching
        epoch with no admissions or retirements.  The weight GEMMs, the
        collectives, and the lm_head depend only on the (constant) batch
        composition and take one table entry each; the per-request attention
        kernels are gathered from the decode attention table.  Every per-step
        reduction runs as a sequential ``cumsum`` in the scalar path's
        accumulation order, so the returned per-step costs are
        **bit-identical** to the step-by-step loop.
        """
        num_steps = int(num_steps)
        batch = len(kv_lens)
        if not batch or num_steps < 1:
            return DecodeRun(
                device_times=_EMPTY_TIMES,
                communication_time=0.0,
                compute_bound_times=_EMPTY_TIMES,
                memory_bound_times=_EMPTY_TIMES,
                total_times=_EMPTY_TIMES,
                num_requests=batch,
            )
        kv = np.asarray(kv_lens, dtype=np.int64)
        num_layers = model.num_layers
        tables = self._step_tables(model, tensor_parallel, precision)
        template = tables.template
        attention = self._cover(
            tables.decode_attention, max(int(kv.max()) + num_steps, 1), self._decode_attention_terms, template
        )
        token_terms = self._cover(tables.tokens, batch + 1, self._token_terms, template)[:, batch]

        # terms[bin, s] is [token-kernel sum, zeros, then each request's
        # scores, context and softmax terms], flattened into one sequential
        # sum per bin and step: the order the scalar loop walks layer_ops in.
        # The gather takes request i's terms in step s at KV length
        # kv[i] + s; clipping sends every length below 0 to row 0, which
        # prices every length below 1 (never a row from the table's end).
        terms = np.zeros((3, num_steps, batch + 1, attention.shape[2]), dtype=np.float64)
        terms[:, :, 0, 0] = token_terms[:, None]
        kv_matrix = kv + np.arange(num_steps, dtype=np.int64)[:, None]
        np.take(attention, kv_matrix, axis=1, out=terms[:, :, 1:], mode="clip")
        sums = terms.reshape(3, num_steps, -1).cumsum(axis=2)[:, :, -1] * num_layers
        if include_lm_head:
            sums += self._cover(tables.lm_head, batch + 1, self._lm_head_terms, template)[:, batch, None]
        device_times, compute_times, memory_times = sums
        communication_time = self._layer_collective_time(tables, batch, tensor_parallel) * num_layers
        return DecodeRun(
            device_times=device_times,
            communication_time=communication_time,
            compute_bound_times=compute_times,
            memory_bound_times=memory_times,
            total_times=device_times + communication_time,
            num_requests=batch,
        )
