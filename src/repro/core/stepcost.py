"""Step-cost API: price one prefill or one decode step of an inference engine.

This module is the reusable pricing core that both the end-to-end
:class:`~repro.core.inference.InferencePerformanceModel` and the serving
simulator (:mod:`repro.serving`) are built on.  It answers two questions
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
  KV length advancing by one per step.  The whole steps x batch KV-length
  matrix is priced in one vectorized pass: weight GEMMs, collectives, and
  the lm_head are constant across the epoch and priced once, while the
  KV-dependent attention kernels are looked up from a per-KV-length time
  table filled through the batched roofline backend.  The returned per-step
  costs are bit-identical to ``k`` sequential :meth:`decode_step` calls.

Both single-step questions are evaluated in **one** call through the
vectorized roofline backend (:meth:`GemmTimeModel.evaluate_many
<repro.perf.gemm.GemmTimeModel.evaluate_many>` /
:mod:`repro.perf.batched`), and :meth:`~StepCostModel.decode_run` amortizes
even the per-step Python work across a whole epoch -- which is what makes a
discrete-event serving simulation over thousands of steps tractable.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..caching import Memo
from ..comm.collectives import CollectiveAlgorithm
from ..comm.fabric import CollectiveModel, shared_collective_model
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from ..perf.kernels import DeviceKernelModel
from ..perf.roofline import BoundType
from ..workload.inference import InferencePhaseSpec
from ..workload.operators import GEMM, Operator
from ..workload.transformer_layer import LayerExecutionSpec, TransformerLayerBuilder
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


class _AttentionTimeTable:
    """Grow-on-demand per-KV-length times of the decode attention kernels.

    One contiguous ``(7, size)`` array so an epoch needs a single fancy-
    indexed gather.  Kernel order within a request mirrors the order
    :meth:`StepCostModel._attention_ops` emits: scores GEMM, context GEMM,
    softmax.  Rows:

    * 0-2: ``point.time + launch overhead`` of scores / context / softmax
      (the terms the device-time accumulation adds);
    * 3-4: bare ``point.time`` of the scores / context GEMM when compute
      bound, else 0.0;
    * 5-6: the same split for memory/cache-bound time.

    The zero in the other bin keeps summing both bins over any KV set exact
    (adding 0.0 to a non-negative float is the identity).
    """

    #: Row indices of the table.
    DEV_SCORES, DEV_CONTEXT, DEV_SOFTMAX, COMP_SCORES, COMP_CONTEXT, MEM_SCORES, MEM_CONTEXT = range(7)

    __slots__ = ("filled", "terms")

    def __init__(self) -> None:
        self.filled = np.zeros(0, dtype=bool)
        self.terms = np.zeros((7, 0), dtype=np.float64)

    def reserve(self, size: int) -> None:
        """Grow the table so KV lengths below ``size`` are addressable."""
        current = self.filled.shape[0]
        if size <= current:
            return
        size = max(size, 2 * current, 256)
        filled = np.zeros(size, dtype=bool)
        filled[:current] = self.filled
        self.filled = filled
        terms = np.zeros((7, size), dtype=np.float64)
        terms[:, :current] = self.terms
        self.terms = terms


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
        # Per-shape operator lists and per-layer collective times recur across
        # thousands of simulation steps; memoizing them keeps the
        # discrete-event loop allocation-light.
        self._attention_ops_cache = Memo()
        self._token_ops_cache = Memo()
        self._comm_time_cache = Memo()
        # Epoch-fused decode pricing state: per-KV-length attention time
        # tables and the batch-constant partial sums of the token ops.  Both
        # survive across simulations (and across the scenarios of a sweep
        # when the model instance is shared through the engine).
        self._attention_tables: Dict[Tuple, _AttentionTimeTable] = {}
        self._token_partials_cache = Memo()
        self._head_terms_cache = Memo()
        # Serializes table growth + fills: one StepCostModel is shared per
        # system (engine_for), so the study service's job threads price
        # epochs concurrently.  The read path stays lock-free -- growth
        # copies the old content and a gather reads one array reference
        # atomically.
        self._table_lock = threading.Lock()
        # Memo telemetry: every lookup into the caches above counts as a hit
        # or a miss, so sweeps can verify that a shared instance actually
        # reuses its pricing work across scenario evaluations.
        self.cache_hits = 0
        self.cache_misses = 0

    def tp_scope(self, tensor_parallel: int) -> str:
        """Collective scope of a TP group of the given size on this system."""
        return "intra_node" if tensor_parallel <= self.system.devices_per_node else "inter_node"

    # -- phase reports (the InferencePerformanceModel backend) -------------------------

    def phase_report(
        self,
        name: str,
        builder: Optional[TransformerLayerBuilder],
        num_layers: int,
        lm_head: Optional[GEMM],
        repeats: int,
        tp_scope: str,
        ops: Optional[Sequence[Operator]] = None,
        comms: Optional[Sequence[Operator]] = None,
    ) -> PhaseReport:
        """Price one phase: ``repeats`` executions of ``num_layers`` layers.

        ``ops``/``comms`` accept the layer's precomputed operator lists (what
        ``builder.forward_compute_ops()`` / ``forward_communication(tp_scope)``
        return) so a planning pass can build the workload graph once and price
        it later; when given, ``builder`` may be ``None``.  The accumulation
        below is identical either way.
        """
        if ops is None:
            ops = builder.forward_compute_ops()
        if comms is None:
            comms = builder.forward_communication(scope=tp_scope)
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

    def decode_exact_prepared(
        self, spec: InferencePhaseSpec
    ) -> Tuple[List[TransformerLayerBuilder], List[List[Operator]]]:
        """Per-step builders and operator lists of the exact decode phase.

        One builder (and its ``forward_compute_ops()`` list) per generated
        token, at that token's true KV length -- exactly what
        :meth:`decode_report_exact` constructs internally.  A planning pass
        builds these once, collects the GEMMs for a cross-scenario batch, and
        passes the pair back via ``prepared`` so the graph is not rebuilt at
        pricing time.
        """
        steps = max(0, spec.generated_tokens)
        builders = [
            TransformerLayerBuilder(spec.decode_layer_spec(spec.prompt_len + step))
            for step in range(steps)
        ]
        return builders, [builder.forward_compute_ops() for builder in builders]

    def decode_report_exact(
        self,
        spec: InferencePhaseSpec,
        num_layers: int,
        lm_head: Optional[GEMM],
        tp_scope: str,
        prepared: Optional[Tuple[List[TransformerLayerBuilder], List[List[Operator]]]] = None,
    ) -> PhaseReport:
        """Price the decode phase with every token at its true KV length.

        The KV-cache grows from ``prompt_len`` to ``prompt_len + T - 1`` over
        the ``T`` generated tokens, so the per-token operator lists differ
        only in the KV-dependent kernels (attention scores/context, softmax).
        All GEMMs of all steps are evaluated in **one** call through the
        vectorized roofline backend; the kernel breakdown reports the mean
        per-invocation time (so ``entry.time * entry.count`` stays the exact
        phase total) and the bound type of the median-KV step.
        """
        steps = max(0, spec.generated_tokens)
        if steps == 0:
            return PhaseReport(
                name="decode",
                device_time=0.0,
                communication_time=0.0,
                compute_bound_time=0.0,
                memory_bound_time=0.0,
                kernel_breakdown=[],
            )
        builders, step_ops = prepared if prepared is not None else self.decode_exact_prepared(spec)
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
        for comm in builders[0].forward_communication(scope=tp_scope):
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

    def lm_head_gemm(self, spec: InferencePhaseSpec) -> Optional[GEMM]:
        """The logits GEMM of one phase (one query token per request)."""
        if not spec.include_lm_head:
            return None
        return self._lm_head(spec.model, spec.batch_size, spec.tensor_parallel, spec.precision)

    def _lm_head(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> GEMM:
        vocab_per_rank = max(1, model.vocab_size // tensor_parallel)
        return GEMM(
            name="lm_head",
            precision=precision,
            m=tokens,
            n=vocab_per_rank,
            k=model.hidden_size,
            weight_operand=True,
        )

    # -- mixed-batch step costs (the serving-simulator backend) ------------------------

    def _token_ops(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> Tuple[Operator, ...]:
        """Kernels whose cost depends only on the *total* token count.

        A continuous-batching engine concatenates the step's query tokens into
        one activation matrix, so the weight GEMMs (QKV / attention output /
        MLP), the layer-norms, residuals, and the KV-cache append all see
        ``tokens`` rows regardless of how those rows split across requests.
        """
        key = (model, tokens, tensor_parallel, precision)
        ops = self._token_ops_cache.get(key)
        if ops is not None:
            self.cache_hits += 1
            return ops
        self.cache_misses += 1
        builder = TransformerLayerBuilder(
            LayerExecutionSpec(
                model=model,
                micro_batch=1,
                seq_len=tokens,
                tensor_parallel=tensor_parallel,
                precision=precision,
                with_dropout=False,
                use_kv_cache=True,
            )
        )
        attention = builder.attention_gemms()
        boundary = builder.block_boundary_ops()
        kv_append = builder.attention_auxiliary_ops()[-1]  # the MemoryOp, softmax is per-request
        assembled: List[Operator] = [boundary[0], attention[0], kv_append, attention[3]]
        assembled.extend(boundary[1:4])
        assembled.extend(builder.mlp_gemms())
        assembled.extend(builder.mlp_auxiliary_ops())
        return self._token_ops_cache.put(key, tuple(assembled))

    def _attention_ops(
        self,
        model: TransformerConfig,
        seq_len: int,
        kv_len: int,
        tensor_parallel: int,
        precision: Precision,
    ) -> Tuple[Operator, ...]:
        """Per-request attention kernels: scores and context GEMMs plus softmax."""
        key = (model, seq_len, kv_len, tensor_parallel, precision)
        ops = self._attention_ops_cache.get(key)
        if ops is not None:
            self.cache_hits += 1
            return ops
        self.cache_misses += 1
        builder = TransformerLayerBuilder(
            LayerExecutionSpec(
                model=model,
                micro_batch=1,
                seq_len=seq_len,
                kv_len=max(1, kv_len),
                tensor_parallel=tensor_parallel,
                precision=precision,
                with_dropout=False,
                use_kv_cache=True,
            )
        )
        gemms = builder.attention_gemms()
        softmax = builder.attention_auxiliary_ops()[0]
        return self._attention_ops_cache.put(key, (gemms[1], gemms[2], softmax))

    def _layer_comm_time(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> float:
        """Tensor-parallel collective time of one layer over ``tokens`` query tokens."""
        if tensor_parallel <= 1:
            return 0.0
        key = (model, tokens, tensor_parallel, precision)
        cached = self._comm_time_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        builder = TransformerLayerBuilder(
            LayerExecutionSpec(
                model=model,
                micro_batch=1,
                seq_len=tokens,
                tensor_parallel=tensor_parallel,
                precision=precision,
                with_dropout=False,
                use_kv_cache=True,
            )
        )
        scope = self.tp_scope(tensor_parallel)
        time = sum(self.collective_model.time(comm) for comm in builder.forward_communication(scope=scope))
        return self._comm_time_cache.put(key, time)

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
        lm_head = self._lm_head(model, num_requests, tensor_parallel, precision) if include_lm_head else None
        if lm_head is not None:
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
        feeds generation).
        """
        prompt_lens = [int(length) for length in prompt_lens]
        if not prompt_lens:
            return ZERO_STEP
        tokens = sum(prompt_lens)
        layer_ops: List[Operator] = list(self._token_ops(model, tokens, tensor_parallel, precision))
        for length in prompt_lens:
            layer_ops.extend(self._attention_ops(model, length, length, tensor_parallel, precision))
        return self._price_step(
            model,
            layer_ops,
            tensor_parallel,
            precision,
            num_requests=len(prompt_lens),
            tokens=tokens,
            include_lm_head=include_lm_head,
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

    # -- epoch-fused decode pricing (the event-horizon serving backend) ----------------

    def _attention_table(
        self, model: TransformerConfig, tensor_parallel: int, precision: Precision
    ) -> _AttentionTimeTable:
        """The per-KV-length attention time table of one batch configuration."""
        key = (model, tensor_parallel, precision)
        table = self._attention_tables.get(key)
        if table is None:
            if len(self._attention_tables) >= 64:
                # Evict the oldest configuration only: clearing everything
                # would throw away the warm tables of the other 63.
                self._attention_tables.pop(next(iter(self._attention_tables)))
            table = _AttentionTimeTable()
            self._attention_tables[key] = table
        return table

    def _demand_attention_rows(
        self,
        table: _AttentionTimeTable,
        model: TransformerConfig,
        kv_lens: Sequence[int],
        num_steps: int,
        tensor_parallel: int,
        precision: Precision,
    ) -> None:
        """Make sure the table covers ``[kv, kv + num_steps)`` for every batch entry.

        The epoch's KV demand is a union of equal-length integer ranges, so
        coverage is computed by merging the (at most batch-size) sorted
        ranges instead of deduplicating the full steps x batch matrix; on the
        common warm path every span is already filled and this is just one
        ``all()`` per span.  Growth and fills hold the table lock because the
        owning model is shared across the study service's job threads.
        """
        unique_kvs = sorted(set(kv_lens))
        with self._table_lock:
            table.reserve(unique_kvs[-1] + num_steps)
            spans: List[List[int]] = []
            for kv in unique_kvs:
                stop = kv + num_steps
                if spans and kv <= spans[-1][1]:
                    if stop > spans[-1][1]:
                        spans[-1][1] = stop
                else:
                    spans.append([kv, stop])
            filled = table.filled
            demanded = 0
            chunks: List[np.ndarray] = []
            for start, stop in spans:
                demanded += stop - start
                segment = filled[start:stop]
                if not segment.all():
                    chunks.append(start + np.nonzero(~segment)[0])
            if not chunks:
                self.cache_hits += demanded
                return
            missing = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            self.cache_hits += demanded - int(missing.size)
            self.cache_misses += int(missing.size)
            self._fill_attention_table(table, model, missing, tensor_parallel, precision)

    def _fill_attention_table(
        self,
        table: _AttentionTimeTable,
        model: TransformerConfig,
        missing: np.ndarray,
        tensor_parallel: int,
        precision: Precision,
    ) -> None:
        """Price the attention kernels of every KV length in ``missing`` at once.

        The scores/context GEMMs of all lengths go through the batched
        roofline backend in one call and the softmax times are reduced with
        the memory-bound kernel model's exact arithmetic, so the stored terms
        match what the scalar per-step accumulation of :meth:`_price_step`
        adds for each kernel bit for bit (the backend's exact-equality
        contract, enforced by ``tests/perf/test_batched.py``).
        """
        from ..perf.batched import BOUND_COMPUTE, GemmBatch

        ops_by_kv = [
            self._attention_ops(model, 1, int(kv), tensor_parallel, precision) for kv in missing
        ]
        gemm_model = self.kernel_model.gemm_model
        result = gemm_model.batched.evaluate_batch(
            GemmBatch.from_gemms(op for scores, context, _ in ops_by_kv for op in (scores, context))
        )
        times = result.kernel_time
        compute_bound = result.bound_codes == BOUND_COMPUTE
        device_terms = times + gemm_model.kernel_overhead
        terms = table.terms
        for offset, (dev_row, comp_row, mem_row) in enumerate(
            (
                (table.DEV_SCORES, table.COMP_SCORES, table.MEM_SCORES),
                (table.DEV_CONTEXT, table.COMP_CONTEXT, table.MEM_CONTEXT),
            )
        ):
            terms[dev_row, missing] = device_terms[offset::2]
            terms[comp_row, missing] = np.where(compute_bound[offset::2], times[offset::2], 0.0)
            terms[mem_row, missing] = np.where(compute_bound[offset::2], 0.0, times[offset::2])

        # Softmax: the memory-bound kernel model's max(compute, DRAM stream)
        # with the same operand order as MemoryBoundKernelModel.evaluate.
        memory_model = self.kernel_model.memory_model
        dram = memory_model.accelerator.memory.dram
        bandwidth = dram.bandwidth * memory_model.dram_utilization
        softmax_bytes = np.array([ops[2].bytes_total for ops in ops_by_kv], dtype=np.float64)
        softmax_flops = np.array([ops[2].flops for ops in ops_by_kv], dtype=np.float64)
        softmax_times = np.maximum(
            softmax_flops / memory_model.accelerator.compute.vector_throughput,
            softmax_bytes / bandwidth,
        )
        terms[table.DEV_SOFTMAX, missing] = softmax_times + memory_model.kernel_overhead
        table.filled[missing] = True

    def _token_partials(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> Tuple[float, float, float]:
        """Partial sums of the batch-constant (token-count) kernels of one step.

        Returns ``(device, compute_bound, memory_bound)`` exactly as the
        scalar :meth:`_price_step` accumulation holds them after the token
        ops and before the first per-request attention kernel, so a fused
        run can seed its sequential per-step reductions with them.
        """
        key = (model, tokens, tensor_parallel, precision)
        partials = self._token_partials_cache.get(key)
        if partials is not None:
            self.cache_hits += 1
            return partials
        self.cache_misses += 1
        ops = self._token_ops(model, tokens, tensor_parallel, precision)
        self.kernel_model.gemm_model.evaluate_many([op for op in ops if isinstance(op, GEMM)])
        device = 0.0
        compute = 0.0
        memory = 0.0
        for op in ops:
            point = self.kernel_model.evaluate(op)
            device += point.time + self.kernel_model.overhead(op)
            if isinstance(op, GEMM):
                if point.bound is BoundType.COMPUTE:
                    compute += point.time
                else:
                    memory += point.time
        self._token_partials_cache.put(key, (device, compute, memory))
        return device, compute, memory

    def _head_terms(
        self, model: TransformerConfig, tokens: int, tensor_parallel: int, precision: Precision
    ) -> Tuple[float, float, bool]:
        """The lm_head's per-step contributions for ``tokens`` logits rows.

        Returns ``(device term, bare kernel time, is compute bound)``; the
        device term is the ``point.time + overhead`` expression the scalar
        accumulation adds, computed once per batch composition.
        """
        key = (model, tokens, tensor_parallel, precision)
        terms = self._head_terms_cache.get(key)
        if terms is not None:
            self.cache_hits += 1
            return terms
        self.cache_misses += 1
        lm_head = self._lm_head(model, tokens, tensor_parallel, precision)
        point = self.kernel_model.evaluate(lm_head)
        head_time = point.time
        terms = (
            head_time + self.kernel_model.overhead(lm_head),
            head_time,
            point.bound is BoundType.COMPUTE,
        )
        return self._head_terms_cache.put(key, terms)

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
        composition and are priced once; the per-request attention kernels
        come from the per-KV-length table.  Every per-step reduction runs as
        a sequential ``cumsum`` seeded with the scalar path's partial sums,
        in the scalar path's accumulation order, so the returned per-step
        costs are **bit-identical** to the step-by-step loop.
        """
        kv_lens = [int(length) for length in kv_lens]
        num_steps = int(num_steps)
        if not kv_lens or num_steps < 1:
            return DecodeRun(
                device_times=_EMPTY_TIMES,
                communication_time=0.0,
                compute_bound_times=_EMPTY_TIMES,
                memory_bound_times=_EMPTY_TIMES,
                total_times=_EMPTY_TIMES,
                num_requests=len(kv_lens),
            )
        batch = len(kv_lens)
        num_layers = model.num_layers
        table = self._attention_table(model, tensor_parallel, precision)
        self._demand_attention_rows(table, model, kv_lens, num_steps, tensor_parallel, precision)
        token_device, token_compute, token_memory = self._token_partials(
            model, batch, tensor_parallel, precision
        )

        # One gather of every attention term the epoch touches:
        # gathered[row, s, i] is table row `row` at request i's KV length in
        # step s.
        kv_matrix = (
            np.asarray(kv_lens, dtype=np.int64)[None, :]
            + np.arange(num_steps, dtype=np.int64)[:, None]
        )
        gathered = table.terms[:, kv_matrix]

        # Sequential (cumsum) reductions over [token partial, per-request
        # attention terms...] per step: columns 3i+1..3i+3 of a row hold
        # request i's scores/context/softmax terms, matching the order the
        # scalar loop walks layer_ops in.
        device_terms = np.empty((num_steps, 3 * batch + 1), dtype=np.float64)
        device_terms[:, 0] = token_device
        device_terms[:, 1::3] = gathered[table.DEV_SCORES]
        device_terms[:, 2::3] = gathered[table.DEV_CONTEXT]
        device_terms[:, 3::3] = gathered[table.DEV_SOFTMAX]
        device_times = device_terms.cumsum(axis=1)[:, -1] * num_layers

        # Compute- and memory-bound splits share one stacked reduction: the
        # top `num_steps` rows accumulate the compute bin, the bottom rows
        # the memory bin (only the two GEMMs contribute; zeros elsewhere).
        bound_terms = np.empty((2 * num_steps, 2 * batch + 1), dtype=np.float64)
        bound_terms[:num_steps, 0] = token_compute
        bound_terms[:num_steps, 1::2] = gathered[table.COMP_SCORES]
        bound_terms[:num_steps, 2::2] = gathered[table.COMP_CONTEXT]
        bound_terms[num_steps:, 0] = token_memory
        bound_terms[num_steps:, 1::2] = gathered[table.MEM_SCORES]
        bound_terms[num_steps:, 2::2] = gathered[table.MEM_CONTEXT]
        bound_times = bound_terms.cumsum(axis=1)[:, -1] * num_layers
        compute_times = bound_times[:num_steps]
        memory_times = bound_times[num_steps:]

        communication_time = (
            self._layer_comm_time(model, batch, tensor_parallel, precision) * num_layers
        )
        if include_lm_head:
            head_device, head_time, head_is_compute = self._head_terms(
                model, batch, tensor_parallel, precision
            )
            device_times = device_times + head_device
            if head_is_compute:
                compute_times = compute_times + head_time
            else:
                memory_times = memory_times + head_time
        return DecodeRun(
            device_times=device_times,
            communication_time=communication_time,
            compute_bound_times=compute_times,
            memory_bound_times=memory_times,
            total_times=device_times + communication_time,
            num_requests=batch,
        )
