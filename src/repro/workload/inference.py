"""Inference workload builders: prefill (summarization) and decode (generation).

Inference has two phases with very different characteristics (Section 6 of
the paper):

* **Prefill / summarization** processes the whole prompt at once.  Its GEMMs
  look like (smaller) training GEMMs and can be compute-bound depending on
  the accelerator and batch size.
* **Autoregressive decode / generation** produces one token at a time.  With
  KV-caching the per-token GEMMs degenerate into skinny GEMMs / GEMVs whose
  time is dominated by streaming the model weights and the KV-cache from
  DRAM, i.e. they are memory-bound.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import ConfigurationError
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from .graph import TaskGraph
from .operators import Operator
from .transformer_layer import LayerExecutionSpec


@dataclasses.dataclass(frozen=True)
class InferencePhaseSpec:
    """Description of one inference phase on one tensor-parallel rank.

    Attributes:
        model: The transformer architecture.
        batch_size: Number of sequences processed together.
        prompt_len: Prompt (summarization) length in tokens.
        generated_tokens: Number of tokens produced in the generation phase.
        tensor_parallel: Tensor-parallel degree (inference typically uses only TP).
        precision: Numeric format of weights and activations.
        include_lm_head: Whether to include the logits GEMM.
    """

    model: TransformerConfig
    batch_size: int
    prompt_len: int
    generated_tokens: int
    tensor_parallel: int = 1
    precision: Precision = Precision.FP16
    include_lm_head: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.prompt_len < 1 or self.generated_tokens < 0:
            raise ConfigurationError("batch_size and prompt_len must be positive; generated_tokens non-negative")

    def prefill_layer_spec(self) -> LayerExecutionSpec:
        """Layer execution spec for the prefill phase."""
        return LayerExecutionSpec(
            model=self.model,
            micro_batch=self.batch_size,
            seq_len=self.prompt_len,
            kv_len=self.prompt_len,
            tensor_parallel=self.tensor_parallel,
            sequence_parallel=False,
            precision=self.precision,
            with_dropout=False,
            use_kv_cache=True,
        )

    def decode_layer_spec(self, kv_len: int) -> LayerExecutionSpec:
        """Layer execution spec for one decode step attending to ``kv_len`` tokens."""
        return LayerExecutionSpec(
            model=self.model,
            micro_batch=self.batch_size,
            seq_len=1,
            kv_len=max(1, kv_len),
            tensor_parallel=self.tensor_parallel,
            sequence_parallel=False,
            precision=self.precision,
            with_dropout=False,
            use_kv_cache=True,
        )

    @property
    def average_decode_kv_len(self) -> int:
        """KV length of the "average" decode step, used for closed-form totals.

        The cache grows from ``prompt_len`` to ``prompt_len + generated_tokens``;
        the mid-point captures the average cost per generated token.
        """
        return self.prompt_len + max(0, self.generated_tokens - 1) // 2


def build_prefill_graph(
    spec: InferencePhaseSpec,
    layers: Optional[int] = None,
    tp_scope: str = "intra_node",
) -> TaskGraph:
    """Task graph of the prefill phase over ``layers`` transformer layers."""
    num_layers = spec.model.num_layers if layers is None else layers
    graph = TaskGraph(name=f"{spec.model.name}-prefill")
    layer = spec.prefill_layer_spec()
    template = layer.template()
    last = None
    for layer_index in range(num_layers):
        tags = [f"layer{layer_index}", "prefill"]
        ops: list[Operator] = list(template.forward_compute_ops(*layer.shape))
        ops.extend(template.forward_communication(layer.tokens, scope=tp_scope))
        for op in ops:
            last = graph.add(op, deps=[last] if last is not None else [], tags=tags)
    if spec.include_lm_head:
        # Only the last token's logits are needed to start generation.
        head = template.lm_head(spec.batch_size)
        graph.add(head, deps=[last] if last is not None else [], tags=["lm_head", "prefill"])
    return graph


def build_decode_step_graph(
    spec: InferencePhaseSpec,
    kv_len: Optional[int] = None,
    layers: Optional[int] = None,
    tp_scope: str = "intra_node",
) -> TaskGraph:
    """Task graph of one autoregressive decode step.

    Args:
        spec: The inference phase description.
        kv_len: KV-cache length this step attends to; defaults to the average
            over the generation phase.
        layers: Number of layers to include; defaults to the full model.
        tp_scope: Scope of the tensor-parallel collectives.
    """
    num_layers = spec.model.num_layers if layers is None else layers
    cache_len = spec.average_decode_kv_len if kv_len is None else kv_len
    graph = TaskGraph(name=f"{spec.model.name}-decode")
    layer = spec.decode_layer_spec(cache_len)
    template = layer.template()
    last = None
    for layer_index in range(num_layers):
        tags = [f"layer{layer_index}", "decode"]
        ops: list[Operator] = list(template.forward_compute_ops(*layer.shape))
        ops.extend(template.forward_communication(layer.tokens, scope=tp_scope))
        for op in ops:
            last = graph.add(op, deps=[last] if last is not None else [], tags=tags)
    if spec.include_lm_head:
        head = template.lm_head(spec.batch_size)
        graph.add(head, deps=[last] if last is not None else [], tags=["lm_head", "decode"])
    return graph
