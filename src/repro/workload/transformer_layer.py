"""Per-layer operators of decoder transformer layers.

A :class:`LayerTemplate` turns a
:class:`~repro.models.transformer.TransformerConfig` plus one layer
configuration (tensor/sequence parallel degrees, precision, dropout, KV cache)
into the operators that run *on one device*, at any shape ``(micro_batch,
seq_len, kv_len)``.  The Megatron-LM partitioning (Section 3.2 of the paper)
is applied here: attention heads and MLP columns are split across the
tensor-parallel group, and the dropout/layer-norm blocks are optionally split
along the sequence dimension when sequence parallelism is enabled.

Each operator depends on the shape in one of two ways:

* through the token count ``micro_batch * seq_len`` alone: the weight GEMMs,
  norms, residuals, hidden dropouts, MLP activation, KV append, TP
  collectives and the logits GEMM;
* through all three: the attention core (scores, softmax, attention dropout,
  context).

So a template builds each group once per token count or shape, in bounded
memos, and assembles every operator list from the two.  Its owners (the
step-cost and training models, the sweep planner) keep one template per
configuration in their own memo; there is no process-wide registry.

Naming of the GEMMs follows the paper's Table 4:

=====================  =========================================
``qkv_projection``     merged-head ``X . W_{K/Q/V} = K, Q, V``
``attention_scores``   single-head ``Q . K^T = R``
``attention_context``  single-head ``softmax(R) . V = Z``
``attention_output``   ``Z . W = O``
``mlp_h_to_4h``        ``O . W_MLP1 = O1`` (gate/up for SwiGLU)
``mlp_4h_to_h``        ``O1 . W_MLP2 = O2``
=====================  =========================================
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional, Tuple

from ..caching import Memo
from ..errors import ConfigurationError
from ..hardware.datatypes import Precision
from ..models.transformer import MLPActivation, TransformerConfig
from .operators import (
    CollectiveKind,
    CommunicationOp,
    ElementwiseOp,
    GEMM,
    MemoryOp,
    NormalizationOp,
    Operator,
)

#: Arithmetic cost per element assumed for the common pointwise kernels.
GELU_FLOPS_PER_ELEMENT = 8.0
SILU_FLOPS_PER_ELEMENT = 6.0
DROPOUT_FLOPS_PER_ELEMENT = 2.0
RESIDUAL_FLOPS_PER_ELEMENT = 1.0
SOFTMAX_FLOPS_PER_ELEMENT = 5.0
LAYERNORM_FLOPS_PER_ELEMENT = 8.0
#: Dropout stores a 1-byte mask per element in addition to its data streams.
DROPOUT_MASK_BYTES = 1.0


def _check_tensor_parallel(model: TransformerConfig, tensor_parallel: int) -> None:
    if tensor_parallel < 1:
        raise ConfigurationError("tensor_parallel must be >= 1")
    if model.num_heads % tensor_parallel != 0:
        raise ConfigurationError(
            f"tensor parallel degree {tensor_parallel} must divide "
            f"the number of attention heads ({model.num_heads})"
        )


def _check_shape(micro_batch: int, seq_len: int) -> None:
    if micro_batch < 1 or seq_len < 1:
        raise ConfigurationError("micro_batch and seq_len must be positive")


@dataclasses.dataclass(frozen=True)
class LayerExecutionSpec:
    """One transformer layer's configuration and shape on one device.

    Attributes:
        model: The transformer architecture.
        micro_batch: Per-device micro-batch size (sequences).
        seq_len: Number of query tokens processed by the layer.
        kv_len: Number of key/value tokens attended to.  Equals ``seq_len``
            for training/prefill; equals the KV-cache length during decode.
        tensor_parallel: Degree of tensor (model) parallelism.
        sequence_parallel: Whether the dropout/layer-norm blocks are split
            along the sequence dimension across the tensor-parallel group.
        precision: Numeric format of activations and weights.
        with_dropout: Whether dropout kernels are present (training only).
        use_kv_cache: Whether the key/value projections of previous tokens are
            read from the KV-cache instead of being recomputed (decode phase).
    """

    model: TransformerConfig
    micro_batch: int
    seq_len: int
    kv_len: int = 0
    tensor_parallel: int = 1
    sequence_parallel: bool = False
    precision: Precision = Precision.FP16
    with_dropout: bool = True
    use_kv_cache: bool = False

    def __post_init__(self) -> None:
        _check_shape(self.micro_batch, self.seq_len)
        _check_tensor_parallel(self.model, self.tensor_parallel)
        if self.kv_len == 0:
            object.__setattr__(self, "kv_len", self.seq_len)

    @property
    def tokens(self) -> int:
        """Query tokens processed per device: micro_batch x seq_len."""
        return self.micro_batch * self.seq_len

    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(micro_batch, seq_len, kv_len)``: the arguments of the template's layer lists."""
        return (self.micro_batch, self.seq_len, self.kv_len)

    def template(self, templates: Optional[Memo] = None) -> "LayerTemplate":
        """The template of this spec's configuration (see :func:`layer_template`)."""
        return layer_template(
            templates,
            self.model,
            tensor_parallel=self.tensor_parallel,
            sequence_parallel=self.sequence_parallel,
            precision=self.precision,
            with_dropout=self.with_dropout,
            use_kv_cache=self.use_kv_cache,
        )


def layer_template(
    templates: Optional[Memo],
    model: TransformerConfig,
    tensor_parallel: int = 1,
    sequence_parallel: bool = False,
    precision: Precision = Precision.FP16,
    with_dropout: bool = True,
    use_kv_cache: bool = False,
) -> "LayerTemplate":
    """The template of one layer configuration.

    ``templates`` is the owner's memo of templates (a step-cost or training
    model's, or the sweep planner's), so a template and its operator groups
    live exactly as long as that owner's cache; a miss builds and stores the
    template.  Threads that miss together may each build an equal one.  With
    ``templates=None`` a fresh template is returned.
    """
    key = (model, tensor_parallel, sequence_parallel, precision, with_dropout, use_kv_cache)
    if templates is None:
        return LayerTemplate(*key)
    template = templates.get(key)
    if template is None:
        template = templates.put(key, LayerTemplate(*key))
    return template


def backward_gemms(gemm: GEMM) -> Tuple[GEMM, GEMM]:
    """The activation- and weight-gradient GEMMs of one forward GEMM (same FLOPs each)."""
    return (
        GEMM(
            name=f"{gemm.name}_dgrad",
            precision=gemm.precision,
            m=gemm.m,
            n=gemm.k,
            k=gemm.n,
            batch=gemm.batch,
            weight_operand=gemm.weight_operand,
        ),
        GEMM(
            name=f"{gemm.name}_wgrad",
            precision=gemm.precision,
            m=gemm.k,
            n=gemm.n,
            k=gemm.m,
            batch=gemm.batch,
            weight_operand=False,
            accumulate=True,
        ),
    )


def _weight_gemm(name: str, precision: Precision, tokens: int, n: int, k: int) -> GEMM:
    return GEMM(
        name=name,
        precision=precision,
        m=tokens,
        n=n,
        k=k,
        weight_operand=True,
    )


def _layernorm(name: str, precision: Precision, elements: int) -> NormalizationOp:
    return NormalizationOp(
        name=name,
        precision=precision,
        num_elements=elements,
        flops_per_element=LAYERNORM_FLOPS_PER_ELEMENT,
        variant="layernorm",
    )


def _residual(name: str, precision: Precision, elements: int) -> ElementwiseOp:
    return ElementwiseOp(
        name=name,
        precision=precision,
        num_elements=elements,
        flops_per_element=RESIDUAL_FLOPS_PER_ELEMENT,
        reads_per_element=2.0,
    )


def _dropout(name: str, precision: Precision, elements: int) -> ElementwiseOp:
    return ElementwiseOp(
        name=name,
        precision=precision,
        num_elements=elements,
        flops_per_element=DROPOUT_FLOPS_PER_ELEMENT,
        extra_bytes_per_element=DROPOUT_MASK_BYTES,
    )


class _TokenOps(NamedTuple):
    """The operators of one token count, by their role in the layer."""

    input_layernorm: Operator
    qkv_projection: GEMM
    kv_cache_append: Tuple[Operator, ...]  # empty without a KV cache
    attention_output: GEMM
    attention_residual_add: Operator
    post_attention_layernorm: Operator
    mlp_gemms: Tuple[GEMM, ...]  # h->4h (gate, then up for SwiGLU), then 4h->h
    mlp_activation: Operator
    mlp_residual_add: Operator
    hidden_dropouts: Tuple[Operator, ...]  # empty without dropout
    step_order: Tuple[Operator, ...]  # all of the above, in the step-cost order


class _ShapeOps:
    """One shape's attention core; the layer lists are assembled on first use."""

    __slots__ = ("scores", "pointwise", "context", "step_order", "forward", "backward")

    def __init__(self, scores: GEMM, pointwise: Tuple[Operator, ...], context: GEMM):
        self.scores = scores
        self.pointwise = pointwise  # softmax, then the attention dropout (training only)
        self.context = context
        self.step_order = (scores, context, *pointwise)
        self.forward: Optional[Tuple[Operator, ...]] = None
        self.backward: Optional[Tuple[Operator, ...]] = None


class LayerTemplate:
    """The per-device operators of one layer configuration, at any shape.

    The configuration attributes mirror :class:`LayerExecutionSpec`'s; the
    ``*_per_device`` widths are what the Megatron split leaves on one rank.
    Every ``kv_len`` argument defaults to ``0``, which means ``seq_len``.
    Operator lists are memoized and returned as tuples shared by every
    caller asking for the same shape.

    Raises:
        ConfigurationError: At construction when the TP degree does not
            divide the attention heads; from a layer list when
            ``micro_batch`` or ``seq_len`` is not positive.
    """

    def __init__(
        self,
        model: TransformerConfig,
        tensor_parallel: int = 1,
        sequence_parallel: bool = False,
        precision: Precision = Precision.FP16,
        with_dropout: bool = True,
        use_kv_cache: bool = False,
    ):
        _check_tensor_parallel(model, tensor_parallel)
        self.model = model
        self.tensor_parallel = tensor_parallel
        self.sequence_parallel = sequence_parallel
        self.precision = precision
        self.with_dropout = with_dropout
        self.use_kv_cache = use_kv_cache
        self.heads_per_device = model.num_heads // tensor_parallel
        self.kv_heads_per_device = max(1, model.num_kv_heads // tensor_parallel)
        self.hidden_per_device = self.heads_per_device * model.head_dim
        self.ffn_per_device = max(1, model.ffn_hidden_size // tensor_parallel)
        self._tokens = Memo()  # token count -> _TokenOps
        self._shapes = Memo()  # (micro_batch, seq_len, kv_len) -> _ShapeOps
        self._heads = Memo()  # token count -> logits GEMM
        self._collectives = Memo()  # (token count, scope) -> forward + backward collectives

    def norm_elements(self, tokens: int) -> int:
        """Elements seen by each layer-norm / dropout block on this rank.

        With sequence parallelism these blocks are sharded along the sequence
        dimension, dividing the element count by the tensor-parallel degree.
        """
        elements = tokens * self.model.hidden_size
        if self.sequence_parallel and self.tensor_parallel > 1:
            elements //= self.tensor_parallel
        return elements

    # -- layer lists ---------------------------------------------------------------------

    def forward_compute_ops(self, micro_batch: int, seq_len: int, kv_len: int = 0) -> Tuple[Operator, ...]:
        """All compute kernels (GEMMs + memory-bound kernels) of the forward pass, in execution order."""
        shape = self._shape(micro_batch, seq_len, kv_len)
        if shape.forward is None:
            ops = self._token_ops(micro_batch * seq_len)
            shape.forward = (
                ops.input_layernorm,
                ops.qkv_projection,
                shape.scores,
                *shape.pointwise,
                *ops.kv_cache_append,
                shape.context,
                ops.attention_output,
                ops.attention_residual_add,
                ops.post_attention_layernorm,
                *ops.mlp_gemms[:-1],
                ops.mlp_activation,
                ops.mlp_gemms[-1],
                ops.mlp_residual_add,
                *ops.hidden_dropouts,
            )
        return shape.forward

    def forward_gemms(self, micro_batch: int, seq_len: int, kv_len: int = 0) -> List[GEMM]:
        """All GEMMs of one layer's forward pass (the rows of the paper's Table 4)."""
        shape = self._shape(micro_batch, seq_len, kv_len)
        ops = self._token_ops(micro_batch * seq_len)
        return [ops.qkv_projection, shape.scores, shape.context, ops.attention_output, *ops.mlp_gemms]

    def backward_compute_ops(self, micro_batch: int, seq_len: int, kv_len: int = 0) -> Tuple[Operator, ...]:
        """Backward-pass kernels of one layer.

        Every forward GEMM spawns two backward GEMMs (activation gradient and
        weight gradient) of the same FLOP count; memory-bound kernels cost
        roughly the same backward as forward and are duplicated with a
        ``_grad`` suffix.
        """
        shape = self._shape(micro_batch, seq_len, kv_len)
        if shape.backward is None:
            forward = self.forward_compute_ops(micro_batch, seq_len, kv_len)
            shape.backward = (
                *(grad for op in forward if isinstance(op, GEMM) for grad in backward_gemms(op)),
                *(dataclasses.replace(op, name=f"{op.name}_grad") for op in forward if not isinstance(op, GEMM)),
            )
        return shape.backward

    def communication(self, tokens: int, scope: str = "intra_node") -> Tuple[CommunicationOp, ...]:
        """One layer's tensor-parallel collectives: the forward pass's, then the backward's.

        The Megatron mapping requires one all-reduce after the attention
        output projection and one after the MLP down projection.  With
        sequence parallelism each all-reduce is replaced by a reduce-scatter
        plus an all-gather of the same total volume.  The backward pass needs
        the mirror-image collectives (same count and volume, ``_bwd`` suffix).
        """
        if self.tensor_parallel <= 1:
            return ()
        key = (tokens, scope)
        ops = self._collectives.get(key)
        if ops is None:
            if self.sequence_parallel:
                collectives = (
                    ("attention_reduce_scatter", CollectiveKind.REDUCE_SCATTER),
                    ("attention_all_gather", CollectiveKind.ALL_GATHER),
                    ("mlp_reduce_scatter", CollectiveKind.REDUCE_SCATTER),
                    ("mlp_all_gather", CollectiveKind.ALL_GATHER),
                )
            else:
                collectives = (
                    ("attention_all_reduce", CollectiveKind.ALL_REDUCE),
                    ("mlp_all_reduce", CollectiveKind.ALL_REDUCE),
                )
            payload = tokens * self.model.hidden_size * self.precision.bytes_per_element
            ops = self._collectives.put(
                key,
                tuple(
                    CommunicationOp(
                        name=name + suffix,
                        collective=collective,
                        data_bytes=payload,
                        group_size=self.tensor_parallel,
                        scope=scope,
                    )
                    for suffix in ("", "_bwd")
                    for name, collective in collectives
                ),
            )
        return ops

    def forward_communication(self, tokens: int, scope: str = "intra_node") -> Tuple[CommunicationOp, ...]:
        """Tensor-parallel collectives of one layer's forward pass (see :meth:`communication`)."""
        ops = self.communication(tokens, scope)
        return ops[: len(ops) // 2]

    def backward_communication(self, tokens: int, scope: str = "intra_node") -> Tuple[CommunicationOp, ...]:
        """Tensor-parallel collectives of one layer's backward pass (see :meth:`communication`)."""
        ops = self.communication(tokens, scope)
        return ops[len(ops) // 2 :]

    def lm_head(self, tokens: int) -> GEMM:
        """The logits GEMM over ``tokens`` query tokens, its vocabulary sharded over the TP group."""
        head = self._heads.get(tokens)
        if head is None:
            head = self._heads.put(
                tokens,
                _weight_gemm(
                    "lm_head",
                    self.precision,
                    tokens,
                    n=max(1, self.model.vocab_size // self.tensor_parallel),
                    k=self.model.hidden_size,
                ),
            )
        return head

    # -- the step-cost model's views -----------------------------------------------------

    def step_token_ops(self, tokens: int) -> Tuple[Operator, ...]:
        """The token-count kernels, in the order the step-cost model sums them.

        A continuous-batching engine concatenates a step's query tokens into
        one activation matrix, so these kernels see ``tokens`` rows however
        the rows split across requests.
        """
        return self._token_ops(tokens).step_order

    def step_attention_ops(self, seq_len: int, kv_len: int) -> Tuple[Operator, ...]:
        """One request's attention core (micro-batch 1): scores, context, then softmax."""
        return self._shape(1, seq_len, kv_len).step_order

    def has_token_ops(self, tokens: int) -> bool:
        """Whether the operators of ``tokens`` are already built."""
        return tokens in self._tokens

    def has_attention_ops(self, seq_len: int, kv_len: int) -> bool:
        """Whether one request's attention core (micro-batch 1) is already built."""
        return (1, seq_len, kv_len or seq_len) in self._shapes

    # -- the two operator groups -----------------------------------------------------------

    def _shape(self, micro_batch: int, seq_len: int, kv_len: int) -> _ShapeOps:
        key = (micro_batch, seq_len, kv_len or seq_len)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes.put(key, self._build_shape(*key))
        return shape

    def _token_ops(self, tokens: int) -> _TokenOps:
        ops = self._tokens.get(tokens)
        if ops is None:
            ops = self._tokens.put(tokens, self._build_token_ops(tokens))
        return ops

    def _build_shape(self, micro_batch: int, seq_len: int, kv_len: int) -> _ShapeOps:
        _check_shape(micro_batch, seq_len)
        precision = self.precision
        batch = micro_batch * self.heads_per_device
        score_elements = batch * seq_len * kv_len
        pointwise: List[Operator] = [
            NormalizationOp(
                name="attention_softmax",
                precision=precision,
                num_elements=score_elements,
                flops_per_element=SOFTMAX_FLOPS_PER_ELEMENT,
                variant="softmax",
            )
        ]
        if self.with_dropout:
            pointwise.append(_dropout("attention_dropout", precision, score_elements))
        return _ShapeOps(
            scores=GEMM(
                name="attention_scores",
                precision=precision,
                m=seq_len,
                n=kv_len,
                k=self.model.head_dim,
                batch=batch,
            ),
            pointwise=tuple(pointwise),
            context=GEMM(
                name="attention_context",
                precision=precision,
                m=seq_len,
                n=self.model.head_dim,
                k=kv_len,
                batch=batch,
            ),
        )

    def _build_token_ops(self, tokens: int) -> _TokenOps:
        _check_shape(1, tokens)
        model = self.model
        precision = self.precision
        norm = self.norm_elements(tokens)
        mlp_elements = tokens * self.ffn_per_device
        if model.mlp_activation is MLPActivation.SWIGLU:
            mlp_inputs = ("mlp_h_to_4h", "mlp_h_to_4h_up")
            activation = ElementwiseOp(
                name="mlp_silu_mul",
                precision=precision,
                num_elements=mlp_elements,
                flops_per_element=SILU_FLOPS_PER_ELEMENT,
                reads_per_element=2.0,
            )
        else:
            mlp_inputs = ("mlp_h_to_4h",)
            activation = ElementwiseOp(
                name="mlp_gelu",
                precision=precision,
                num_elements=mlp_elements,
                flops_per_element=GELU_FLOPS_PER_ELEMENT,
            )
        mlp_gemms = tuple(
            _weight_gemm(name, precision, tokens, n=self.ffn_per_device, k=model.hidden_size) for name in mlp_inputs
        ) + (_weight_gemm("mlp_4h_to_h", precision, tokens, n=model.hidden_size, k=self.ffn_per_device),)
        kv_cache_append: Tuple[Operator, ...] = ()
        if self.use_kv_cache:
            # Append the freshly computed K/V of the new tokens to the cache.
            kv_cache_append = (
                MemoryOp(
                    name="kv_cache_append",
                    precision=precision,
                    bytes_moved=2.0 * tokens * self.kv_heads_per_device * model.head_dim * precision.bytes_per_element,
                    is_write=True,
                ),
            )
        hidden_dropouts: Tuple[Operator, ...] = ()
        if self.with_dropout:
            hidden_dropouts = (
                _dropout("attention_output_dropout", precision, norm),
                _dropout("mlp_output_dropout", precision, norm),
            )
        input_layernorm = _layernorm("input_layernorm", precision, norm)
        qkv_projection = _weight_gemm(
            "qkv_projection",
            precision,
            tokens,
            n=self.hidden_per_device + 2 * self.kv_heads_per_device * model.head_dim,
            k=model.hidden_size,
        )
        attention_output = _weight_gemm(
            "attention_output", precision, tokens, n=model.hidden_size, k=self.hidden_per_device
        )
        post_attention_layernorm = _layernorm("post_attention_layernorm", precision, norm)
        attention_residual_add = _residual("attention_residual_add", precision, norm)
        mlp_residual_add = _residual("mlp_residual_add", precision, norm)
        return _TokenOps(
            input_layernorm=input_layernorm,
            qkv_projection=qkv_projection,
            kv_cache_append=kv_cache_append,
            attention_output=attention_output,
            attention_residual_add=attention_residual_add,
            post_attention_layernorm=post_attention_layernorm,
            mlp_gemms=mlp_gemms,
            mlp_activation=activation,
            mlp_residual_add=mlp_residual_add,
            hidden_dropouts=hidden_dropouts,
            step_order=(
                input_layernorm,
                qkv_projection,
                *kv_cache_append,
                attention_output,
                post_attention_layernorm,
                attention_residual_add,
                mlp_residual_add,
                *mlp_gemms,
                activation,
                *hidden_dropouts,
            ),
        )
