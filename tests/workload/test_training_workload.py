"""Tests for the training micro-batch spec.

A micro-batch's per-layer operators come from the layer template its layer
spec selects; the training model prices them once per resident layer.
"""

import pytest

from repro.core.training import TrainingPerformanceModel
from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.models.transformer import TransformerConfig
from repro.parallelism.config import ParallelismConfig
from repro.workload.operators import GEMM
from repro.workload.training import TrainingMicrobatchSpec


def _spec(model, layers=2, tp=1, sp=False, precision=Precision.FP16, include_embedding=False):
    return TrainingMicrobatchSpec(
        model=model,
        micro_batch=1,
        seq_len=128,
        layers_per_stage=layers,
        tensor_parallel=tp,
        sequence_parallel=sp,
        precision=precision,
        include_embedding=include_embedding,
    )


def _forward_ops(spec):
    layer = spec.layer_spec()
    return layer.template().forward_compute_ops(*layer.shape)


def _backward_ops(spec):
    layer = spec.layer_spec()
    return layer.template().backward_compute_ops(*layer.shape)


def test_spec_validation(tiny_model):
    with pytest.raises(ConfigurationError):
        TrainingMicrobatchSpec(model=tiny_model, micro_batch=1, seq_len=128, layers_per_stage=0)


def test_stage_time_scales_with_layers_per_stage(single_node_a100):
    def report(num_layers):
        model = TransformerConfig(
            name=f"tiny-{num_layers}",
            num_layers=num_layers,
            hidden_size=512,
            num_heads=8,
            vocab_size=32000,
            max_seq_len=256,
        )
        parallelism = ParallelismConfig(pipeline_parallel=2)  # no LM head on a middle stage
        return TrainingPerformanceModel(system=single_node_a100).predict(
            model, parallelism, global_batch_size=4, seq_len=128
        )

    one, three = report(2), report(6)  # 1 and 3 layers per stage
    assert three.compute_time == pytest.approx(3 * one.compute_time, rel=1e-9)
    assert [entry.count for entry in three.kernel_breakdown] == [3 * entry.count for entry in one.kernel_breakdown]


def test_lm_head_only_when_embedding_included(tiny_model, single_node_a100):
    model = TrainingPerformanceModel(system=single_node_a100)

    def plan(pipeline_parallel):
        parallelism = ParallelismConfig(pipeline_parallel=pipeline_parallel)
        return model.plan(tiny_model, parallelism, global_batch_size=4, seq_len=128)

    single_stage, staged = plan(1), plan(2)
    assert single_stage.mapping.microbatch_spec.include_embedding
    assert not staged.mapping.microbatch_spec.include_embedding
    assert staged.lm_head is None
    assert single_stage.lm_head.name == "lm_head"
    assert single_stage.lm_head.m == 128  # every token of the micro-batch
    assert all(op.name != "lm_head" for op in single_stage.forward_ops)


@pytest.mark.parametrize("sequence_parallel", [False, True])
def test_training_plan_prices_one_layer_forward_and_backward(tiny_model, single_node_a100, sequence_parallel):
    """A training plan's priced work is one layer's forward plus its backward."""
    parallelism = ParallelismConfig(tensor_parallel=2, pipeline_parallel=2, sequence_parallel=sequence_parallel)
    plan = TrainingPerformanceModel(system=single_node_a100).plan(
        tiny_model, parallelism, global_batch_size=4, seq_len=128
    )
    spec = plan.mapping.microbatch_spec
    forward = [op for op in _forward_ops(spec) if isinstance(op, GEMM)]
    backward = [op for op in _backward_ops(spec) if isinstance(op, GEMM)]
    queries = plan.gemm_queries()
    assert len(queries) == len(forward) + len(backward)
    assert sum(op.flops for op in queries) == pytest.approx(
        sum(op.flops for op in forward) + sum(op.flops for op in backward), rel=1e-9
    )
    layer = spec.layer_spec()
    template = layer.template()
    scope = plan.mapping.tp_scope
    assert layer.sequence_parallel is sequence_parallel
    assert plan.tp_comms == (
        template.forward_communication(layer.tokens, scope) + template.backward_communication(layer.tokens, scope)
    )
    assert plan.collective_queries() == [*plan.tp_comms, plan.pp_op]


@pytest.mark.parametrize("model_fixture", ["tiny_model", "tiny_swiglu_model"])
def test_backward_kernel_names_carry_gradient_suffixes(request, model_fixture):
    """Each backward kernel's name marks its phase with a gradient suffix no forward kernel carries."""
    spec = _spec(request.getfixturevalue(model_fixture), layers=1)
    forward, backward = _forward_ops(spec), _backward_ops(spec)
    suffixes = ("_dgrad", "_wgrad", "_grad")
    assert forward and backward
    assert not any(op.name.endswith(suffixes) for op in forward)
    assert all(op.name.endswith(suffixes) for op in backward)
    # Every forward GEMM has two backward GEMMs; every other kernel has one.
    assert len(backward) == len(forward) + sum(isinstance(op, GEMM) for op in forward)


def test_layer_spec_carries_parallel_degrees_and_precision(tiny_model):
    layer = _spec(tiny_model, tp=2, sp=True, precision=Precision.BF16).layer_spec()
    assert (layer.tensor_parallel, layer.sequence_parallel, layer.precision) == (2, True, Precision.BF16)
    assert layer.with_dropout and not layer.use_kv_cache
    assert layer.shape == (1, 128, 128)
    gemm_precisions = {op.precision for op in layer.template().forward_gemms(*layer.shape)}
    assert gemm_precisions == {Precision.BF16}
