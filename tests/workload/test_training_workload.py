"""Tests for the training workload.

``TrainingPerformanceModel.plan`` takes one layer's operators from the
training layer template of its (model, TP, SP, precision) configuration at
the micro-batch shape; the training model prices them once per resident
layer and adds the pipeline and data-parallel collectives.
"""

import pytest

from repro.core.training import TrainingPerformanceModel
from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.models.transformer import TransformerConfig
from repro.parallelism.config import ParallelismConfig
from repro.workload.operators import GEMM
from repro.workload.transformer_layer import LayerTemplate

SHAPE = (1, 128, 128)  # micro-batch 1 at sequence length 128


def test_spec_validation(tiny_model, single_node_a100):
    """A step needs whole layers on every stage and a non-empty micro-batch; the recompute strategy is checked first."""
    model = TrainingPerformanceModel(system=single_node_a100)
    with pytest.raises(ConfigurationError, match="must be divisible by the PP degree"):
        model.plan(tiny_model, ParallelismConfig(pipeline_parallel=8), global_batch_size=8, seq_len=128)
    with pytest.raises(ConfigurationError, match="micro_batch and seq_len must be positive"):
        model.plan(tiny_model, ParallelismConfig(), global_batch_size=4, seq_len=0)
    with pytest.raises(ConfigurationError, match="unknown recompute strategy"):
        model.plan(tiny_model, ParallelismConfig(pipeline_parallel=8), global_batch_size=8, recompute="sometimes")


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
    template = LayerTemplate(tiny_model, tensor_parallel=2, sequence_parallel=sequence_parallel)
    forward = [op for op in template.forward_compute_ops(*SHAPE) if isinstance(op, GEMM)]
    backward = [op for op in template.backward_compute_ops(*SHAPE) if isinstance(op, GEMM)]
    queries = plan.gemm_queries()
    assert len(queries) == len(forward) + len(backward)
    assert sum(op.flops for op in queries) == pytest.approx(
        sum(op.flops for op in forward) + sum(op.flops for op in backward), rel=1e-9
    )
    tokens = SHAPE[0] * SHAPE[1]
    scope = plan.mapping.tp_scope
    assert plan.tp_comms == (
        template.forward_communication(tokens, scope) + template.backward_communication(tokens, scope)
    )
    assert plan.collective_queries() == [*plan.tp_comms, plan.pp_op]


@pytest.mark.parametrize("model_fixture", ["tiny_model", "tiny_swiglu_model"])
def test_backward_kernel_names_carry_gradient_suffixes(request, model_fixture):
    """Each backward kernel's name marks its phase with a gradient suffix no forward kernel carries."""
    template = LayerTemplate(request.getfixturevalue(model_fixture))
    forward, backward = template.forward_compute_ops(*SHAPE), template.backward_compute_ops(*SHAPE)
    suffixes = ("_dgrad", "_wgrad", "_grad")
    assert forward and backward
    assert not any(op.name.endswith(suffixes) for op in forward)
    assert all(op.name.endswith(suffixes) for op in backward)
    # Every forward GEMM has two backward GEMMs; every other kernel has one.
    assert len(backward) == len(forward) + sum(isinstance(op, GEMM) for op in forward)


def test_training_plan_carries_parallel_degrees_and_precision(tiny_model, single_node_a100):
    """The plan renders the TP, SP, precision, dropout, cache-free layer at the micro-batch shape."""
    parallelism = ParallelismConfig(tensor_parallel=2, sequence_parallel=True)
    plan = TrainingPerformanceModel(system=single_node_a100).plan(
        tiny_model, parallelism, global_batch_size=4, seq_len=128, precision=Precision.BF16
    )
    template = LayerTemplate(tiny_model, tensor_parallel=2, sequence_parallel=True, precision=Precision.BF16)
    assert plan.forward_ops == template.forward_compute_ops(*SHAPE)
    assert plan.backward_ops == template.backward_compute_ops(*SHAPE)
    assert any("dropout" in op.name for op in plan.forward_ops)
    assert not any(op.name == "kv_cache_append" for op in plan.forward_ops)
    assert {op.precision for op in plan.gemm_queries()} == {Precision.BF16}
