"""Tests for the data-parallel gradient synchronization of a training step.

Each replica all-reduces the gradients of the weights its device holds
(:meth:`ParallelismConfig.parameters_per_device`) across the DP group, and
the optimizer then updates those same weights.
"""

import pytest

from repro.core.training import OPTIMIZER_BYTES_PER_PARAMETER, TrainingPerformanceModel
from repro.hardware.datatypes import Precision
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.megatron import TensorParallelShard
from repro.workload.operators import CollectiveKind


@pytest.fixture
def trainer(single_node_a100):
    return TrainingPerformanceModel(system=single_node_a100)


def _plan(trainer, model, data_parallel=2, pipeline_parallel=1, precision=Precision.FP16):
    parallelism = ParallelismConfig(
        data_parallel=data_parallel, tensor_parallel=2, pipeline_parallel=pipeline_parallel
    )
    return trainer.plan(model, parallelism, global_batch_size=8, seq_len=128, precision=precision)


def test_parameters_on_device_without_embedding(trainer, tiny_model):
    """With pipeline stages a replica reduces only its stage's layers."""
    plan = _plan(trainer, tiny_model, pipeline_parallel=2)
    shard = TensorParallelShard(model=tiny_model, tensor_parallel=2)
    assert plan.dp_op.data_bytes == 2 * shard.parameters_per_layer * 2  # two layers at 2 bytes


def test_parameters_include_embedding_when_requested(trainer, tiny_model):
    """Without pipeline stages the device holds the embedding, and its gradients join the all-reduce."""
    plan = _plan(trainer, tiny_model, pipeline_parallel=1)
    shard = TensorParallelShard(model=tiny_model, tensor_parallel=2)
    assert plan.dp_op.data_bytes == (4 * shard.parameters_per_layer + shard.embedding_parameters) * 2


def test_gradient_bytes_scale_with_precision(trainer, tiny_model):
    fp16 = _plan(trainer, tiny_model).dp_op.data_bytes
    assert _plan(trainer, tiny_model, precision=Precision.FP32).dp_op.data_bytes == 2 * fp16
    assert _plan(trainer, tiny_model, precision=Precision.FP8).dp_op.data_bytes == fp16 / 2


def test_requires_all_reduce_only_with_dp(trainer, tiny_model):
    assert _plan(trainer, tiny_model, data_parallel=1).dp_op is None
    for data_parallel in (2, 4):
        plan = _plan(trainer, tiny_model, data_parallel=data_parallel)
        op = plan.dp_op
        assert (op.collective, op.group_size, op.scope) == (
            CollectiveKind.ALL_REDUCE,
            data_parallel,
            plan.mapping.dp_scope,
        )
        assert op in plan.collective_queries()


def test_optimizer_update_elements_equals_parameters(trainer, tiny_model, single_node_a100):
    """The optimizer streams its per-parameter states once for every weight the device holds."""
    dram = single_node_a100.accelerator.memory.dram
    for pipeline_parallel in (1, 2):
        plan = _plan(trainer, tiny_model, pipeline_parallel=pipeline_parallel)
        streamed = trainer.finish(plan).weight_update_time * dram.bandwidth * dram.utilization
        assert streamed / OPTIMIZER_BYTES_PER_PARAMETER == pytest.approx(plan.mapping.parameters_per_device, rel=1e-12)
