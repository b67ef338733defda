"""Tests for the parallelization mapper."""

import pytest

from repro.errors import MappingError
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.mapper import ParallelizationMapper


def test_plan_basic_quantities(gpt_175b, a100_cluster_64):
    mapper = ParallelizationMapper(a100_cluster_64)
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    plan = mapper.plan_training(gpt_175b, config, global_batch_size=64)
    assert plan.num_microbatches == 64
    assert plan.seq_len == gpt_175b.max_seq_len
    assert plan.pipeline.pipeline_parallel == 8


def test_plan_rejects_oversubscription(gpt_175b, single_node_a100):
    mapper = ParallelizationMapper(single_node_a100)
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8)
    with pytest.raises(MappingError):
        mapper.plan_training(gpt_175b, config, global_batch_size=64)


def test_scopes_single_node(tiny_model, single_node_a100):
    mapper = ParallelizationMapper(single_node_a100)
    config = ParallelismConfig(tensor_parallel=4, data_parallel=2)
    plan = mapper.plan_training(tiny_model, config, global_batch_size=8)
    assert plan.tp_scope == "intra_node"
    assert plan.dp_scope == "intra_node"


def test_scopes_multi_node(gpt_175b, a100_cluster_64):
    mapper = ParallelizationMapper(a100_cluster_64)
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8)
    plan = mapper.plan_training(gpt_175b, config, global_batch_size=64)
    assert plan.tp_scope == "intra_node"
    assert plan.pp_scope == "inter_node"
    dp_config = ParallelismConfig(tensor_parallel=8, data_parallel=8)
    dp_plan = mapper.plan_training(gpt_175b, dp_config, global_batch_size=64)
    assert dp_plan.dp_scope == "inter_node"


def test_parameters_per_device_with_and_without_pp(gpt_175b, a100_cluster_64):
    mapper = ParallelizationMapper(a100_cluster_64)
    pp_plan = mapper.plan_training(
        gpt_175b, ParallelismConfig(tensor_parallel=8, pipeline_parallel=8), global_batch_size=64
    )
    tp_only_system = build_system("A100", num_devices=8)
    tp_plan = ParallelizationMapper(tp_only_system).plan_training(
        gpt_175b, ParallelismConfig(tensor_parallel=8), global_batch_size=8
    )
    # Without PP the device holds all layers plus the embedding shard.
    assert tp_plan.parameters_per_device > 7 * pp_plan.parameters_per_device
    assert pp_plan.parameters_per_device * 64 == pytest.approx(gpt_175b.num_parameters, rel=0.05)


def test_pipeline_p2p_bytes(gpt_175b, a100_cluster_64):
    mapper = ParallelizationMapper(a100_cluster_64)
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8)
    plan = mapper.plan_training(gpt_175b, config, global_batch_size=64)
    assert plan.pipeline_p2p_bytes_per_microbatch > 0
    no_pp_system = build_system("A100", num_devices=8)
    no_pp = ParallelizationMapper(no_pp_system).plan_training(
        gpt_175b, ParallelismConfig(tensor_parallel=8), global_batch_size=8
    )
    assert no_pp.pipeline_p2p_bytes_per_microbatch == 0.0


def test_precision_propagates(gpt_175b, a100_cluster_64):
    mapper = ParallelizationMapper(a100_cluster_64)
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8)
    plan = mapper.plan_training(gpt_175b, config, global_batch_size=64, precision=Precision.FP8)
    assert plan.precision is Precision.FP8


def test_plan_summary(gpt_175b, a100_cluster_64):
    mapper = ParallelizationMapper(a100_cluster_64)
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8)
    plan = mapper.plan_training(gpt_175b, config, global_batch_size=64)
    summary = plan.summary()
    assert summary["model"] == gpt_175b.name
    assert summary["micro_batches"] == 64
    assert summary["layers_per_stage"] == 12
