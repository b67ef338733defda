"""Tests for the parallelism configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.parallelism.config import ParallelismConfig, parse_parallelism_label
from repro.parallelism.megatron import TensorParallelShard


def test_defaults_are_serial():
    config = ParallelismConfig()
    assert config.total_devices == 1
    assert config.label == "1-1-1-1"


def test_total_and_model_parallel_devices():
    config = ParallelismConfig(data_parallel=4, tensor_parallel=8, pipeline_parallel=2)
    assert config.total_devices == 64
    assert config.model_parallel_devices == 16


def test_validation_rejects_non_positive_degrees():
    with pytest.raises(ConfigurationError):
        ParallelismConfig(data_parallel=0)
    with pytest.raises(ConfigurationError):
        ParallelismConfig(micro_batch_size=0)
    with pytest.raises(ConfigurationError):
        ParallelismConfig(pipeline_schedule="zigzag")


def test_batch_and_microbatch_math():
    config = ParallelismConfig(data_parallel=4, micro_batch_size=2)
    assert config.batch_per_replica(64) == 16
    assert config.num_microbatches(64) == 8
    with pytest.raises(ConfigurationError):
        config.batch_per_replica(66)
    with pytest.raises(ConfigurationError):
        ParallelismConfig(data_parallel=1, micro_batch_size=3).num_microbatches(8)


def test_layers_per_stage(gpt_175b):
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8)
    assert config.layers_per_stage(gpt_175b) == 12
    with pytest.raises(ConfigurationError):
        ParallelismConfig(pipeline_parallel=7).layers_per_stage(gpt_175b)


@pytest.mark.parametrize("pipeline_parallel", [1, 8])
def test_parameters_per_device_and_holds_embedding(gpt_175b, pipeline_parallel):
    """A device holds its stage's layers, plus the embedding only without pipeline stages."""
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=pipeline_parallel)
    shard = TensorParallelShard(model=gpt_175b, tensor_parallel=8)
    layers = shard.parameters_per_layer * (gpt_175b.num_layers // pipeline_parallel)
    embedding = shard.embedding_parameters if pipeline_parallel == 1 else 0.0
    assert config.holds_embedding is (pipeline_parallel == 1)
    assert config.parameters_per_device(gpt_175b) == layers + embedding


def test_layers_per_virtual_stage(gpt_175b):
    config = ParallelismConfig(pipeline_parallel=8, pipeline_schedule="interleaved", virtual_pipeline_stages=4)
    assert config.layers_per_virtual_stage(gpt_175b) == 3
    with pytest.raises(ConfigurationError):
        ParallelismConfig(
            pipeline_parallel=8, pipeline_schedule="interleaved", virtual_pipeline_stages=5
        ).layers_per_virtual_stage(gpt_175b)


def test_validate_for_model_checks_heads(gpt_175b):
    config = ParallelismConfig(tensor_parallel=7)
    with pytest.raises(ConfigurationError):
        config.validate_for_model(gpt_175b)
    ParallelismConfig(tensor_parallel=8, pipeline_parallel=8).validate_for_model(gpt_175b)


def test_interleaved_schedule_normalization():
    config = ParallelismConfig(pipeline_parallel=4, virtual_pipeline_stages=3)
    assert config.pipeline_schedule == "interleaved"
    config = ParallelismConfig(pipeline_parallel=4, pipeline_schedule="interleaved")
    assert config.virtual_pipeline_stages >= 2


def test_label_includes_sp_degree():
    config = ParallelismConfig(data_parallel=2, tensor_parallel=8, pipeline_parallel=4, sequence_parallel=True)
    assert config.label == "2-8-4-8"
    assert ParallelismConfig(tensor_parallel=8).label == "1-8-1-1"


def test_parse_parallelism_label_roundtrip():
    config = parse_parallelism_label("15-8-16-1", micro_batch_size=2)
    assert config.data_parallel == 15
    assert config.tensor_parallel == 8
    assert config.pipeline_parallel == 16
    assert not config.sequence_parallel
    assert config.micro_batch_size == 2
    sp_config = parse_parallelism_label("1-8-8-8")
    assert sp_config.sequence_parallel


def test_parse_parallelism_label_schedule():
    """A label parses to the 1F1B schedule, with or without pipeline stages, unless a schedule is given."""
    assert parse_parallelism_label("1-8-1-1").pipeline_schedule == "1f1b"
    assert parse_parallelism_label("1-8-8-1").pipeline_schedule == "1f1b"
    interleaved = parse_parallelism_label("1-8-8-1", pipeline_schedule="interleaved")
    assert (interleaved.pipeline_schedule, interleaved.virtual_pipeline_stages) == ("interleaved", 2)


def test_parse_parallelism_label_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        parse_parallelism_label("1-8-8")
    with pytest.raises(ConfigurationError):
        parse_parallelism_label("1-8-8-4")  # SP must be 1 or TP


def test_summary_dictionary():
    summary = ParallelismConfig(data_parallel=2, tensor_parallel=4, pipeline_parallel=2).summary()
    assert summary["total_devices"] == 16
    assert summary["dp"] == 2
