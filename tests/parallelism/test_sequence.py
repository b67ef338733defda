"""Tests for sequence parallelism (SP), which shards along the TP group.

SP has no plan object of its own: the layer template shards the norm and
dropout blocks and swaps each TP all-reduce for a reduce-scatter plus an
all-gather, the activation model shards the activations TP alone leaves
whole, and a pipeline stage sends only its rank's slice.
"""

import pytest

from repro.comm.collectives import all_gather_time, reduce_scatter_time, ring_all_reduce_time
from repro.core.training import TrainingPerformanceModel
from repro.errors import ConfigurationError
from repro.memmodel.activations import ActivationModel
from repro.parallelism.config import ParallelismConfig, parse_parallelism_label
from repro.parallelism.pipeline import pipeline_p2p_volume_per_microbatch
from repro.workload.operators import CollectiveKind
from repro.workload.transformer_layer import LayerTemplate

TOKENS = 2 * 128

#: Each collective's per-rank wire time at unit bandwidth and no latency: its volume.
_VOLUME = {
    CollectiveKind.ALL_REDUCE: ring_all_reduce_time,
    CollectiveKind.REDUCE_SCATTER: reduce_scatter_time,
    CollectiveKind.ALL_GATHER: all_gather_time,
}


def _p2p_bytes(model, tp, sp):
    return pipeline_p2p_volume_per_microbatch(
        model, micro_batch=2, seq_len=128, tensor_parallel=tp, sequence_parallel=sp
    )


def _volume(ops):
    return sum(_VOLUME[op.collective](op.data_bytes, op.group_size, 1.0) for op in ops)


@pytest.mark.parametrize("tp, sp, shards", [(8, False, 1), (8, True, 8), (4, True, 4)])
def test_sp_shards_norms_their_activations_and_stage_sends_over_tp(tiny_model, tp, sp, shards):
    """SP splits the norm inputs, the activations they save and the tensor a
    pipeline stage sends over the TP group; TP alone keeps them whole."""
    template = LayerTemplate(tiny_model, tensor_parallel=tp, sequence_parallel=sp)
    assert template.norm_elements(TOKENS) == TOKENS * tiny_model.hidden_size // shards
    assert _p2p_bytes(tiny_model, tp, sp) == pytest.approx(_p2p_bytes(tiny_model, tp=1, sp=False) / shards)
    serial = ActivationModel(tiny_model, micro_batch=2, seq_len=128)
    sharded = ActivationModel(tiny_model, micro_batch=2, seq_len=128, tensor_parallel=tp, sequence_parallel=sp)
    assert sharded.layernorm_activation_bytes() == pytest.approx(serial.layernorm_activation_bytes() / shards)


def test_sp_over_single_device_normalizes_to_disabled(tiny_model):
    assert not parse_parallelism_label("1-1-1-1").sequence_parallel
    plain = LayerTemplate(tiny_model, tensor_parallel=1)
    sp = LayerTemplate(tiny_model, tensor_parallel=1, sequence_parallel=True)
    assert sp.norm_elements(TOKENS) == plain.norm_elements(TOKENS)
    assert sp.forward_compute_ops(2, 128) == plain.forward_compute_ops(2, 128)
    assert sp.communication(TOKENS) == ()
    assert _p2p_bytes(tiny_model, tp=1, sp=True) == _p2p_bytes(tiny_model, tp=1, sp=False)


def test_sp_adds_no_communication_volume(tiny_model):
    """A reduce-scatter plus an all-gather moves what the all-reduce it replaces moves."""
    plain = LayerTemplate(tiny_model, tensor_parallel=4).communication(TOKENS)
    sp = LayerTemplate(tiny_model, tensor_parallel=4, sequence_parallel=True).communication(TOKENS)
    assert len(sp) == 2 * len(plain)
    assert _volume(sp) == pytest.approx(_volume(plain), rel=1e-12)


def test_validation(tiny_model):
    with pytest.raises(ConfigurationError):
        ParallelismConfig(tensor_parallel=0, sequence_parallel=True)
    with pytest.raises(ConfigurationError):
        LayerTemplate(tiny_model, tensor_parallel=0, sequence_parallel=True)
    with pytest.raises(ConfigurationError):
        ActivationModel(tiny_model, micro_batch=1, seq_len=128, tensor_parallel=0, sequence_parallel=True)
    with pytest.raises(ConfigurationError, match="SP degree must be 1 or equal to TP"):
        parse_parallelism_label("1-8-1-4")


def test_mapped_training_plan_carries_sp_to_the_layer(tiny_model, single_node_a100):
    model = TrainingPerformanceModel(system=single_node_a100)
    for sequence_parallel in (False, True):
        config = ParallelismConfig(tensor_parallel=4, sequence_parallel=sequence_parallel)
        plan = model.plan(tiny_model, config, global_batch_size=4, seq_len=128)
        (norm,) = [op for op in plan.forward_ops if op.name == "input_layernorm"]
        assert norm.num_elements == 128 * tiny_model.hidden_size // (4 if sequence_parallel else 1)
        collectives = {op.collective for op in plan.tp_comms}
        assert (CollectiveKind.REDUCE_SCATTER in collectives) is sequence_parallel
