"""Parallelization strategies: DP, TP (Megatron) and PP schedules.

:class:`ParallelismConfig` holds the four degrees and derives what one device
runs: its pipeline stage's layers, whether it holds the embedding, and the
weights it holds, which also size the data-parallel gradient all-reduce.
Sequence parallelism (SP) is a flag on it; its modelled effects -- sharded
norm/dropout operators and activations -- live in
:class:`~repro.workload.transformer_layer.LayerTemplate` and
:mod:`repro.memmodel.activations`.
"""

from .config import ParallelismConfig, parse_parallelism_label
from .mapper import DistributedTrainingPlan, ParallelizationMapper
from .megatron import TensorParallelShard
from .pipeline import PipelineSchedule, bubble_fraction, pipeline_p2p_volume_per_microbatch

__all__ = [
    "DistributedTrainingPlan",
    "ParallelismConfig",
    "ParallelizationMapper",
    "PipelineSchedule",
    "TensorParallelShard",
    "bubble_fraction",
    "parse_parallelism_label",
    "pipeline_p2p_volume_per_microbatch",
]
