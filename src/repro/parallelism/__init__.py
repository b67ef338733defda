"""Parallelization strategies: DP, TP (Megatron) and PP schedules.

Sequence parallelism (SP) is a flag on :class:`ParallelismConfig`; its
modelled effects -- sharded norm/dropout operators and activations -- live in
:class:`~repro.workload.transformer_layer.LayerTemplate` and
:mod:`repro.memmodel.activations`.
"""

from .config import ParallelismConfig, parse_parallelism_label
from .data_parallel import DataParallelPlan
from .mapper import DistributedTrainingPlan, ParallelizationMapper
from .megatron import TensorParallelShard
from .pipeline import PipelineSchedule, bubble_fraction, pipeline_p2p_volume_per_microbatch

__all__ = [
    "DataParallelPlan",
    "DistributedTrainingPlan",
    "ParallelismConfig",
    "ParallelizationMapper",
    "PipelineSchedule",
    "TensorParallelShard",
    "bubble_fraction",
    "parse_parallelism_label",
    "pipeline_p2p_volume_per_microbatch",
]
