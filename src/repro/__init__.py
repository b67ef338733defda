"""repro: analytical performance modeling of distributed LLM training and inference.

This package reproduces the modeling framework of "Performance Modeling and
Workload Analysis of Distributed Large Language Model Training and Inference"
(IISWC 2024).  The most common entry points are re-exported here:

* :func:`repro.hardware.build_system` / :func:`repro.hardware.get_accelerator`
  to describe hardware,
* :func:`repro.models.get_model` for the GPT / Llama-2 model zoo,
* :class:`repro.parallelism.ParallelismConfig` for DP/TP/PP/SP settings,
* :class:`repro.core.PerformancePredictionEngine` to predict training-step
  times, inference latencies, memory footprints, and bottlenecks,
* :class:`repro.studies.Study` / :func:`repro.studies.get_study` for
  declarative, registry-backed sweeps (every paper table/figure is a
  registered study; ``python -m repro list`` enumerates them),
* :mod:`repro.studies.paper` for the technology-node and memory-technology
  design-space studies (built on :mod:`repro.dse`).
"""

from .core.engine import PerformancePredictionEngine
from .core.inference import InferencePerformanceModel
from .core.reports import InferenceReport, TrainingReport
from .core.training import TrainingPerformanceModel
from .hardware.accelerator import custom_accelerator, get_accelerator
from .hardware.catalog import get_system, list_systems, register_system
from .hardware.cluster import SystemSpec, build_system, preset_cluster
from .hardware.datatypes import Precision
from .memmodel.activations import RecomputeStrategy
from .models.zoo import get_model, list_models
from .parallelism.config import ParallelismConfig, parse_parallelism_label
from .serving import (
    LengthDistribution,
    SchedulerConfig,
    ServingConfig,
    ServingReport,
    ServingSimulator,
    ServingSLO,
    TraceConfig,
)
from .studies import Study, get_study, list_studies, register_study
from .sweep import Scenario, SweepResult, SweepRunner, SweepTable, expand_grid

__version__ = "4.0.0"

__all__ = [
    "InferencePerformanceModel",
    "InferenceReport",
    "LengthDistribution",
    "ParallelismConfig",
    "PerformancePredictionEngine",
    "Precision",
    "RecomputeStrategy",
    "Scenario",
    "SchedulerConfig",
    "ServingConfig",
    "ServingReport",
    "ServingSLO",
    "ServingSimulator",
    "Study",
    "SweepResult",
    "SweepRunner",
    "SweepTable",
    "SystemSpec",
    "TraceConfig",
    "TrainingPerformanceModel",
    "TrainingReport",
    "expand_grid",
    "build_system",
    "custom_accelerator",
    "get_accelerator",
    "get_model",
    "get_study",
    "get_system",
    "list_models",
    "list_studies",
    "list_systems",
    "parse_parallelism_label",
    "preset_cluster",
    "register_study",
    "register_system",
    "__version__",
]
