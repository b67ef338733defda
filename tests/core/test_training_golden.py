"""Golden regression test: `TrainingReport` outputs are pinned bit-for-bit.

The fixture ``golden_training_reports.json`` was generated from the scalar
``TrainingPerformanceModel.predict`` path *before* it was split into
``plan()``/``finish()``.  JSON floats round-trip exactly (``repr`` emits the
shortest exact representation), so the ``==`` comparisons below prove that
both the direct prediction and the sweep's batched planner reproduce the
recorded numbers bit-identically -- every step-time component, every kernel
breakdown entry, and the memory breakdown.

The grid covers intra- and inter-node TP, PP with and without virtual
stages, SP on and off, the three recompute strategies, FP16 and FP8, DP with
and without a gradient all-reduce, and stages with and without the lm head.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import PerformancePredictionEngine, build_system
from repro.parallelism.config import ParallelismConfig
from repro.sweep import Scenario, SweepRunner, clear_engine_cache

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_training_reports.json"

with GOLDEN_PATH.open() as fh:
    GOLDEN_CASES = json.load(fh)

#: Intra-/inter-node fabrics per accelerator of the pinned systems.
FABRICS = {"A100": ("NVLink3", "HDR-IB"), "H100": ("NVLink4", "NDR-IB"), "B200": ("NVLink5", "NDR-IB")}


def _case_id(entry) -> str:
    case, label = entry["case"], entry["report"]["parallelism_label"]
    return f"{case['model']}-{case['gpu']}x{case['num_devices']}-{label}-{case['recompute']}"


def _system(case):
    intra, inter = FABRICS[case["gpu"]]
    return build_system(case["gpu"], num_devices=case["num_devices"], intra_node=intra, inter_node=inter)


def _parallelism(case) -> ParallelismConfig:
    return ParallelismConfig(
        data_parallel=case["dp"],
        tensor_parallel=case["tp"],
        pipeline_parallel=case["pp"],
        sequence_parallel=case["sp"],
        micro_batch_size=case["micro_batch"],
        virtual_pipeline_stages=case["virtual_stages"],
        pipeline_schedule=case["schedule"],
    )


def _assert_matches(actual, expected) -> None:
    # Scalars first, for a readable failure before the full-dict check.
    for field, value in expected.items():
        if field not in ("kernel_breakdown", "memory"):
            assert actual[field] == value, field
    assert len(actual["kernel_breakdown"]) == len(expected["kernel_breakdown"])
    for got, want in zip(actual["kernel_breakdown"], expected["kernel_breakdown"]):
        assert got == want, want["name"]
    assert actual == expected


@pytest.mark.parametrize("entry", GOLDEN_CASES, ids=_case_id)
def test_training_report_matches_golden_bit_for_bit(entry):
    case = entry["case"]
    engine = PerformancePredictionEngine(_system(case))
    report = engine.predict_training(
        case["model"],
        _parallelism(case),
        global_batch_size=case["global_batch_size"],
        seq_len=case["seq_len"],
        precision=case["precision"],
        recompute=case["recompute"],
    )
    _assert_matches(report.to_dict(), entry["report"])


def test_batched_sweep_matches_golden_bit_for_bit():
    # One generation: every case is planned, priced and finished together.
    scenarios = [
        Scenario.training(
            _system(entry["case"]),
            entry["case"]["model"],
            _parallelism(entry["case"]),
            global_batch_size=entry["case"]["global_batch_size"],
            seq_len=entry["case"]["seq_len"],
            precision=entry["case"]["precision"],
            recompute=entry["case"]["recompute"],
        )
        for entry in GOLDEN_CASES
    ]
    clear_engine_cache()
    runner = SweepRunner(batch_planning=True)
    results = runner.run(scenarios)
    assert runner.stats.batched_scenarios == len(scenarios)
    for result, entry in zip(results, GOLDEN_CASES):
        _assert_matches(result.value.to_dict(), entry["report"])
