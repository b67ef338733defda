"""Tests for the end-to-end training performance model."""

import pytest

from repro.core.training import TrainingPerformanceModel
from repro.hardware.cluster import build_system, preset_cluster
from repro.hardware.datatypes import Precision
from repro.parallelism.config import ParallelismConfig


@pytest.fixture
def model_64(a100_cluster_64):
    return TrainingPerformanceModel(system=a100_cluster_64)


@pytest.fixture
def config_88():
    return ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)


def test_report_structure(model_64, gpt_175b, config_88):
    report = model_64.predict(gpt_175b, config_88, global_batch_size=64, recompute="full")
    assert report.step_time > 0
    assert report.step_time == pytest.approx(
        report.compute_time
        + report.recompute_time
        + report.communication_time
        + report.other_time
    )
    assert report.communication_time == pytest.approx(
        report.tp_communication_time + report.pp_communication_time + report.dp_communication_time
    )
    assert report.other_time == pytest.approx(report.bubble_time + report.weight_update_time)
    assert report.kernel_breakdown
    assert report.memory.total_bytes > 0
    assert report.parallelism_label == "1-8-8-1"


def test_gpt175b_validation_row_within_paper_band(model_64, gpt_175b, config_88):
    """The GPT-175B / 64 A100 / full-recompute row of Table 1 lands within ~10% of 18.1 s."""
    report = model_64.predict(gpt_175b, config_88, global_batch_size=64, recompute="full")
    assert report.step_time == pytest.approx(18.1, rel=0.10)


def test_full_recompute_slower_than_selective(model_64, gpt_175b, config_88):
    full = model_64.predict(gpt_175b, config_88, global_batch_size=64, recompute="full")
    selective = model_64.predict(gpt_175b, config_88, global_batch_size=64, recompute="selective")
    none = model_64.predict(gpt_175b, config_88, global_batch_size=64, recompute="none")
    assert full.step_time > selective.step_time > none.step_time
    assert full.recompute_time > selective.recompute_time > none.recompute_time == 0.0


def test_throughput_scales_with_devices(gpt_175b):
    """Doubling the data-parallel width roughly doubles training throughput."""
    small = TrainingPerformanceModel(system=build_system("A100", num_devices=64))
    large = TrainingPerformanceModel(system=build_system("A100", num_devices=128))
    config_small = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    config_large = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, data_parallel=2, micro_batch_size=1)
    report_small = small.predict(gpt_175b, config_small, global_batch_size=64)
    report_large = large.predict(gpt_175b, config_large, global_batch_size=128)
    speedup = report_large.throughput_tokens_per_second() / report_small.throughput_tokens_per_second()
    assert 1.6 < speedup <= 2.05


def test_faster_accelerator_gives_faster_step(gpt_175b, config_88):
    a100 = TrainingPerformanceModel(system=build_system("A100", num_devices=64))
    h100 = TrainingPerformanceModel(system=build_system("H100", num_devices=64, intra_node="NVLink4", inter_node="NDR-IB"))
    a100_time = a100.predict(gpt_175b, config_88, global_batch_size=64).step_time
    h100_time = h100.predict(gpt_175b, config_88, global_batch_size=64).step_time
    assert h100_time < a100_time / 1.8


def test_fp8_training_faster_than_fp16_on_h100(gpt_175b, config_88):
    h100 = TrainingPerformanceModel(system=build_system("H100", num_devices=64, intra_node="NVLink4", inter_node="NDR-IB"))
    fp16 = h100.predict(gpt_175b, config_88, global_batch_size=64, precision=Precision.FP16)
    fp8 = h100.predict(gpt_175b, config_88, global_batch_size=64, precision=Precision.FP8)
    assert fp8.step_time < fp16.step_time


def test_more_microbatches_reduce_bubble_fraction(gpt_175b, model_64, config_88):
    small_batch = model_64.predict(gpt_175b, config_88, global_batch_size=16)
    large_batch = model_64.predict(gpt_175b, config_88, global_batch_size=128)
    small_fraction = small_batch.bubble_time / small_batch.step_time
    large_fraction = large_batch.bubble_time / large_batch.step_time
    assert large_fraction < small_fraction


def test_interleaved_schedule_reduces_bubble(gpt_175b, model_64):
    plain = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    interleaved = ParallelismConfig(
        tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1,
        pipeline_schedule="interleaved", virtual_pipeline_stages=4,
    )
    plain_report = model_64.predict(gpt_175b, plain, global_batch_size=64)
    interleaved_report = model_64.predict(gpt_175b, interleaved, global_batch_size=64)
    assert interleaved_report.bubble_time < plain_report.bubble_time


def test_dp_communication_present_only_with_dp(gpt_175b):
    system = build_system("A100", num_devices=128)
    trainer = TrainingPerformanceModel(system=system)
    no_dp = trainer.predict(gpt_175b, ParallelismConfig(tensor_parallel=8, pipeline_parallel=8), global_batch_size=64)
    with_dp = trainer.predict(
        gpt_175b,
        ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, data_parallel=2),
        global_batch_size=64,
    )
    assert no_dp.dp_communication_time == 0.0
    assert with_dp.dp_communication_time > 0.0


def test_sequence_parallelism_does_not_increase_step_time(gpt_175b, model_64):
    base = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    sp = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1, sequence_parallel=True)
    base_report = model_64.predict(gpt_175b, base, global_batch_size=64, recompute="selective")
    sp_report = model_64.predict(gpt_175b, sp, global_batch_size=64, recompute="selective")
    assert sp_report.step_time <= base_report.step_time * 1.05
    assert sp_report.memory.activation_bytes < base_report.memory.activation_bytes


def test_nvs_cluster_reduces_communication(gpt_175b):
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, data_parallel=2, micro_batch_size=1)
    hdr = TrainingPerformanceModel(system=preset_cluster("A100-HDR", num_devices=128))
    nvs = TrainingPerformanceModel(system=preset_cluster("H100-NVS", num_devices=128))
    hdr_report = hdr.predict(gpt_175b, config, global_batch_size=128)
    nvs_report = nvs.predict(gpt_175b, config, global_batch_size=128)
    assert nvs_report.dp_communication_time < hdr_report.dp_communication_time


def test_breakdown_dict_and_throughput(gpt_175b, model_64, config_88):
    report = model_64.predict(gpt_175b, config_88, global_batch_size=64)
    breakdown = report.breakdown()
    assert breakdown["total"] == pytest.approx(report.step_time)
    assert report.throughput_tokens_per_second() == pytest.approx(64 * 2048 / report.step_time)
    assert report.step_time_ms == pytest.approx(report.step_time * 1000)
