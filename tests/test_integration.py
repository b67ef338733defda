"""End-to-end integration tests: the full validation sweeps stay within the paper's bands."""

from __future__ import annotations

import pytest

from repro.analysis.formatting import summarize_errors
from repro.studies import paper
from repro.validation.reference import (
    TABLE1_TRAINING_ROWS,
    TABLE2_INFERENCE_ROWS,
)


@pytest.fixture(scope="module")
def table1_rows():
    return paper.table1_training_validation().run()


@pytest.fixture(scope="module")
def table2_rows():
    return paper.table2_inference_validation().run()


def test_table1_covers_every_reference_row(table1_rows):
    assert len(table1_rows) == len(TABLE1_TRAINING_ROWS)


def test_table1_every_row_within_reasonable_band(table1_rows):
    """The paper reports relative errors mostly below 10%; allow a slightly wider 12% band per row."""
    for row in table1_rows:
        assert abs(row["relative_error_%"]) < 12.0, row


def test_table1_mean_error_matches_paper_quality(table1_rows):
    summary = summarize_errors([row["relative_error_%"] for row in table1_rows])
    assert summary["mean_abs_error_%"] < 7.0


def test_table1_selective_faster_than_full(table1_rows):
    by_key = {(row["model"], row["recompute"]): row["predicted_s"] for row in table1_rows if row["num_gpus"] in (8, 64, 280, 512)}
    for model in ("GPT-175B", "GPT-530B", "GPT-1008B"):
        assert by_key[(model, "selective")] < by_key[(model, "full")]


def test_table1_time_grows_with_model_size(table1_rows):
    full_rows = {row["model"]: row["predicted_s"] for row in table1_rows if row["recompute"] == "full" and row["num_gpus"] in (8, 64, 280, 512)}
    assert full_rows["GPT-22B"] < full_rows["GPT-175B"] < full_rows["GPT-530B"] < full_rows["GPT-1008B"]


def test_table2_covers_every_reference_row(table2_rows):
    assert len(table2_rows) == len(TABLE2_INFERENCE_ROWS)


def test_table2_every_row_within_paper_band(table2_rows):
    """The paper matches NVIDIA's numbers within 13%; hold the reproduction to the same band."""
    for row in table2_rows:
        assert abs(row["relative_error_%"]) <= 13.0, row


def test_table2_mean_error_is_small(table2_rows):
    summary = summarize_errors([row["relative_error_%"] for row in table2_rows])
    assert summary["mean_abs_error_%"] < 8.0


def test_table2_h100_predicted_faster_than_a100(table2_rows):
    a100 = {(r["model"], r["num_gpus"]): r["predicted_ms"] for r in table2_rows if r["gpu"] == "A100"}
    h100 = {(r["model"], r["num_gpus"]): r["predicted_ms"] for r in table2_rows if r["gpu"] == "H100"}
    for key in a100:
        assert h100[key] < a100[key]


def test_table2_latency_decreases_with_gpus_but_sublinearly(table2_rows):
    for gpu in ("A100", "H100"):
        rows = sorted(
            (r for r in table2_rows if r["model"] == "Llama2-13B" and r["gpu"] == gpu),
            key=lambda r: r["num_gpus"],
        )
        latencies = [r["predicted_ms"] for r in rows]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] / latencies[-1] < 8  # far from linear scaling over 1 -> 8 GPUs
