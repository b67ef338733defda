"""Benchmark: regenerate paper Fig. 3 (GEMV validation, varied vs constant DRAM utilization).

The paper profiles GEMV kernels on an A100, clusters them to fit size-dependent
DRAM-bandwidth-utilization factors, and shows that this "varied utilization"
model reduces the mean absolute percentage error to ~5.4%, while a single
constant factor is only accurate for large matrices.  Without the GPU, the
measurements are synthesized by a reference device model (see
``repro.calibration.gemv``); the calibration flow and the varied-vs-constant
comparison are reproduced end to end.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import paper
from repro.sweep import default_runner


def test_fig3_gemv_validation(benchmark):
    # The registered study tabulates the headline errors; the raw
    # GemvValidationResult is its single scenario's value.
    scenario = next(paper.fig3_gemv_validation().scenarios())
    result = run_once(benchmark, default_runner().evaluate, scenario)

    emit(
        render_table(
            result.as_rows(),
            title="Fig. 3: GEMV runtime vs prediction (synthetic A100 measurements)",
            precision=1,
        )
    )
    emit(
        f"mean |error| varied utilization   = {result.mean_error_varied_percent:.1f}%  (paper: 5.4%)\n"
        f"mean |error| constant utilization = {result.mean_error_constant_percent:.1f}%"
    )

    benchmark.extra_info["mean_error_varied_percent"] = round(result.mean_error_varied_percent, 2)
    benchmark.extra_info["mean_error_constant_percent"] = round(result.mean_error_constant_percent, 2)

    # Shape assertions: the clustered (varied) utilization model is clearly more
    # accurate than the constant one, and lands in the paper's error range.
    assert result.mean_error_varied_percent < result.mean_error_constant_percent
    assert result.mean_error_varied_percent < 8.0
    # The constant model is accurate for the largest matrices (as the paper notes).
    largest = max(result.points, key=lambda p: p.rows * p.cols)
    assert largest.error_constant_percent < 20.0
    # The fitted utilization factors increase with kernel size.
    factors = [util for _, util in result.utilization_model.table]
    assert factors == sorted(factors)
