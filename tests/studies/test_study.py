"""Tests for the declarative Study builder: expansion, execution, streaming."""

import types

import pytest

from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.models.zoo import register_model
from repro.studies import Study
from repro.sweep import SweepRunner


@pytest.fixture
def registered_tiny(tiny_model):
    """The tiny model, resolvable by name (studies reference models by name)."""
    return register_model(tiny_model)


def inference_study(**overrides):
    spec = dict(
        name="batch-scan",
        kind="inference",
        axes={"system": ["A100"], "batch_size": [1, 2]},
        fixed={"model": "tiny-gpt", "prompt_tokens": 64, "generated_tokens": 16},
        extract=lambda result: {"latency_s": result.value.total_latency},
    )
    spec.update(overrides)
    return Study(**spec)


def test_axes_expand_last_axis_fastest(registered_tiny):
    study = inference_study(axes={"system": ["A100", "H100"], "batch_size": [1, 2]})
    combos = list(study.combos())
    assert [(c["system"], c["batch_size"]) for c in combos] == [
        ("A100", 1), ("A100", 2), ("H100", 1), ("H100", 2),
    ]


def test_no_axes_means_single_evaluation(registered_tiny):
    study = inference_study(
        axes={}, fixed={"model": "tiny-gpt", "system": "A100", "prompt_tokens": 64}
    )
    assert list(study.combos()) == [{}]
    scenarios = list(study.scenarios())
    assert len(scenarios) == 1
    assert scenarios[0].model.name == "tiny-gpt"


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario kind"):
        Study(name="bad", kind="telepathy")


def test_run_attaches_axis_columns(registered_tiny):
    table = inference_study().run(runner=SweepRunner())
    assert table.keys() == ["system", "batch_size", "latency_s"]
    assert table["system"].tolist() == ["A100", "A100"]
    assert table["batch_size"].tolist() == [1, 2]
    assert (table["latency_s"] > 0).all()


def test_mapping_axis_spreads_linked_parameters(registered_tiny):
    cases = [
        {"label": "short", "prompt_tokens": 32, "generated_tokens": 8},
        {"label": "long", "prompt_tokens": 256, "generated_tokens": 64},
    ]
    study = inference_study(
        axes={"case": cases},
        fixed={"model": "tiny-gpt", "system": "A100"},
    )
    table = study.run(runner=SweepRunner())
    assert table["label"].tolist() == ["short", "long"]
    assert table["prompt_tokens"].tolist() == [32, 256]
    assert table["latency_s"][1] > table["latency_s"][0]


def test_non_dict_mapping_axis_spreads_like_a_dict(registered_tiny):
    cases = [
        {"label": "short", "prompt_tokens": 32, "generated_tokens": 8},
        {"label": "long", "prompt_tokens": 256, "generated_tokens": 64},
    ]
    fixed = {"model": "tiny-gpt", "system": "A100"}
    runner = SweepRunner()
    expected = inference_study(axes={"case": cases}, fixed=fixed).run(runner=runner)
    proxies = [types.MappingProxyType(case) for case in cases]
    table = inference_study(axes={"case": proxies}, fixed=fixed).run(runner=runner)
    assert table.to_dict() == expected.to_dict()


def test_enum_axis_values_reach_the_factory_and_render_as_their_value(registered_tiny):
    study = inference_study(axes={"system": ["A100"], "precision": [Precision.FP16, Precision.BF16]})
    run = study.execute(runner=SweepRunner())
    assert [scenario.precision for scenario in run.scenarios] == [Precision.FP16, Precision.BF16]
    assert run.table["precision"].tolist() == ["fp16", "bf16"]


def test_columns_projection_and_fixed_lift(registered_tiny):
    study = inference_study(columns=("batch_size", "prompt_tokens"))
    table = study.run(runner=SweepRunner())
    assert table.keys() == ["batch_size", "prompt_tokens", "latency_s"]
    assert table["prompt_tokens"].tolist() == [64, 64]  # lifted from fixed


def test_unknown_column_fails_loudly(registered_tiny):
    study = inference_study(columns=("batch_size", "typo"))
    with pytest.raises(ConfigurationError, match="typo"):
        study.run(runner=SweepRunner())


def test_rename_feeds_factory_under_other_name(registered_tiny):
    study = Study(
        name="bottlenecks",
        kind="prefill_bottlenecks",
        axes={"gpu": ["A100"]},
        fixed={"model": "tiny-gpt", "batch_size": 1, "prompt_tokens": 64},
        rename={"gpu": "accelerator"},
        extract=lambda result: {"gemms": len(result.value)},
    )
    table = study.run(runner=SweepRunner())
    assert table.keys() == ["gpu", "gemms"]
    assert table["gemms"][0] > 0


def test_filters_drop_combos_before_scenarios(registered_tiny):
    study = inference_study(
        axes={"system": ["A100"], "batch_size": [1, 2, 4, 8]},
        filters=(lambda flat: flat["batch_size"] <= 2,),
    )
    table = study.run(runner=SweepRunner())
    assert table["batch_size"].tolist() == [1, 2]


def test_prepare_computes_cross_axis_values(registered_tiny):
    def prepare(flat):
        flat["prompt_tokens"] = flat["batch_size"] * 32
        return flat

    study = inference_study(prepare=prepare)
    scenarios = list(study.scenarios())
    assert [s.prompt_tokens for s in scenarios] == [32, 64]


def test_exploding_extractor_replicates_axis_columns(registered_tiny):
    study = Study(
        name="exploded",
        kind="prefill_bottlenecks",
        axes={"gpu": ["A100"]},
        rename={"gpu": "accelerator"},
        fixed={"model": "tiny-gpt", "prompt_tokens": 64},
        extract=lambda result: [{"gemm": entry.name} for entry in result.value],
    )
    table = study.run(runner=SweepRunner())
    assert len(table) > 1
    assert set(table["gpu"].tolist()) == {"A100"}


def test_callable_derive_appends_columns(registered_tiny):
    def double_latency(table, run):
        table["latency_2x"] = table["latency_s"] * 2

    table = inference_study(derive=(double_latency,)).run(runner=SweepRunner())
    assert (table["latency_2x"] == table["latency_s"] * 2).all()


def test_derive_can_replace_the_table(registered_tiny):
    def project(table, run):
        return table.select(["batch_size"])

    table = inference_study(derive=(project,)).run(runner=SweepRunner())
    assert table.keys() == ["batch_size"]


def test_named_derive_with_kwargs(registered_tiny):
    study = inference_study(
        derive=("sum_columns", {"parts": ("latency_s", "latency_s"), "column": "doubled"}),
    )
    table = study.run(runner=SweepRunner())
    assert (table["doubled"] == 2 * table["latency_s"]).all()


def test_on_result_streams_once_per_scenario(registered_tiny):
    seen = []
    study = inference_study(axes={"system": ["A100"], "batch_size": [1, 2, 1]})
    study.run(runner=SweepRunner(), on_result=seen.append)
    assert len(seen) == 3
    assert sum(1 for result in seen if result.from_cache) == 1


def test_capture_errors_lands_in_error_column(registered_tiny):
    study = Study(
        name="infeasible",
        kind="inference",
        axes={"model": ["Llama2-70B", "tiny-gpt"]},
        fixed={"system": "A100", "tensor_parallel": 1},
        extract="error",
        capture_errors=True,
    )
    table = study.run(runner=SweepRunner())
    assert table["error"][0] is not None  # 70B never fits one A100
    assert table["error"][1] is None


def test_capture_errors_null_fills_report_extractors(registered_tiny):
    """Metric extractors that assume a report survive captured failures: the
    failed row gets null metrics plus the error, every row gains the error
    column, and successful rows keep their values."""
    study = Study(
        name="infeasible-metrics",
        kind="inference",
        axes={"model": ["Llama2-70B", "tiny-gpt"]},
        fixed={"system": "A100", "tensor_parallel": 1},
        extract="inference_validation",
        capture_errors=True,
    )
    table = study.run(runner=SweepRunner())
    assert "error" in table.keys()
    assert table["predicted_ms"][0] is None and table["error"][0] is not None
    assert table["predicted_ms"][1] > 0 and table["error"][1] is None


def test_capture_errors_null_fills_exploding_extractors(registered_tiny):
    study = Study(
        name="infeasible-exploded",
        kind="inference",
        axes={"model": ["Llama2-70B", "tiny-gpt"]},
        fixed={"system": "A100", "tensor_parallel": 1},
        extract=lambda result: [{"latency_s": result.value.total_latency}],
        capture_errors=True,
    )
    table = study.run(runner=SweepRunner())
    assert len(table) == 2  # one null-filled row for the failure, one real row
    assert table["latency_s"][0] is None and table["error"][0] is not None
    assert table["latency_s"][1] > 0 and table["error"][1] is None


def test_execute_exposes_run_context(registered_tiny):
    run = inference_study().execute(runner=SweepRunner())
    assert len(run.combos) == len(run.scenarios) == len(run.results) == 2
    assert run.table.keys()[0] == "system"
    assert all(result.ok for result in run.results)
