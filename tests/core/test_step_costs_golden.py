"""Golden regression test: serving step costs are pinned float for float.

``golden_step_costs.json`` was recorded when ``prefill_step`` still built and
priced one operator list per step and ``decode_run`` filled its KV table one
operator at a time.  Every field of every ``StepCost`` from ``prefill_step``
and ``decode_step``, and every array of ``decode_run``, must repeat exactly:

* models: Llama2-7B (MHA, SwiGLU), Llama2-70B (GQA, 8 KV heads), GPT-7B (GELU);
* TP 1, 4 and 16 on 8-device nodes (so both collective scopes appear), FP16
  and FP8, lm head on and off;
* prompt sets around the first table boundary (255/256/257), single prompts
  of 1, 2,048 and 4,096 tokens, and a 32-prompt mix;
* decode runs whose KV range crosses a table boundary.

Regenerate (only for an intended numeric change) with::

    PYTHONPATH=src python tests/core/test_step_costs_golden.py > tests/core/golden_step_costs.json
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.core.stepcost import StepCostModel
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.models.zoo import get_model

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_step_costs.json"

MODELS = ("Llama2-7B", "Llama2-70B", "GPT-7B")
TENSOR_PARALLEL = (1, 4, 16)
PRECISIONS = (Precision.FP16, Precision.FP8)
STEP_FIELDS = ("device_time", "communication_time", "compute_bound_time", "memory_bound_time", "num_requests", "tokens")
RUN_FIELDS = (
    "device_times",
    "communication_time",
    "compute_bound_times",
    "memory_bound_times",
    "total_times",
    "num_requests",
)


def _inputs() -> dict:
    rng = random.Random(18)
    prompt_mix = [rng.randint(1, 3000) for _ in range(32)]
    kv_mix = [rng.randint(0, 3000) for _ in range(32)]
    return {
        "prompts": [[1], [255], [256], [257], [255, 256, 257], [2048], [4096], [2048, 4096], prompt_mix],
        "decode": [[0], [1], [255, 256, 257], [2047, 4095], kv_mix],
        "runs": [[[250, 100], 10], [[200, 511], 6], [[1, 4090], 12], [[0, 3], 4], [kv_mix[:16], 5]],
    }


def _system():
    return build_system("A100", num_devices=16, intra_node="NVLink3", inter_node="HDR-IB")


def _configs():
    for name in MODELS:
        for tensor_parallel in TENSOR_PARALLEL:
            for precision in PRECISIONS:
                for include_lm_head in (True, False):
                    key = f"{name}/tp{tensor_parallel}/{precision.name}/{'head' if include_lm_head else 'nohead'}"
                    yield key, get_model(name), dict(
                        tensor_parallel=tensor_parallel, precision=precision, include_lm_head=include_lm_head
                    )


def _step(cost) -> list:
    return [getattr(cost, field) for field in STEP_FIELDS]


def _run(run) -> list:
    return [
        value.tolist() if hasattr(value, "tolist") else value
        for value in (getattr(run, field) for field in RUN_FIELDS)
    ]


def _record(step_cost: StepCostModel, model, inputs: dict, kwargs: dict) -> dict:
    return {
        "prefill": [_step(step_cost.prefill_step(model, lens, **kwargs)) for lens in inputs["prompts"]],
        "decode": [_step(step_cost.decode_step(model, lens, **kwargs)) for lens in inputs["decode"]],
        "runs": [_run(step_cost.decode_run(model, lens, steps, **kwargs)) for lens, steps in inputs["runs"]],
    }


def record() -> dict:
    """Every pinned value, priced on one shared (warming) step-cost model."""
    inputs = _inputs()
    step_cost = StepCostModel(system=_system())
    return {
        "inputs": inputs,
        "configs": {key: _record(step_cost, model, inputs, kwargs) for key, model, kwargs in _configs()},
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def test_golden_covers_every_configuration(golden):
    assert list(golden["configs"]) == [key for key, _, _ in _configs()]
    assert golden["inputs"] == _inputs()


@pytest.mark.parametrize("key, model, kwargs", list(_configs()), ids=[key for key, _, _ in _configs()])
def test_step_costs_match_golden(golden, key, model, kwargs):
    # A fresh model per configuration: its tables grow from empty, in a
    # different order than the recording's shared model saw them.
    step_cost = StepCostModel(system=_system())
    assert _record(step_cost, model, golden["inputs"], kwargs) == golden["configs"][key]


if __name__ == "__main__":
    print(json.dumps(record(), separators=(",", ":")))
