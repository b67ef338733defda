"""Golden regression test: every layer operator list is pinned field for field.

``golden_layer_ops.json`` was recorded from the per-layer operator builder and
the step-cost model's private operator memos *before* :class:`LayerTemplate`
replaced them.  With one shape implementation left, the batched and reference
bottleneck paths can no longer be compared against each other, so this
recorded pin is what catches a drift in any shape, FLOP or byte count.

The file stores each distinct operator once, as ``dataclasses.asdict`` plus its
type name (enums by name), and every record lists indices into that table:

* ``layers``: ``forward_compute_ops``, ``forward_gemms``,
  ``backward_compute_ops`` and the forward/backward collectives at both
  scopes, for three models (GELU/MHA; SwiGLU with 2 KV heads, so TP 8 clamps
  them to one; an FFN width and vocabulary TP does not divide) x TP 1/2/8 x
  SP x dropout x KV cache, at a decode shape ``(2, 1, 37)`` and a
  ``kv_len=0`` shape ``(3, 8, 0)``;
* ``step_cost``: the step-cost model's token ops, per-request attention ops
  (including ``kv_len=0``) and logits GEMM, in the order it sums them.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pathlib

import pytest

from repro.core.stepcost import StepCostModel
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.models.transformer import MLPActivation, TransformerConfig
from repro.workload.transformer_layer import LayerTemplate

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_layer_ops.json"

with GOLDEN_PATH.open() as fh:
    GOLDEN = json.load(fh)

MODELS = {
    model.name: model
    for model in (
        TransformerConfig(
            name="tiny-gpt",
            num_layers=4,
            hidden_size=512,
            num_heads=8,
            vocab_size=32000,
            max_seq_len=256,
        ),
        TransformerConfig(
            name="tiny-llama",
            num_layers=4,
            hidden_size=512,
            num_heads=8,
            num_kv_heads=2,
            ffn_hidden_size=1408,
            vocab_size=32000,
            max_seq_len=256,
            mlp_activation=MLPActivation.SWIGLU,
            tie_embeddings=False,
        ),
        TransformerConfig(
            name="tiny-odd-ffn",
            num_layers=2,
            hidden_size=512,
            num_heads=8,
            ffn_hidden_size=1001,
            vocab_size=32003,
            max_seq_len=256,
        ),
    )
}
SCOPES = ("intra_node", "inter_node")


def _record(op) -> dict:
    fields = dataclasses.asdict(op)
    return {"type": type(op).__name__, **{k: v.name if isinstance(v, enum.Enum) else v for k, v in fields.items()}}


def _expected(indices):
    return [GOLDEN["ops"][index] for index in indices]


def _actual(ops):
    return [_record(op) for op in ops]


def _layer_id(entry) -> str:
    flags = [name for name in ("sequence_parallel", "with_dropout", "use_kv_cache") if entry[name]]
    shape = f"{entry['micro_batch']}x{entry['seq_len']}x{entry['kv_len']}"
    return "-".join([entry["model"], f"tp{entry['tensor_parallel']}", *flags, shape])


@pytest.mark.parametrize("entry", GOLDEN["layers"], ids=_layer_id)
def test_layer_template_matches_golden(entry):
    template = LayerTemplate(
        MODELS[entry["model"]],
        tensor_parallel=entry["tensor_parallel"],
        sequence_parallel=entry["sequence_parallel"],
        precision=Precision.FP16,
        with_dropout=entry["with_dropout"],
        use_kv_cache=entry["use_kv_cache"],
    )
    shape = (entry["micro_batch"], entry["seq_len"], entry["kv_len"])
    tokens = entry["micro_batch"] * entry["seq_len"]
    assert _actual(template.forward_compute_ops(*shape)) == _expected(entry["forward_compute_ops"])
    assert _actual(template.forward_gemms(*shape)) == _expected(entry["forward_gemms"])
    assert _actual(template.backward_compute_ops(*shape)) == _expected(entry["backward_compute_ops"])
    for scope in SCOPES:
        forward = template.forward_communication(tokens, scope)
        backward = template.backward_communication(tokens, scope)
        assert _actual(forward) == _expected(entry["forward_communication"][scope])
        assert _actual(backward) == _expected(entry["backward_communication"][scope])


@pytest.mark.parametrize("entry", GOLDEN["step_cost"], ids=lambda entry: f"{entry['model']}-tp{entry['tensor_parallel']}")
def test_step_cost_operators_match_golden(entry):
    model = MODELS[entry["model"]]
    tensor_parallel = entry["tensor_parallel"]
    step_cost = StepCostModel(system=build_system("A100", num_devices=8))
    for tokens, indices in entry["token_ops"].items():
        ops = step_cost._token_ops(model, int(tokens), tensor_parallel, Precision.FP16)
        assert _actual(ops) == _expected(indices)
    for lengths, indices in entry["attention_ops"].items():
        seq_len, kv_len = map(int, lengths.split(","))
        ops = step_cost._attention_ops(model, seq_len, kv_len, tensor_parallel, Precision.FP16)
        assert _actual(ops) == _expected(indices)
    template = step_cost.template(model, tensor_parallel, Precision.FP16)
    for tokens, index in entry["lm_head"].items():
        assert _record(template.lm_head(int(tokens))) == GOLDEN["ops"][index]
