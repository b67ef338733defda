"""Frozen, hashable scenario specifications for the sweep subsystem.

A :class:`Scenario` bundles everything one evaluation of the performance
model needs -- the system, the model, the parallelization, and the workload
knobs -- into a single immutable value object with a canonical
:meth:`~Scenario.cache_key`.  Every paper table/figure, every DSE objective,
and every example script can therefore express its work as a list of
scenarios, and the :class:`~repro.sweep.runner.SweepRunner` can deduplicate,
cache, and parallelize the evaluations without knowing what is being swept.

The module also hosts :func:`evaluate_scenario`, the single dispatch point
from a scenario to the underlying engine call, plus a small per-process
engine cache so scenarios sharing a :class:`~repro.hardware.cluster.SystemSpec`
reuse one :class:`~repro.core.engine.PerformancePredictionEngine` (and with
it the memoized kernel/collective models).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import operator
import os
import time as _time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..caching import Memo
from ..comm.fabric import clear_collective_model_cache
from ..core.bottleneck import attention_layer_bound_breakdown
from ..core.engine import PerformancePredictionEngine
from ..errors import ConfigurationError
from ..hardware.accelerator import AcceleratorSpec
from ..hardware.catalog import device_system, get_system
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..memmodel.activations import RecomputeStrategy
from ..memmodel.footprint import inference_memory_breakdown, training_memory_breakdown
from ..models.transformer import TransformerConfig
from ..models.zoo import get_model
from ..parallelism.config import ParallelismConfig, parse_parallelism_label
from ..serving.fleet import FleetConfig
from ..serving.simulator import ServingConfig


class ScenarioKind(enum.Enum):
    """What one scenario evaluation produces."""

    TRAINING = "training"                        # -> TrainingReport
    INFERENCE = "inference"                      # -> InferenceReport
    SERVING = "serving"                          # -> ServingReport
    FLEET = "fleet"                              # -> FleetReport
    TRAINING_MEMORY = "training_memory"          # -> TrainingMemoryBreakdown
    INFERENCE_MEMORY = "inference_memory"        # -> InferenceMemoryBreakdown
    PREFILL_BOTTLENECKS = "prefill_bottlenecks"  # -> List[GemmBottleneckEntry]
    DECODE_BOTTLENECKS = "decode_bottlenecks"    # -> List[GemmBottleneckEntry]
    ATTENTION_BOUND = "attention_bound"          # -> Dict[str, float]
    GEMV_VALIDATION = "gemv_validation"          # -> GemvValidationResult


#: Scenario kinds that need a system (and hence an engine) to evaluate.
_SYSTEM_KINDS = frozenset(
    {
        ScenarioKind.TRAINING,
        ScenarioKind.INFERENCE,
        ScenarioKind.SERVING,
        ScenarioKind.FLEET,
        ScenarioKind.PREFILL_BOTTLENECKS,
        ScenarioKind.DECODE_BOTTLENECKS,
        ScenarioKind.ATTENTION_BOUND,
    }
)
#: Scenario kinds that need a model.
_MODEL_KINDS = _SYSTEM_KINDS | {ScenarioKind.TRAINING_MEMORY, ScenarioKind.INFERENCE_MEMORY}


def _resolve_model(model: "TransformerConfig | str") -> TransformerConfig:
    return get_model(model) if isinstance(model, str) else model


def _resolve_system(system: "SystemSpec | str") -> SystemSpec:
    """Resolve catalog names (``"A100"``, ``"H100x4"``, presets) to a system."""
    return get_system(system) if isinstance(system, str) else system


def _resolve_parallelism(parallelism: "ParallelismConfig | str", micro_batch_size: int = 1) -> ParallelismConfig:
    """Accept the paper's ``"DP-TP-PP-SP"`` label besides a built config."""
    if isinstance(parallelism, str):
        return parse_parallelism_label(parallelism, micro_batch_size=micro_batch_size)
    return parallelism


def _canonical_extras(extras: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    """Canonicalize evaluator-specific parameters into a sorted, hashable tuple."""
    if not extras:
        return ()
    items = tuple(sorted(extras.items()))
    for key, value in items:
        hash(value)  # raises for unhashable extras up front
        _ = key
    return items


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One point of a sweep: system + model + parallelism + workload knobs.

    Prefer the classmethod constructors (:meth:`training`, :meth:`inference`,
    ...) over the raw constructor: they resolve catalog names, apply the
    kind-specific defaults, and read like the engine API.

    Attributes:
        kind: What evaluating the scenario produces.
        system: The hardware system (``None`` for engine-free kinds such as
            the memory breakdowns and the GEMV validation).
        model: The transformer architecture under study.
        parallelism: DP/TP/PP/SP configuration (training kinds only).
        precision: Numeric precision of the workload.
        recompute: Activation-recomputation strategy (training kinds only).
        global_batch_size: Training global batch size.
        seq_len: Sequence length override (training) or the layer sequence
            length (attention-bound); ``None`` uses the model default.
        batch_size: Inference batch size, or the micro-batch of the
            attention-bound breakdown.
        prompt_tokens: Prompt length of an inference request.
        generated_tokens: Generated tokens of an inference request.
        context_len: KV context length for inference memory (defaults to
            ``prompt_tokens + generated_tokens``).
        kv_len: KV length of one decode step (decode bottlenecks).
        tensor_parallel: TP degree of inference-style kinds.
        decode_mode: Decode pricing mode of inference scenarios
            (``"average"`` or ``"exact"``); part of the cache key.
        serving_config: Serving-simulation configuration (trace + scheduler
            + SLO); serving scenarios only.  Fully seeded, so it keys the
            cache deterministically.
        fleet_config: Fleet-simulation configuration (trace + replicas +
            router); fleet scenarios only.  Fully seeded like the serving
            config, so it keys the cache deterministically.
        tag: Free-form label carried into results; excluded from the cache
            key so differently-tagged duplicates still share one evaluation.
        extras: Canonicalized evaluator-specific parameters (e.g. the GEMV
            validation's ``num_clusters``/``seed``).
    """

    kind: ScenarioKind
    system: Optional[SystemSpec] = None
    model: Optional[TransformerConfig] = None
    parallelism: Optional[ParallelismConfig] = None
    precision: Precision = Precision.FP16
    recompute: RecomputeStrategy = RecomputeStrategy.SELECTIVE
    global_batch_size: int = 1
    seq_len: Optional[int] = None
    batch_size: int = 1
    prompt_tokens: int = 200
    generated_tokens: int = 200
    context_len: Optional[int] = None
    kv_len: Optional[int] = None
    tensor_parallel: int = 1
    decode_mode: str = "average"
    serving_config: Optional[ServingConfig] = None
    fleet_config: Optional[FleetConfig] = None
    tag: str = ""
    extras: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind in _SYSTEM_KINDS and self.system is None:
            raise ConfigurationError(f"{self.kind.value} scenarios need a system")
        if self.kind in _MODEL_KINDS and self.model is None:
            raise ConfigurationError(f"{self.kind.value} scenarios need a model")
        if self.kind in (ScenarioKind.TRAINING, ScenarioKind.TRAINING_MEMORY) and self.parallelism is None:
            raise ConfigurationError(f"{self.kind.value} scenarios need a parallelism configuration")
        if self.kind is ScenarioKind.ATTENTION_BOUND and self.seq_len is None:
            raise ConfigurationError("attention_bound scenarios need a seq_len")
        if self.kind is ScenarioKind.SERVING and self.serving_config is None:
            raise ConfigurationError("serving scenarios need a serving configuration")
        if self.kind is ScenarioKind.FLEET and self.fleet_config is None:
            raise ConfigurationError("fleet scenarios need a fleet configuration")

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def training(
        cls,
        system: "SystemSpec | str",
        model: "TransformerConfig | str",
        parallelism: "ParallelismConfig | str",
        global_batch_size: int,
        seq_len: Optional[int] = None,
        precision: "Precision | str" = Precision.FP16,
        recompute: "RecomputeStrategy | str" = RecomputeStrategy.SELECTIVE,
        micro_batch_size: int = 1,
        tag: str = "",
    ) -> "Scenario":
        """A training-step prediction (evaluates to a :class:`TrainingReport`).

        ``system`` accepts a built spec or a catalog name
        (:func:`~repro.hardware.catalog.get_system`); ``parallelism`` accepts
        a config or the paper's ``"DP-TP-PP-SP"`` label
        (``micro_batch_size`` applies to the label form only).
        """
        return cls(
            kind=ScenarioKind.TRAINING,
            system=_resolve_system(system),
            model=_resolve_model(model),
            parallelism=_resolve_parallelism(parallelism, micro_batch_size=micro_batch_size),
            global_batch_size=global_batch_size,
            seq_len=seq_len,
            precision=Precision.parse(precision),
            recompute=RecomputeStrategy.parse(recompute),
            tag=tag,
        )

    @classmethod
    def inference(
        cls,
        system: "SystemSpec | str",
        model: "TransformerConfig | str",
        batch_size: int = 1,
        prompt_tokens: int = 200,
        generated_tokens: int = 200,
        tensor_parallel: int = 1,
        precision: "Precision | str" = Precision.FP16,
        decode_mode: str = "average",
        tag: str = "",
    ) -> "Scenario":
        """An end-to-end inference prediction (evaluates to an :class:`InferenceReport`).

        ``decode_mode="exact"`` prices every generated token at its true KV
        length through the batched roofline backend; ``"average"`` (default)
        uses the mid-point closed form.
        """
        return cls(
            kind=ScenarioKind.INFERENCE,
            system=_resolve_system(system),
            model=_resolve_model(model),
            batch_size=batch_size,
            prompt_tokens=prompt_tokens,
            generated_tokens=generated_tokens,
            tensor_parallel=tensor_parallel,
            precision=Precision.parse(precision),
            decode_mode=decode_mode,
            tag=tag,
        )

    @classmethod
    def serving(
        cls,
        system: "SystemSpec | str",
        model: "TransformerConfig | str",
        serving: ServingConfig,
        tensor_parallel: int = 1,
        precision: "Precision | str" = Precision.FP16,
        tag: str = "",
    ) -> "Scenario":
        """A request-level serving simulation (evaluates to a :class:`ServingReport`).

        ``serving`` bundles the seeded arrival trace, the continuous-batching
        scheduler knobs, and the latency SLO; because the trace is a pure
        function of its seed, the scenario's :meth:`cache_key` is
        deterministic and repeated simulations are served from the cache.
        """
        return cls(
            kind=ScenarioKind.SERVING,
            system=_resolve_system(system),
            model=_resolve_model(model),
            serving_config=serving,
            tensor_parallel=tensor_parallel,
            precision=Precision.parse(precision),
            tag=tag,
        )

    @classmethod
    def fleet(
        cls,
        system: "SystemSpec | str",
        model: "TransformerConfig | str",
        fleet: FleetConfig,
        tensor_parallel: int = 1,
        precision: "Precision | str" = Precision.FP16,
        tag: str = "",
    ) -> "Scenario":
        """A multi-replica fleet simulation (evaluates to a :class:`FleetReport`).

        ``fleet`` bundles the (single- or multi-tenant) seeded trace, the
        replica count, the routing policy, and the per-replica scheduler/SLO
        knobs; like serving scenarios, the trace is a pure function of its
        seeds, so the :meth:`cache_key` is deterministic.  ``tensor_parallel``
        is the TP degree of *each* replica.
        """
        return cls(
            kind=ScenarioKind.FLEET,
            system=_resolve_system(system),
            model=_resolve_model(model),
            fleet_config=fleet,
            tensor_parallel=tensor_parallel,
            precision=Precision.parse(precision),
            tag=tag,
        )

    @classmethod
    def training_memory(
        cls,
        model: "TransformerConfig | str",
        parallelism: "ParallelismConfig | str",
        global_batch_size: int,
        seq_len: Optional[int] = None,
        precision: "Precision | str" = Precision.FP16,
        recompute: "RecomputeStrategy | str" = RecomputeStrategy.SELECTIVE,
        micro_batch_size: int = 1,
        tag: str = "",
    ) -> "Scenario":
        """A per-device training memory breakdown (no system required)."""
        return cls(
            kind=ScenarioKind.TRAINING_MEMORY,
            model=_resolve_model(model),
            parallelism=_resolve_parallelism(parallelism, micro_batch_size=micro_batch_size),
            global_batch_size=global_batch_size,
            seq_len=seq_len,
            precision=Precision.parse(precision),
            recompute=RecomputeStrategy.parse(recompute),
            tag=tag,
        )

    @classmethod
    def inference_memory(
        cls,
        model: "TransformerConfig | str",
        batch_size: int = 1,
        context_len: int = 400,
        tensor_parallel: int = 1,
        precision: "Precision | str" = Precision.FP16,
        tag: str = "",
    ) -> "Scenario":
        """A per-device inference memory breakdown (no system required)."""
        return cls(
            kind=ScenarioKind.INFERENCE_MEMORY,
            model=_resolve_model(model),
            batch_size=batch_size,
            context_len=context_len,
            tensor_parallel=tensor_parallel,
            precision=Precision.parse(precision),
            tag=tag,
        )

    @classmethod
    def prefill_bottlenecks(
        cls,
        accelerator: "AcceleratorSpec | SystemSpec | str",
        model: "TransformerConfig | str",
        batch_size: int = 1,
        prompt_tokens: int = 200,
        tensor_parallel: int = 1,
        precision: "Precision | str" = Precision.FP16,
        tag: str = "",
    ) -> "Scenario":
        """The per-GEMM bound-type table of the prefill phase (paper Table 4)."""
        return cls(
            kind=ScenarioKind.PREFILL_BOTTLENECKS,
            system=_device_system(accelerator),
            model=_resolve_model(model),
            batch_size=batch_size,
            prompt_tokens=prompt_tokens,
            tensor_parallel=tensor_parallel,
            precision=Precision.parse(precision),
            tag=tag,
        )

    @classmethod
    def decode_bottlenecks(
        cls,
        accelerator: "AcceleratorSpec | SystemSpec | str",
        model: "TransformerConfig | str",
        batch_size: int = 1,
        kv_len: int = 200,
        tensor_parallel: int = 1,
        precision: "Precision | str" = Precision.FP16,
        tag: str = "",
    ) -> "Scenario":
        """The per-GEMM bound-type table of one decode step."""
        return cls(
            kind=ScenarioKind.DECODE_BOTTLENECKS,
            system=_device_system(accelerator),
            model=_resolve_model(model),
            batch_size=batch_size,
            kv_len=kv_len,
            tensor_parallel=tensor_parallel,
            precision=Precision.parse(precision),
            tag=tag,
        )

    @classmethod
    def attention_bound(
        cls,
        accelerator: "AcceleratorSpec | SystemSpec | str",
        model: "TransformerConfig | str",
        micro_batch: int,
        seq_len: int,
        tensor_parallel: int = 1,
        precision: "Precision | str" = Precision.FP16,
        tag: str = "",
    ) -> "Scenario":
        """Compute- vs memory-bound GEMM time of one training layer (Fig. 7).

        Keyed on the accelerator only (wrapped into a canonical single-device
        system), so sweeps that vary the network share one evaluation.
        """
        return cls(
            kind=ScenarioKind.ATTENTION_BOUND,
            system=_device_system(accelerator),
            model=_resolve_model(model),
            batch_size=micro_batch,
            seq_len=seq_len,
            tensor_parallel=tensor_parallel,
            precision=Precision.parse(precision),
            tag=tag,
        )

    @classmethod
    def gemv_validation(cls, num_clusters: int = 3, seed: int = 2024, tag: str = "") -> "Scenario":
        """The Fig.-3 GEMV calibration/validation flow on the synthetic set."""
        return cls(
            kind=ScenarioKind.GEMV_VALIDATION,
            extras=_canonical_extras({"num_clusters": num_clusters, "seed": seed}),
            tag=tag,
        )

    # -- identity --------------------------------------------------------------------

    def cache_key(self) -> str:
        """Canonical digest of everything that influences the evaluation.

        The ``tag`` field is deliberately excluded: it labels results, it does
        not change them.  Two scenarios with equal keys are guaranteed to
        evaluate to the same value.  The digest is a pure function of the
        field *values* (no ids, no hash seeds), so equal scenarios produce
        the same key in different processes and across runs -- the property
        the persistent result store (:mod:`repro.sweep.diskstore`) keys on.
        Memoized per instance: the runner asks for the key on every run and
        the canonicalization walk is not free.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is not None:
            return cached
        payload = tuple(
            (field.name, _canonical(getattr(self, field.name)))
            for field in dataclasses.fields(self)
            if field.name != "tag"
        )
        key = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
        object.__setattr__(self, "_cache_key", key)
        return key

    def with_tag(self, tag: str) -> "Scenario":
        """Return a copy carrying a different result label."""
        return dataclasses.replace(self, tag=tag)

    def describe(self) -> Dict[str, object]:
        """Flat summary for result rows and logs."""
        return {
            "kind": self.kind.value,
            "system": self.system.name if self.system is not None else None,
            "model": self.model.name if self.model is not None else None,
            "parallelism": self.parallelism.label if self.parallelism is not None else None,
            "precision": self.precision.value,
            "tag": self.tag,
        }


def _device_system(accelerator: "AcceleratorSpec | SystemSpec | str") -> SystemSpec:
    """Wrap a bare accelerator into a canonical single-node system.

    Bottleneck and attention-bound scenarios depend only on the device, so the
    canonical wrapper (:func:`repro.hardware.catalog.device_system`) keeps
    their cache keys independent of whatever cluster the caller happened to
    hold.
    """
    if isinstance(accelerator, SystemSpec):
        return device_system(accelerator.accelerator)
    return device_system(accelerator)


#: Canonical-form digests of the heavyweight spec values (systems, models,
#: parallelism/serving configs).  A sweep re-canonicalizes the same handful of
#: spec objects for every scenario; digesting each once collapses the deep
#: recursive walk into one memo lookup.  The digest is over the canonical
#: *structure* (not ``hash()``/``id()``), so it stays deterministic across
#: processes -- required for the on-disk result store.
_CANONICAL_DIGEST_TYPES = (SystemSpec, TransformerConfig, ParallelismConfig, ServingConfig, FleetConfig)
_CANONICAL_MEMO = Memo(max_size=4096)


def _canonical(value: object) -> object:
    """Reduce a value to a stable, hashable canonical form for cache keys."""
    if isinstance(value, _CANONICAL_DIGEST_TYPES):
        # Two cache tiers: the digest is pinned on the instance (repeat keys
        # of the same object cost one attribute read -- no hashing of the
        # deep spec), and the value-keyed memo behind it collapses
        # *distinct-but-equal* objects, which catalog resolution produces one
        # of per scenario.  The pinned digest is a small tuple of strings, so
        # scenarios shipped to process-pool workers stay cheap to pickle.
        digest = value.__dict__.get("_repro_canonical")
        if digest is None:
            digest = _CANONICAL_MEMO.get(value)
            if digest is None:
                structure = _canonical_structure(value)
                digest = (type(value).__name__, hashlib.sha256(repr(structure).encode("utf-8")).hexdigest())
                _CANONICAL_MEMO.put(value, digest)
            object.__setattr__(value, "_repro_canonical", digest)
        return digest
    return _canonical_structure(value)


#: The cache-key fields (every field but ``tag``), in declaration order --
#: the exact payload order of :meth:`Scenario.cache_key`.
_KEY_FIELDS: Tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(Scenario) if field.name != "tag"
)

#: One attribute walk for all key fields (C-level, in declaration order).
_KEY_GETTER = operator.attrgetter(*_KEY_FIELDS)

#: Scalar types whose fragment may be memoized by ``(field, type, value)``:
#: for these, equal value plus equal type implies an equal canonical repr.
#: (Containers are excluded: ``(1,) == (1.0,)`` yet their canonical reprs
#: differ, so equality alone cannot key them safely.)
_SCALAR_FRAGMENT_TYPES = (int, float, str, bool, type(None), enum.Enum)

#: Fragment-cache dispatch codes, resolved once per value *class*.
_BY_ID, _BY_VALUE, _UNCACHED = 0, 1, 2
_FRAGMENT_KIND: Dict[type, int] = {}

#: Memoized repr fragments of the key payload, one entry per distinct field
#: value: heavyweight spec values key by ``(field index, id(value))`` (the
#: catalog/zoo intern them, so a grid presents the same few *objects* over
#: and over -- the pin map keeps each one alive so its id cannot be recycled
#: while cached), scalars by ``(field index, type, value)``.  A grid's
#: scenarios share almost every field value, so each fragment is rendered
#: once per process instead of once per scenario -- the win behind
#: :func:`cache_keys`.
_FRAGMENTS: Dict[object, str] = {}
_FRAGMENT_PINS: Dict[int, object] = {}
_FRAGMENT_CACHE_SIZE = 65536


def _fragment_kind_of(cls: type) -> int:
    """Resolve (and cache) how fragments of one value class may be keyed."""
    if issubclass(cls, _CANONICAL_DIGEST_TYPES):
        kind = _BY_ID
    elif issubclass(cls, _SCALAR_FRAGMENT_TYPES):
        kind = _BY_VALUE
    else:
        kind = _UNCACHED
    _FRAGMENT_KIND[cls] = kind
    return kind


def cache_keys(scenarios: Sequence[Scenario]) -> List[str]:
    """Cache keys of many scenarios, canonicalizing each distinct value once.

    Equal to ``[scenario.cache_key() for scenario in scenarios]`` (pinned by
    ``tests/sweep/test_cache_keys.py``), but grid-shaped: the per-field repr
    fragments are memoized across scenarios -- by object identity for the
    interned spec values, by ``(type, value)`` for scalars -- so the
    per-scenario work drops to dict probes, composing known strings, and one
    sha256.  Keys are pinned on the instances exactly like
    :meth:`Scenario.cache_key` does, and instances with pinned keys are
    served from the pin.
    """
    keys: List[str] = []
    names = _KEY_FIELDS
    getter = _KEY_GETTER
    kinds = _FRAGMENT_KIND
    fragment_memo = _FRAGMENTS
    sha256 = hashlib.sha256
    for scenario in scenarios:
        cached = scenario.__dict__.get("_cache_key")
        if cached is not None:
            keys.append(cached)
            continue
        fragments: List[str] = []
        for index, value in enumerate(getter(scenario)):
            cls = value.__class__
            kind = kinds.get(cls)
            if kind is None:
                kind = _fragment_kind_of(cls)
            if kind == _BY_ID:
                ref: object = (index, id(value))
            elif kind == _BY_VALUE:
                ref = (index, cls, value)
            else:
                fragments.append(repr((names[index], _canonical(value))))
                continue
            fragment = fragment_memo.get(ref)
            if fragment is None:
                if len(fragment_memo) >= _FRAGMENT_CACHE_SIZE:
                    fragment_memo.clear()
                    _FRAGMENT_PINS.clear()
                fragment = repr((names[index], _canonical(value)))
                fragment_memo[ref] = fragment
                if kind == _BY_ID:
                    _FRAGMENT_PINS[id(value)] = value
            fragments.append(fragment)
        # repr of the payload tuple, composed from the per-item fragments
        # (exact for tuples of length >= 2, which _KEY_FIELDS guarantees).
        key = sha256(("(" + ", ".join(fragments) + ")").encode("utf-8")).hexdigest()
        object.__setattr__(scenario, "_cache_key", key)
        keys.append(key)
    return keys


def _canonical_structure(value: object) -> object:
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple((field.name, _canonical(getattr(value, field.name))) for field in dataclasses.fields(value)),
        )
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if hasattr(value, "levels"):  # MemoryHierarchy
        return (type(value).__name__, tuple(_canonical(level) for level in value.levels))
    return value


# ---------------------------------------------------------------------------
# Evaluation: scenario -> result, with a per-process engine cache.
# ---------------------------------------------------------------------------

#: Engines kept per process, keyed by the (value-hashable) system spec.
_ENGINE_CACHE_SIZE = 64
_ENGINE_CACHE: Dict[SystemSpec, PerformancePredictionEngine] = {}
#: Identity fast path over ``_ENGINE_CACHE``: hashing a deep ``SystemSpec``
#: costs microseconds, an ``id()`` lookup does not.  The entry pins the spec
#: object so its id cannot be recycled while cached.
_ENGINE_BY_ID: Dict[int, "Tuple[SystemSpec, PerformancePredictionEngine]"] = {}


def engine_for(system: SystemSpec) -> PerformancePredictionEngine:
    """Return a (cached) prediction engine for ``system``.

    Reusing the engine also reuses its memoized kernel and collective models
    and its shared :class:`~repro.core.stepcost.StepCostModel` -- including
    the length-indexed step tables the serving loop prices prefill steps
    and decode runs from -- which is where most of a sweep's repeated work
    is saved.  Serving scenarios in particular run warm from the second
    frontier point on (verified by ``tests/sweep/test_serving_cache.py``
    through the step-cost model's ``cache_hits`` counter).  Equal (not just
    identical) specs share one engine.
    """
    cached = _ENGINE_BY_ID.get(id(system))
    if cached is not None:
        return cached[1]
    engine = _ENGINE_CACHE.get(system)
    if engine is None:
        if len(_ENGINE_CACHE) >= _ENGINE_CACHE_SIZE:
            _ENGINE_CACHE.pop(next(iter(_ENGINE_CACHE)))
        engine = PerformancePredictionEngine(system)
        _ENGINE_CACHE[system] = engine
    if len(_ENGINE_BY_ID) >= _ENGINE_CACHE_SIZE * 8:
        _ENGINE_BY_ID.clear()
    _ENGINE_BY_ID[id(system)] = (system, engine)
    return engine


def clear_engine_cache() -> None:
    """Drop every cached engine (and the canonical-form digest memos).

    Dropping the engines also drops their memoized kernel/collective models
    (including the interned per-(system, algorithm) collective models) and
    step-cost caches, so the next evaluation of any scenario pays the full
    cold-path cost again.  Used by the cold-sweep benchmarks to measure
    genuinely cold pricing; sweeps never need to call this.
    """
    _ENGINE_CACHE.clear()
    _ENGINE_BY_ID.clear()
    _CANONICAL_MEMO.clear()
    _FRAGMENTS.clear()
    _FRAGMENT_PINS.clear()
    clear_collective_model_cache()


def apply_test_fault_hooks(scenarios: Sequence[Scenario]) -> None:
    """Test-only fault injection, armed exclusively through environment variables.

    The crash-recovery and soft-timeout tests need a worker process to
    misbehave deterministically mid-sweep; real fault surfaces (a dying
    process, a wedged evaluation) cannot be triggered from scenario data.
    Inert unless one of these is set:

    * ``REPRO_TEST_CRASH_TAG``: a worker evaluating a scenario with this tag
      hard-exits (``os._exit``, no cleanup -- exactly what breaks a process
      pool).  With ``REPRO_TEST_CRASH_ONCE`` naming a marker file, only the
      first process to create it crashes; retries then run normally.
    * ``REPRO_TEST_SLOW_TAG``: a scenario with this tag sleeps
      ``REPRO_TEST_SLOW_SECONDS`` (default 1.0) before evaluating, to trip
      the runner's stall detector.
    """
    crash_tag = os.environ.get("REPRO_TEST_CRASH_TAG")
    slow_tag = os.environ.get("REPRO_TEST_SLOW_TAG")
    if not crash_tag and not slow_tag:
        return
    for scenario in scenarios:
        if crash_tag and scenario.tag == crash_tag:
            marker = os.environ.get("REPRO_TEST_CRASH_ONCE")
            if marker:
                try:
                    with open(marker, "x"):
                        pass
                except OSError:  # marker exists (or unwritable): already crashed once
                    continue
            os._exit(17)
        if slow_tag and scenario.tag == slow_tag:
            _time.sleep(float(os.environ.get("REPRO_TEST_SLOW_SECONDS", "1.0")))


def evaluate_scenario(scenario: Scenario) -> object:
    """Evaluate one scenario to its result object.

    This is the single dispatch point the sweep runner (and its process-pool
    workers) call; it must stay importable at module top level so scenarios
    can be shipped to worker processes.
    """
    apply_test_fault_hooks((scenario,))
    kind = scenario.kind
    if kind is ScenarioKind.GEMV_VALIDATION:
        from ..calibration.gemv import run_gemv_validation

        return run_gemv_validation(**dict(scenario.extras))
    if kind is ScenarioKind.TRAINING_MEMORY:
        return training_memory_breakdown(
            scenario.model,
            scenario.parallelism,
            global_batch_size=scenario.global_batch_size,
            seq_len=scenario.seq_len,
            precision=scenario.precision,
            strategy=scenario.recompute,
        )
    if kind is ScenarioKind.INFERENCE_MEMORY:
        return inference_memory_breakdown(
            scenario.model,
            batch_size=scenario.batch_size,
            context_len=scenario.context_len if scenario.context_len is not None else 400,
            precision=scenario.precision,
            tensor_parallel=scenario.tensor_parallel,
        )
    if kind is ScenarioKind.ATTENTION_BOUND:
        # Route through the per-system engine's kernel model: the breakdown's
        # numbers do not change (same accelerator, memoization only), but the
        # shared memo lets a sweep -- and the cross-scenario batch planner --
        # reuse GEMM evaluations across scenarios.
        return attention_layer_bound_breakdown(
            scenario.model,
            accelerator=scenario.system.accelerator,
            micro_batch=scenario.batch_size,
            seq_len=scenario.seq_len,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
            kernel_model=engine_for(scenario.system).kernel_model,
        )
    engine = engine_for(scenario.system)
    if kind is ScenarioKind.TRAINING:
        return engine.predict_training(
            scenario.model,
            scenario.parallelism,
            global_batch_size=scenario.global_batch_size,
            seq_len=scenario.seq_len,
            precision=scenario.precision,
            recompute=scenario.recompute,
        )
    if kind is ScenarioKind.INFERENCE:
        return engine.predict_inference(
            scenario.model,
            batch_size=scenario.batch_size,
            prompt_tokens=scenario.prompt_tokens,
            generated_tokens=scenario.generated_tokens,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
            decode_mode=scenario.decode_mode,
        )
    if kind is ScenarioKind.SERVING:
        return engine.predict_serving(
            scenario.model,
            scenario.serving_config.trace,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
            scheduler=scenario.serving_config.scheduler,
            slo=scenario.serving_config.slo,
            include_lm_head=scenario.serving_config.include_lm_head,
        )
    if kind is ScenarioKind.FLEET:
        return engine.predict_fleet(
            scenario.model,
            scenario.fleet_config,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
        )
    if kind is ScenarioKind.PREFILL_BOTTLENECKS:
        return engine.prefill_bottlenecks(
            scenario.model,
            batch_size=scenario.batch_size,
            prompt_tokens=scenario.prompt_tokens,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
        )
    if kind is ScenarioKind.DECODE_BOTTLENECKS:
        return engine.decode_bottlenecks(
            scenario.model,
            batch_size=scenario.batch_size,
            kv_len=scenario.kv_len if scenario.kv_len is not None else 200,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
        )
    raise ConfigurationError(f"unknown scenario kind: {kind!r}")
