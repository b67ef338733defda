"""The study registry: every paper table/figure (and user study) by name.

Symmetric to the model zoo and the hardware catalog: a **study builder** is a
callable returning a fresh :class:`~repro.studies.study.Study`; registering
it makes the study discoverable by name -- from Python
(:func:`get_study`), from the CLI (``python -m repro list`` / ``run``), and
from JSON specs.  Builders take keyword arguments so callers can
parameterize them while the registry's defaults reproduce the paper::

    @register_study(artifact="Table 1", description="training-time validation")
    def table1_training_validation(rows=None):
        return Study(...)

    get_study("table1_training_validation").run()
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from .study import Study

StudyBuilder = Callable[..., Study]


@dataclasses.dataclass(frozen=True)
class StudyEntry:
    """One registered study: its builder plus the listing metadata."""

    name: str
    builder: StudyBuilder
    artifact: str = ""
    description: str = ""


_REGISTRY: Dict[str, StudyEntry] = {}


def register_study(
    builder: Optional[StudyBuilder] = None,
    *,
    name: Optional[str] = None,
    artifact: str = "",
    description: str = "",
) -> Callable:
    """Register a study builder (usable bare or with keyword arguments).

    Args:
        builder: The builder when used as ``@register_study`` directly.
        name: Registry name; defaults to the builder's ``__name__``.
        artifact: Paper artifact the study reproduces (``"Fig. 5"``).
        description: One-line summary shown by ``repro list``.
    """

    def decorate(fn: StudyBuilder) -> StudyBuilder:
        key = name or fn.__name__
        _REGISTRY[key] = StudyEntry(name=key, builder=fn, artifact=artifact, description=description)
        return fn

    return decorate(builder) if builder is not None else decorate


def unregister_study(name: str) -> None:
    """Remove a registered study (no-op if absent); mainly for tests."""
    _REGISTRY.pop(name, None)


def get_study(name: str, **kwargs: object) -> Study:
    """Build the registered study ``name`` (keyword arguments reach the builder).

    A scalar passed for a parameter whose default is a list/tuple is wrapped
    into a singleton list, so ``get_study("table4_gemm_bottlenecks",
    gpus="A100")`` -- and the CLI's ``-p gpus=A100`` -- sweep one GPU instead
    of exploding the string into characters.
    """
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown study {name!r}; registered: {[e.name for e in list_studies()]}"
        ) from None
    parameters = inspect.signature(entry.builder).parameters
    for key, value in kwargs.items():
        parameter = parameters.get(key)
        if (
            parameter is not None
            and isinstance(parameter.default, (list, tuple))
            and isinstance(value, (str, int, float, bool))
        ):
            kwargs[key] = [value]
    return entry.builder(**kwargs)


def list_studies() -> List[StudyEntry]:
    """Every registered study, sorted by name."""
    return sorted(_REGISTRY.values(), key=lambda entry: entry.name)
