"""Environment ledger and output digests of benchmark results.

Every result records the host it ran on (CPU count, Python and NumPy
versions, git SHA when the checkout is a git repository) next to its seed
and round count, and a SHA-256 over the canonical JSON of the workload's
outputs.  Canonical JSON sorts keys, writes floats with ``repr`` precision
(exact round trip), and flattens dataclass reports field by field (other
report objects through their ``to_dict`` codecs); so two runs agree on a
digest exactly when they produced bit-identical outputs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

#: Recorded digests: ``{workload: {seed: sha256}}``.
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


#: Field names per dataclass type (``dataclasses.fields`` is slow per call).
_FIELD_NAMES: Dict[type, List[str]] = {}


def canonical(value: object) -> object:
    """A JSON-ready, order-independent view of one output value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    names = _FIELD_NAMES.get(type(value))
    if names is None and dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = _FIELD_NAMES[type(value)] = [field.name for field in dataclasses.fields(value)]
    if names is not None:
        return {name: canonical(getattr(value, name)) for name in names}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return canonical(to_dict())
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return str(value)


def digest(items: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON lines of ``items``, in order."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(json.dumps(canonical(item), sort_keys=True, separators=(",", ":")).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def recorded_digest(workload: str, seed: int):
    """The recorded digest of ``workload`` at ``seed``, or ``None``."""
    try:
        recorded = json.loads(DIGESTS_PATH.read_text())
    except FileNotFoundError:
        return None
    return recorded.get(workload, {}).get(str(seed))


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"  # an exported checkout: no history to name
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment(root: Path) -> Dict[str, object]:
    """The host half of the ledger (the run half is added by the caller)."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
    }
