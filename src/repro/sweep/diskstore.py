"""Persistent on-disk result store for the sweep runner.

The in-memory LRU of :class:`~repro.sweep.runner.SweepRunner` dies with the
process; incremental workflows (re-running a study after editing its plotting
code, CI re-runs, notebook restarts) re-price every scenario from scratch.
:class:`DiskResultStore` persists evaluation outcomes -- values *and* captured
library errors -- keyed by the scenario's deterministic
:meth:`~repro.sweep.scenario.Scenario.cache_key`, so a second run of the same
study prices nothing.

Layout and invalidation
-----------------------
Entries are pickles sharded under ``<root>/<fingerprint>/<key[:2]>/<key>.pkl``:

* ``root`` defaults to ``~/.cache/repro`` and is overridable per store
  (``DiskResultStore(root=...)``, the CLI's ``--cache-dir``) or globally via
  the ``REPRO_CACHE_DIR`` environment variable.
* ``fingerprint`` folds in the library version and the store's format
  version, so upgrading the code (which may change predictions) or the
  record format orphans old entries instead of serving stale results.
  The store never deletes on its own; housekeeping is explicit --
  :meth:`DiskResultStore.clear` empties the current fingerprint,
  :meth:`DiskResultStore.prune` drops orphaned fingerprint directories,
  and :meth:`DiskResultStore.stats` reports entry counts and bytes per
  fingerprint (all three surfaced by the ``repro cache`` CLI verb).

Robustness
----------
Writes go through a temp file plus :func:`os.replace`, so concurrent writers
(separate ``repro run``/``repro serve`` processes, parallel CI jobs) can race
on the same key and readers still see only complete records -- last writer
wins, and every writer writes the same bytes-equal value anyway
(deterministic evaluations).  Reads treat
*any* failure (truncated pickle, corrupted shard, unreadable file, foreign
record shape) as a miss: a damaged cache can cost re-pricing, never a crash
and never a wrong result.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

logger = logging.getLogger(__name__)

#: Version of the on-disk record layout; bump on incompatible changes.
FORMAT_VERSION = 1

#: Consecutive environmental write failures before the store stops trying.
WRITE_FAILURE_LIMIT = 3

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root() -> Path:
    """The default store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def code_fingerprint() -> str:
    """Digest of everything that invalidates stored results wholesale.

    Currently the library version plus the record format version: a release
    that changes any prediction must bump ``repro.__version__``, which moves
    the store to a fresh fingerprint directory.
    """
    from .. import __version__

    payload = f"repro={__version__};format={FORMAT_VERSION}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class DiskResultStore:
    """Sharded pickle store of scenario evaluation outcomes.

    Attributes:
        root: Store root directory (shared by all fingerprints).
        fingerprint: The code/format fingerprint this store reads and writes
            under (defaults to :func:`code_fingerprint`; overridable for
            tests).
    """

    def __init__(self, root: "Path | str | None" = None, fingerprint: Optional[str] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self._consecutive_write_failures = 0
        self._writes_disabled = False
        self._warned = False

    @property
    def writes_disabled(self) -> bool:
        """Whether persistent writes have been abandoned for this store's lifetime."""
        return self._writes_disabled

    def path_for(self, key: str) -> Path:
        """The shard path of one cache key."""
        return self.root / self.fingerprint / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Tuple[object, Optional[ReproError]]]:
        """Load one outcome, or ``None`` on miss *or any* read failure.

        Returns ``(value, error)``: exactly one of the pair is meaningful,
        mirroring the runner's cache entries (captured library errors are
        stored too, so infeasible corners are not re-evaluated either).
        """
        try:
            with open(self.path_for(key), "rb") as handle:
                record = pickle.load(handle)
            if not isinstance(record, tuple) or len(record) != 3 or record[0] != FORMAT_VERSION:
                return None
            _, value, error = record
            if error is not None and not isinstance(error, ReproError):
                return None
            return value, error
        except Exception:
            # Corrupted/truncated/unreadable entries are plain misses: the
            # scenario is re-priced and the entry rewritten.
            return None

    def put(self, key: str, value: object = None, error: Optional[ReproError] = None) -> bool:
        """Persist one outcome; returns whether the write landed.

        Failures (unpicklable value, read-only filesystem, full disk) are
        swallowed: persistence is an optimization, never a reason to fail a
        sweep.  Environmental failures (``OSError``: disk full, permission
        denied) additionally degrade the store -- one warning is logged on
        the first failure, and after :data:`WRITE_FAILURE_LIMIT` consecutive
        ones the store stops attempting writes for its lifetime, so a dead
        disk is not hammered once per scenario.  Per-entry failures (an
        unpicklable value) do not count toward the limit.  Reads keep
        working either way; the runner's in-memory LRU carries the sweep.
        """
        if self._writes_disabled:
            return False
        path = self.path_for(key)
        tmp_path: Optional[str] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, tmp_path = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(handle, "wb") as stream:
                pickle.dump((FORMAT_VERSION, value, error), stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
            tmp_path = None
            self._consecutive_write_failures = 0
            return True
        except OSError as exc:
            self._note_write_failure(exc)
            return False
        except Exception:
            return False
        finally:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def _note_write_failure(self, exc: OSError) -> None:
        """Track an environmental write failure; warn once, disable at the limit."""
        self._consecutive_write_failures += 1
        if not self._warned:
            self._warned = True
            logger.warning(
                "disk result store write to %s failed (%s); results stay cached "
                "in memory and the sweep continues",
                self.root / self.fingerprint,
                exc,
            )
        if self._consecutive_write_failures >= WRITE_FAILURE_LIMIT:
            self._writes_disabled = True

    def count(self) -> int:
        """Number of entries stored under the current fingerprint (tests/inspection)."""
        base = self.root / self.fingerprint
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.glob("*/*.pkl"))

    # -- housekeeping -----------------------------------------------------------------

    def fingerprints(self) -> List[str]:
        """Every fingerprint directory present under :attr:`root`, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(entry.name for entry in self.root.iterdir() if entry.is_dir())

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-fingerprint entry counts and on-disk bytes.

        Returns ``{fingerprint: {"entries": n, "bytes": b, "current": 0|1}}``
        for every fingerprint directory under the root; ``current`` marks
        the fingerprint this store reads and writes under.  Unreadable
        entries are skipped (consistent with :meth:`get` treating damage as
        a miss).
        """
        report: Dict[str, Dict[str, int]] = {}
        for fingerprint in self.fingerprints():
            entries = 0
            total_bytes = 0
            for path in (self.root / fingerprint).glob("*/*.pkl"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            report[fingerprint] = {
                "entries": entries,
                "bytes": total_bytes,
                "current": int(fingerprint == self.fingerprint),
            }
        return report

    def clear(self) -> int:
        """Delete every entry under the **current** fingerprint.

        Returns the number of entries removed.  Other fingerprints are left
        alone (see :meth:`prune`).
        """
        base = self.root / self.fingerprint
        if not base.is_dir():
            return 0
        removed = sum(1 for _ in base.glob("*/*.pkl"))
        shutil.rmtree(base, ignore_errors=True)
        return removed

    def prune(self, keep_current: bool = True) -> List[str]:
        """Delete orphaned fingerprint directories; returns those removed.

        With ``keep_current`` (the default) the store's own fingerprint
        survives -- the usual call after a version upgrade drops every stale
        fingerprint while the fresh cache keeps filling.  With
        ``keep_current=False`` the whole root is emptied.
        """
        removed: List[str] = []
        for fingerprint in self.fingerprints():
            if keep_current and fingerprint == self.fingerprint:
                continue
            shutil.rmtree(self.root / fingerprint, ignore_errors=True)
            removed.append(fingerprint)
        return removed
