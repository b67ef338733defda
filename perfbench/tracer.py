"""Span and counter recorder for the traced benchmark run.

The program under test carries no tracing of its own yet, so the traced run
wraps the public entry points of each layer *from the benchmark's side*:
:func:`layers.install` replaces a function or method at the attribute the caller
looks it up through (a module global such as ``repro.sweep.runner.cache_keys``
or a class attribute such as ``StepCostModel.prefill_step``) with a timing
wrapper, and :meth:`Patches.restore` puts the originals back.

Every thread keeps its own span stack and totals (no lock on the hot path),
so the service workload's worker and HTTP threads record side by side.  A
span's *self* time is its duration minus the time its child spans cover on
the same thread; *top* time is the summed duration of a thread's outermost
spans, which is what the coverage check compares with the timed region.

Calls so hot that a wrapper (about a microsecond) would cost more than a few
percent of their own time are not wrapped; see ``layers.py`` for the list of
what is.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``counter(counts, args, kwargs, result)`` -- adds call-derived counts.
Counter = Callable[[Dict[str, float], tuple, dict, object], None]


class _ThreadState:
    __slots__ = ("name", "stack", "spans", "counts", "top")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: List[List[float]] = []
        # span name -> [total seconds, self seconds, calls]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.top = 0.0


class Recorder:
    """Thread-aware span and counter store for one traced region."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def wrap(self, fn: Callable, name: str, counter: Optional[Counter] = None) -> Callable:
        """A timing wrapper of ``fn`` recording span ``name`` (and counts)."""
        perf = time.perf_counter
        local = self._local
        new_state = self._state

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    state.top += elapsed
                record = state.spans.get(name)
                if record is None:
                    record = state.spans[name] = [0.0, 0.0, 0]
                record[0] += elapsed
                record[1] += elapsed - frame[0]
                record[2] += 1
                if counter is not None:
                    counter(state.counts, args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def snapshot(self) -> "Trace":
        """Merge every thread's spans and counts into one :class:`Trace`."""
        with self._lock:
            threads = list(self._threads)
        trace = Trace()
        for state in threads:
            for name, (total, own, calls) in state.spans.items():
                merged = trace.spans.setdefault(name, [0.0, 0.0, 0])
                merged[0] += total
                merged[1] += own
                merged[2] += calls
            for name, value in state.counts.items():
                trace.counts[name] = trace.counts.get(name, 0) + value
            trace.top_by_thread[state.name] = trace.top_by_thread.get(state.name, 0.0) + state.top
        return trace


def span_cost_s(calls: int = 20_000, trials: int = 5) -> float:
    """Host seconds one wrapper adds to a call (best of ``trials``).

    Multiplied by a round's span count this gives the tracing cost without
    the round-to-round noise of comparing two wall times.
    """

    def noop():
        return None

    wrapped = Recorder().wrap(noop, "calibration")
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - start - plain) / calls)
    return max(best, 0.0)


class Trace:
    """Merged spans (``name -> [total_s, self_s, calls]``) and counters."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.top_by_thread: Dict[str, float] = {}

    def total(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[0]

    def own(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0.0, 0.0, 0))[2])

    def counter(self, name: str) -> float:
        return self.counts.get(name, 0)


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def install(
        self,
        recorder: Recorder,
        owner: object,
        attribute: str,
        name: str,
        counter: Optional[Counter] = None,
    ) -> None:
        """Wrap ``owner.attribute`` (a module global or a class's own method)."""
        self.replace(owner, attribute, recorder.wrap(self.original(owner, attribute), name, counter))

    @staticmethod
    def original(owner: object, attribute: str) -> object:
        return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)

    def replace(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`restore`."""
        self._saved.append((owner, attribute, self.original(owner, attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
