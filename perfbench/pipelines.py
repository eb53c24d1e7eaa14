"""The three racecheck pipelines, the single-layer runs, and span tracing.

A pipeline takes the workload's units and a ``span`` callable and returns
one ``(checker, result, runtime)`` triple per unit, where ``checker`` is
the object whose ``racy_locations`` is the verdict.  ``span(name)`` returns a
context manager around one call into a layer: :data:`NO_SPANS` for the
untraced runs, a :class:`Spans` recorder for the traced run.
"""

from __future__ import annotations

import collections
import contextlib
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import ReadEvent, WriteEvent, encode_trace
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_detector import ParallelRaceDetector
from repro.memory.tracer import TraceRecorder, replay_trace

#: Wall-clock limit of one run on the threaded runtime, in seconds.
THREADS_LIMIT_S = 30.0

_NULL_SPAN = contextlib.nullcontext()


def NO_SPANS(name: str):
    return _NULL_SPAN


class Spans:
    """In-memory span recorder for the traced run.

    A record is ``(run, span_id, parent_id, name, start, end)``; every span
    of one pipeline run carries the same ``run`` id.  Spans nest on one
    thread at a time: the threaded pipeline is driven from a helper
    thread while the main thread waits for it.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._stack: List[int] = []
        self._run = -1
        self._runs = 0
        self._ids = 0

    @contextlib.contextmanager
    def run(self, pipeline: str):
        """Open a new pipeline run: a fresh run id and its root span."""
        self._run = self._runs
        self._runs += 1
        with self(pipeline):
            yield

    @contextlib.contextmanager
    def __call__(self, name: str):
        span_id = self._ids
        self._ids += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.records.append((self._run, span_id, parent, name, start, end))

    def self_times(self) -> Dict[str, float]:
        """Mean self time per pipeline run of each layer, in seconds.

        Keys are ``"<pipeline root span> > <span name>"``.  A span's self
        time is its duration minus the durations of its direct children
        (children never overlap their parent).
        """
        child_time: Dict[int, float] = {}
        roots: Dict[int, str] = {}
        for run, _, parent, name, start, end in self.records:
            if parent is None:
                roots[run] = name
            else:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        runs_of = collections.Counter(roots.values())
        totals: Dict[str, float] = collections.defaultdict(float)
        for run, span_id, _, name, start, end in self.records:
            root = roots[run]
            own = end - start - child_time.get(span_id, 0.0)
            totals[f"{root} > {name}"] += own / runs_of[root]
        return dict(totals)

    def per_run(self, name: str, root: str) -> List[float]:
        """Total duration of the ``name`` spans in each run rooted at
        ``root``, one value per run."""
        runs = {rec[0] for rec in self.records
                if rec[2] is None and rec[3] == root}
        totals = dict.fromkeys(runs, 0.0)
        for run, _, _, span_name, start, end in self.records:
            if run in totals and span_name == name:
                totals[run] += end - start
        return list(totals.values())

    def to_json(self) -> List[dict]:
        return [
            {"run": run, "id": span_id, "parent": parent, "name": name,
             "start": start, "end": end}
            for run, span_id, parent, name, start, end in self.records
        ]


class TimeLimitHit(Exception):
    """A threaded run did not finish within :data:`THREADS_LIMIT_S`."""


def run_limited(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` on a daemon helper thread; wait :data:`THREADS_LIMIT_S`.

    A ``ThreadRuntime`` that hangs leaves its helper thread behind; the
    caller records the hang and runs nothing threaded afterwards.
    """
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the calling thread
            box["error"] = exc

    helper = threading.Thread(target=target, name="perfbench-limited",
                              daemon=True)
    helper.start()
    helper.join(THREADS_LIMIT_S)
    if helper.is_alive():
        raise TimeLimitHit(f"threaded run exceeded {THREADS_LIMIT_S:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def timed(fn: Callable[[], Any]) -> tuple:
    """``(seconds, fn())``."""
    start = perf_counter()
    value = fn()
    return perf_counter() - start, value


# ---------------------------------------------------------------------- #
# The pipelines a user picks in repro-racecheck                          #
# ---------------------------------------------------------------------- #
def online(units, span, detector=DeterminacyRaceDetector) -> list:
    """Serial runtime with an online detector, then the summary.

    The pipeline uses the default object DTRG; the traced run also passes
    the array engine and the parallel detector as ``detector``.
    """
    out = []
    for unit in units:
        det = detector()
        with span("runtime.run"):
            rt, result = unit.run_serial([det])
        with span("core.races.summary"):
            det.report.summary()
        out.append((det, result, rt))
    return out


def fast(units, span) -> list:
    """Serial runtime with a trace recorder; encode, fast-check, summary."""
    out = []
    for unit in units:
        recorder = TraceRecorder()
        with span("runtime.run"):
            rt, result = unit.run_serial([recorder])
        with span("core.events.encode"):
            encoded = encode_trace(recorder.trace)
        with span("core.fastcheck.check"):
            checked = check_trace_fast(encoded)
        with span("core.races.summary"):
            checked.summary()
        out.append((checked, result, rt))
    return out


def threads(units, span) -> list:
    """Threaded runtime with the parallel detector, then the summary."""
    out = []
    for unit in units:
        det = ParallelRaceDetector()
        with span("runtime.executor.run"):
            rt, result = unit.run_threads([det])
        with span("core.races.summary"):
            det.report.summary()
        out.append((det, result, rt))
    return out


PIPELINES = {"online": online, "fast": fast, "threads": threads}


# ---------------------------------------------------------------------- #
# Counters                                                               #
# ---------------------------------------------------------------------- #
def online_counters(out) -> Dict[str, int]:
    """DTRG and shadow-memory counters of an ``online`` run, summed."""
    totals = dict.fromkeys(
        ("precede_queries", "visits", "cache_hits", "cache_misses",
         "fast_hits", "races"), 0)
    for det, _, _ in out:
        dtrg = det.dtrg
        totals["precede_queries"] += dtrg.num_precede_queries
        totals["visits"] += dtrg.num_visits
        totals["cache_hits"] += dtrg.cache.hits
        totals["cache_misses"] += dtrg.cache.misses
        totals["fast_hits"] += det.shadow.num_fast_path_hits
        totals["races"] += len(det.report.races)
    return totals


def fast_counters(out) -> Dict[str, int]:
    """Event and kernel counters of a ``fast`` run, summed."""
    totals = dict.fromkeys(
        ("events", "accesses", "precede_queries", "visits", "fast_hits",
         "races"), 0)
    for checked, _, _ in out:
        totals["events"] += checked.num_events
        totals["accesses"] += checked.num_access_events
        totals["precede_queries"] += checked.num_precede_queries
        totals["visits"] += checked.num_visits
        totals["fast_hits"] += checked.shadow_fast_hits
        totals["races"] += len(checked.races)
    return totals


def executor_counters(out) -> Dict[str, int]:
    """Schedule-dependent ``ThreadRuntime`` counters of a ``threads`` run."""
    totals = dict.fromkeys(
        ("compensation_threads", "steals", "failed_steals"), 0)
    for _, _, rt in out:
        totals["compensation_threads"] += rt.compensation_threads
        totals["steals"] += rt.steals
        totals["failed_steals"] += rt.failed_steals
    return totals


# ---------------------------------------------------------------------- #
# Single-layer runs for the traced run                                   #
# ---------------------------------------------------------------------- #
def runtime_only(units, observer_factory: Optional[Callable] = None) -> list:
    """Serial runtime with no observer, or with one ``observer_factory()``.

    Triples are ``(observer, result, runtime)``.
    """
    out = []
    for unit in units:
        observers = [observer_factory()] if observer_factory else []
        rt, result = unit.run_serial(observers)
        out.append((observers[0] if observers else None, result, rt))
    return out


def executor_only(units) -> list:
    """Threaded runtime with no observer."""
    out = []
    for unit in units:
        rt, result = unit.run_threads([])
        out.append((None, result, rt))
    return out


def structure_events(trace) -> list:
    """The structural events of ``trace`` (all but reads and writes)."""
    return [e for e in trace if not isinstance(e, (ReadEvent, WriteEvent))]


def replay(traces) -> list:
    """Replay each trace into a fresh online DTRG detector."""
    out = []
    for trace in traces:
        det = DeterminacyRaceDetector()
        replay_trace(trace, [det])
        out.append(det)
    return out
