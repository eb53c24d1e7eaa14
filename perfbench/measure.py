"""Measurement loops: end-to-end with tracing off, per layer with it on.

Both loops run rounds until ``seconds`` have passed (at least one round)
and report medians: over blocks of rounds end to end, over rounds per
layer.  Every run is checked: its verdict
against the oracle, its result against the workload's own check, and the
serial pipelines' counters against their first run.  A run that raises,
hits its time limit or fails a check counts in :class:`Ledger`.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import ExecutionObserver, encode_trace
from repro.core.fastcheck import check_trace_fast
from repro.core.parallel_detector import ParallelRaceDetector
from repro.memory.tracer import TraceRecorder

import pipelines as pl

#: Length of one block of end-to-end rounds, in seconds.
BLOCK_S = 3.0


class Ledger:
    """Counts attempted and failed runs, and runs them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        #: Set once a threaded run hangs; nothing runs after that.
        self.hung = False

    @property
    def failed(self) -> int:
        return len(self.failures)

    def attempt(self, label: str, fn: Callable, check: Optional[Callable],
                *, limited: bool = False):
        """Run ``fn()`` timed, then ``check(output)``.

        Returns ``(seconds, output)``, or ``None`` when the run failed.
        ``limited`` runs it under :func:`pipelines.run_limited`.
        """
        self.attempted += 1
        gc.collect()
        try:
            if limited:
                seconds, out = pl.run_limited(lambda: pl.timed(fn))
            else:
                seconds, out = pl.timed(fn)
            if check is not None:
                check(out)
        except pl.TimeLimitHit as exc:
            self.hung = True
            self._fail(label, exc)
            return None
        except Exception as exc:  # any failure of the measured code
            self._fail(label, exc)
            return None
        return seconds, out

    def _fail(self, label: str, exc: BaseException) -> None:
        line = f"{label}: {type(exc).__name__}: {exc}"
        self.failures.append(line)
        print(f"FAILED {line}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


# ---------------------------------------------------------------------- #
# Checks                                                                 #
# ---------------------------------------------------------------------- #
def _same_length(units, out) -> None:
    if len(out) != len(units):
        raise AssertionError(f"{len(out)} outputs for {len(units)} units")


def verdicts(units) -> Callable:
    """Check each ``checker``'s racy locations and each ``result``."""

    def check(out) -> None:
        _same_length(units, out)
        for i, (unit, (checker, result, _)) in enumerate(zip(units, out)):
            _racy_matches(i, unit, checker)
            unit.check(result)

    return check


def results(units) -> Callable:
    """Check each ``result`` only (runs without a detector)."""

    def check(out) -> None:
        _same_length(units, out)
        for unit, (_, result, _) in zip(units, out):
            unit.check(result)

    return check


def racy_sets(units) -> Callable:
    """Check a list of checkers (one per unit) against the oracle."""

    def check(out) -> None:
        _same_length(units, out)
        for i, (unit, checker) in enumerate(zip(units, out)):
            _racy_matches(i, unit, checker)

    return check


def no_races(out) -> None:
    """Check detectors that saw no accesses, so must report no race."""
    for det in out:
        if det.report.races:
            raise AssertionError("races reported without any access")


def _racy_matches(i: int, unit, checker) -> None:
    got = frozenset(checker.racy_locations)
    if got != unit.racy:
        raise AssertionError(
            f"unit {i}: racy locations {sorted(map(repr, got))} != oracle "
            f"{sorted(map(repr, unit.racy))}"
        )


class Repeats:
    """Check that ``counters(output)`` repeats exactly across runs."""

    def __init__(self, counters: Callable) -> None:
        self.counters = counters
        self.first: Optional[Dict[str, int]] = None

    def __call__(self, out) -> None:
        seen = self.counters(out)
        if self.first is None:
            self.first = seen
        elif seen != self.first:
            raise AssertionError(
                f"counters changed between runs: {self.first} -> {seen}"
            )


def both(*checks: Callable) -> Callable:
    def check(out) -> None:
        for one in checks:
            one(out)

    return check


def pipeline_checks(units) -> Dict[str, Callable]:
    return {
        "online": both(verdicts(units), Repeats(pl.online_counters)),
        "fast": both(verdicts(units), Repeats(pl.fast_counters)),
        "threads": verdicts(units),
    }


# ---------------------------------------------------------------------- #
# Statistics                                                             #
# ---------------------------------------------------------------------- #
def median(values) -> float:
    return statistics.median(values) if values else 0.0


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _rounds(seconds: float, ledger: Ledger):
    """Yield once per round until ``seconds`` passed (at least once)."""
    deadline = perf_counter() + seconds
    while not ledger.hung:
        yield
        if perf_counter() >= deadline:
            return


def _run_pipeline(ledger, name, units, span, checks):
    fn = functools.partial(pl.PIPELINES[name], units, span)
    return ledger.attempt(name, fn, checks[name], limited=name == "threads")


# ---------------------------------------------------------------------- #
# End to end (tracing off)                                               #
# ---------------------------------------------------------------------- #
def end_to_end(units, seconds: float, ledger: Ledger):
    """Median wall time of each pipeline, program start to summary text.

    The rounds are grouped into blocks of about :data:`BLOCK_S` seconds.
    A sample is a pipeline's mean time over one block, so every sample
    spans the same mix of fast and slow spells of a shared machine; the
    metric is the median over the blocks.  One untimed round first brings
    the process to the steady state the timed rounds see.  Returns
    ``(metrics, samples)``; ``samples`` holds every block's sample.
    """
    checks = pipeline_checks(units)
    _pipelines_round(units, checks, ledger, defaultdict(list))
    samples: Dict[str, List[float]] = defaultdict(list)
    for _ in _rounds(seconds, ledger):
        block: Dict[str, List[float]] = defaultdict(list)
        end = perf_counter() + BLOCK_S
        while not ledger.hung:
            _pipelines_round(units, checks, ledger, block)
            if perf_counter() >= end:
                break
        for name, times in block.items():
            samples[name].append(statistics.fmean(times))
    metrics = {f"{name}_s": median(samples[name]) for name in pl.PIPELINES}
    return metrics, dict(samples)


def _pipelines_round(units, checks, ledger, times) -> None:
    for name in pl.PIPELINES:
        got = _run_pipeline(ledger, name, units, pl.NO_SPANS, checks)
        if got is not None:
            times[name].append(got[0])
        if ledger.hung:
            return


# ---------------------------------------------------------------------- #
# Per layer (tracing on)                                                 #
# ---------------------------------------------------------------------- #
def _array_detector():
    return DeterminacyRaceDetector(engine="array")


def layers(units, seconds: float, ledger: Ledger, spans: pl.Spans):
    """Per-layer metrics, from single-layer runs and traced pipelines.

    Each round runs every pipeline untraced and traced, then one run per
    layer.  A layer's time is the difference between runs that add it.
    Returns ``(metrics, samples)``; ``samples`` holds every timing.
    """
    checks = pipeline_checks(units)
    t: Dict[str, List[float]] = defaultdict(list)
    executor: Dict[str, List[int]] = defaultdict(list)
    counters: Dict[str, int] = defaultdict(int)

    def run(key, fn, check, limited=False):
        got = ledger.attempt(key, fn, check, limited=limited)
        if got is None:
            return None
        t[key].append(got[0])
        return got[1]

    for _ in _rounds(seconds, ledger):
        for name in pl.PIPELINES:
            got = _run_pipeline(ledger, name, units, pl.NO_SPANS, checks)
            if got is None:
                break
            t[name].append(got[0])
            if name == "online":
                counters.update(pl.online_counters(got[1]))
            if name == "threads":
                for key, value in pl.executor_counters(got[1]).items():
                    executor[key].append(value)

            def traced(name=name):
                with spans.run(f"pipeline.{name}"):
                    return pl.PIPELINES[name](units, spans)

            got = ledger.attempt(f"traced {name}", traced, checks[name],
                                 limited=name == "threads")
            if got is None:
                break
            t[f"traced.{name}"].append(got[0])
        if ledger.hung:
            break

        if units[0].serial_elision is not None:
            run("serial", lambda: [u.serial_elision() for u in units], None)
        run("runtime", lambda: pl.runtime_only(units), results(units))
        run("noop", lambda: pl.runtime_only(units, ExecutionObserver),
            results(units))
        recorded = run("record", lambda: pl.runtime_only(units, TraceRecorder),
                       results(units))
        if recorded is not None:
            traces = [rec.trace for rec, _, _ in recorded]
            encoded = run("encode", lambda: [encode_trace(x) for x in traces],
                          None)
            if encoded is not None:
                counters["events"] = sum(len(enc) for enc in encoded)
                counters["accesses"] = sum(
                    enc.num_access_events for enc in encoded)
                run("check", lambda: [check_trace_fast(x) for x in encoded],
                    racy_sets(units))
            structural = [pl.structure_events(trace) for trace in traces]
            run("replay_structure", lambda: pl.replay(structural), no_races)
            run("replay", lambda: pl.replay(traces), racy_sets(units))
        run("array", lambda: pl.online(units, pl.NO_SPANS, _array_detector),
            verdicts(units))
        run("parallel_serial",
            lambda: pl.online(units, pl.NO_SPANS, ParallelRaceDetector),
            verdicts(units))
        run("executor", lambda: pl.executor_only(units), results(units),
            limited=True)

    return _layer_metrics(t, counters, executor, spans), dict(t)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(t, counters, executor, spans) -> Dict[str, float]:
    """Derive the per-layer metrics; a layer that never ran reads 0."""
    m = defaultdict(float, {key: median(values) for key, values in t.items()})
    hits, misses = counters["cache_hits"], counters["cache_misses"]
    summary_runs = spans.per_run("core.races.summary", "pipeline.online")
    metrics = {
        "workloads.serial_s": m["serial"],
        "runtime.run_s": m["runtime"],
        "runtime.dispatch_s": m["noop"] - m["runtime"],
        "memory.tracer.record_s": m["record"] - m["noop"],
        "core.events.encode_s": m["encode"],
        "core.events.events": counters["events"],
        "core.events.accesses": counters["accesses"],
        "core.fastcheck.check_s": m["check"],
        "core.fastcheck.access_checks_per_s":
            _ratio(counters["accesses"], m["check"]),
        "core.reachability.structure_s": m["replay_structure"],
        "core.shadow.access_s": m["replay"] - m["replay_structure"],
        "core.reachability.precede_queries": counters["precede_queries"],
        "core.reachability.visits": counters["visits"],
        "core.precede_cache.hit_ratio": _ratio(hits, hits + misses),
        "core.shadow.fast_hits": counters["fast_hits"],
        "core.detector.slowdown_instr": _ratio(m["online"], m["runtime"]),
        "core.array_dtrg.online_s": m["array"],
        "core.parallel_detector.online_s": m["parallel_serial"],
        "runtime.executor.run_s": m["executor"],
        "core.races.summary_s": median(summary_runs),
        "core.races.races": counters["races"],
        "trace.overhead_ratio": _ratio(
            sum(m[f"traced.{name}"] for name in pl.PIPELINES),
            sum(m[name] for name in pl.PIPELINES),
        ),
    }
    for key in ("compensation_threads", "steals", "failed_steals"):
        metrics[f"runtime.executor.{key}"] = median(executor[key])
        metrics[f"runtime.executor.{key}_iqr"] = iqr(executor[key])
    return metrics
