"""Benchmark registry and single-benchmark execution for the harness.

Maps the seven Table 2 rows to workload entry points and runs one row in
the paper's three configurations:

* ``Seq``          — serial elision, uninstrumented (paper's Seq column);
* ``Instrumented`` — runtime + shared wrappers + metrics, *no* detector.
  The paper's bytecode instrumentation is nearly free on the JVM; in
  CPython the wrapper calls dominate, so we report this middle bar to keep
  the ``Racedet/Instrumented`` ratio comparable to the paper's
  ``Racedet/Seq`` (see EXPERIMENTS.md for the discussion);
* ``Racedet``      — instrumentation + the determinacy race detector.

It also runs the other legs of a ``repro-bench`` row (:data:`LEGS`):
:func:`run_trace_legs` checks one recorded trace with both detector
engines and the fast kernel, and :func:`run_parallel_legs` runs the
workload live under the ParallelRaceDetector on each runtime.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.harness.metrics import DetectorPerf, Metrics
from repro.workloads import (
    crypt_idea,
    jacobi,
    lufact,
    nqueens,
    reduce_tree,
    series,
    smith_waterman,
    sor,
    strassen,
)
from repro.workloads.common import run_instrumented

__all__ = [
    "BenchmarkDef",
    "BenchmarkResult",
    "BENCHMARKS",
    "EXTENDED_BENCHMARKS",
    "LEGS",
    "LegResults",
    "run_benchmark",
    "run_parallel_legs",
    "run_trace_legs",
]


@dataclass(frozen=True)
class BenchmarkDef:
    """One Table 2 row: names, entry points, verification."""

    name: str
    module: Any
    parallel_entry: str  #: attribute name: "run_af" or "run_future"

    def params(self, scale: str):
        return self.module.default_params(scale)

    def serial(self, params) -> Any:
        return self.module.serial(params)

    def parallel(self, rt, params) -> Any:
        return getattr(self.module, self.parallel_entry)(rt, params)

    def verify(self, params, result) -> None:
        self.module.verify(params, result)


#: The seven Table 2 rows, in the paper's order.
BENCHMARKS: Dict[str, BenchmarkDef] = {
    b.name: b
    for b in [
        BenchmarkDef("Series-af", series, "run_af"),
        BenchmarkDef("Series-future", series, "run_future"),
        BenchmarkDef("Crypt-af", crypt_idea, "run_af"),
        BenchmarkDef("Crypt-future", crypt_idea, "run_future"),
        BenchmarkDef("Jacobi", jacobi, "run_future"),
        BenchmarkDef("Smith-Waterman", smith_waterman, "run_future"),
        BenchmarkDef("Strassen", strassen, "run_future"),
    ]
}

#: Extension rows (not part of the paper's Table 2): broaden the overhead
#: picture — a second stencil, a fully strict search, a blocked LU, and
#: the zero-shared-access functional extreme.
EXTENDED_BENCHMARKS: Dict[str, BenchmarkDef] = {
    b.name: b
    for b in [
        BenchmarkDef("SOR-af", sor, "run_af"),
        BenchmarkDef("SOR-future", sor, "run_future"),
        BenchmarkDef("NQueens", nqueens, "run_af"),
        BenchmarkDef("LUFact", lufact, "run_future"),
        BenchmarkDef("ReduceTree", reduce_tree, "run_future"),
    ]
}


@dataclass
class BenchmarkResult:
    """Everything the Table 2 row reports, plus the extra middle bar."""

    name: str
    scale: str
    metrics: Metrics
    avg_readers: float
    seq_seconds: float
    instrumented_seconds: float
    racedet_seconds: float
    races: int
    perf: DetectorPerf = field(default_factory=DetectorPerf)

    @property
    def slowdown_vs_seq(self) -> float:
        """The paper's Slowdown column (Racedet / Seq)."""
        return self.racedet_seconds / self.seq_seconds if self.seq_seconds else 0.0

    @property
    def slowdown_vs_instrumented(self) -> float:
        """Detector-only slowdown (Racedet / Instrumented) — the CPython
        analogue of the paper's ratio, with interpreter dispatch factored
        out of the baseline."""
        if not self.instrumented_seconds:
            return 0.0
        return self.racedet_seconds / self.instrumented_seconds

    @property
    def events_per_second(self) -> float:
        """Detected-run throughput: all instrumented events (accesses +
        structure) over the Racedet wall time.  Includes workload compute,
        so it *under*-states pure checking throughput — the trace legs of
        ``repro-bench`` isolate that."""
        if not self.racedet_seconds:
            return 0.0
        return self.metrics.num_events / self.racedet_seconds

    def row(self) -> Dict[str, Any]:
        row = {
            "Benchmark": self.name,
            "#Tasks": self.metrics.num_tasks,
            "#NTJoins": self.metrics.num_nt_joins,
            "#SharedMem": self.metrics.num_shared_accesses,
            "#AvgReaders": round(self.avg_readers, 2),
        }
        # Cache/fast-path observability sits next to #AvgReaders: both
        # describe the per-access work the detector actually did.
        row.update(self.perf.as_row())
        row.update({
            "Seq (ms)": round(self.seq_seconds * 1e3, 1),
            "Instr (ms)": round(self.instrumented_seconds * 1e3, 1),
            "Racedet (ms)": round(self.racedet_seconds * 1e3, 1),
            "Slowdown": round(self.slowdown_vs_seq, 2),
            "Slowdown/Instr": round(self.slowdown_vs_instrumented, 2),
            "Events/s": round(self.events_per_second),
        })
        return row



#: Replay leg -> ``DeterminacyRaceDetector(engine=…)`` run over each
#: recorded trace; the first, the paper's object DTRG, is the golden one.
REPLAY_LEGS = {"replay[dtrg]": "object", "replay[array]": "array"}
#: ThreadRuntime pool sizes of the live parallel legs.
THREAD_WORKERS = (1, 2, 4)
TRACE_LEGS = tuple(REPLAY_LEGS) + ("fast", "fast+served")
PARALLEL_LEGS = ("parallel[serial]",) + tuple(
    f"threads-{w}" for w in THREAD_WORKERS
)
#: Every leg of a ``repro-bench`` row, in report order: the three live
#: Table 2 configurations of :func:`run_benchmark`, the checkers of one
#: recorded trace (:func:`run_trace_legs`) and the live
#: ParallelRaceDetector on each runtime (:func:`run_parallel_legs`).
LEGS = ("seq", "instrumented", "online") + TRACE_LEGS + PARALLEL_LEGS

_INVARIANT_PERF = (
    "precede_queries", "mutation_epoch",
    "shadow_fast_hits", "precede_calls_saved",
)


@dataclass
class LegResults:
    """Some legs of one ``repro-bench`` row.

    ``legs`` maps a leg name to its row: ``status`` is ``"ok"`` or
    ``"error"``; a completed leg carries its best-of-``repeats`` wall
    ``seconds`` and its ``races``.  ``counts`` holds the workload's
    event counts as the legs saw them.
    ``mismatches`` lists every way a leg's verdicts differ from its
    group's golden leg, and every ``error`` leg (empty = identical).
    Mismatches are recorded, not raised, so a violation still lands in
    the artifact.
    """

    legs: Dict[str, Dict[str, Any]]
    counts: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)


def _bench(name: str) -> BenchmarkDef:
    return BENCHMARKS.get(name) or EXTENDED_BENCHMARKS[name]


def _rate(count: int, seconds: float) -> float:
    return round(count / seconds, 1) if seconds else 0.0


def _verdict_diffs(leg: str, result, golden, *,
                   counters: bool = False) -> List[str]:
    """How ``result`` (a detector or a ``FastCheckResult``) differs from
    the golden ``replay[dtrg]`` detector: ``RaceReport.summary()`` text,
    ordered race pair list and, with ``counters``, the invariant perf
    counters."""
    diffs: List[str] = []
    if result.report.summary() != golden.report.summary():
        diffs.append(f"{leg}: summary differs from replay[dtrg]")
    if ([r.pair_key for r in result.races]
            != [r.pair_key for r in golden.races]):
        diffs.append(f"{leg}: race list differs from replay[dtrg]")
    if counters:
        stats, want = result.perf_stats, golden.perf_stats
        diffs.extend(
            f"{leg}: {key} {stats[key]} != {want[key]}"
            for key in _INVARIANT_PERF if stats[key] != want[key]
        )
    return diffs


def _served_leg(trace, repeats: int):
    """Time ``check_trace_fast(trace)`` best-of-``repeats`` detached, then
    best-of-``repeats`` again under one LiveTelemetry (progress counter
    attached, 250 ms sampler running) while a background thread scrapes
    its ``/metrics`` every 250 ms.  The two blocks run back-to-back, so
    the overhead ratio's sides see the same spell of a shared box.
    Returns the last served result, the detached and served best
    seconds, and the scrape and sampler-tick counts."""
    import threading
    import urllib.request

    from repro.core.fastcheck import check_trace_fast
    from repro.obs.live import LiveTelemetry

    def best_of(progress=None):
        best, result = float("inf"), None
        for _ in range(repeats):
            gc.collect()
            result = check_trace_fast(trace, progress=progress)
            best = min(best, result.timings["total_seconds"])
        return result, best

    scrapes = 0
    interval = 0.25
    stop = threading.Event()

    def _scrape_loop(url: str) -> None:
        # Scrape-then-wait, so even a leg shorter than one interval sees
        # at least one concurrent exposition render.
        nonlocal scrapes
        while True:
            try:
                with urllib.request.urlopen(url, timeout=2.0) as resp:
                    resp.read()
                scrapes += 1
            except OSError:
                pass
            if stop.wait(interval):
                return

    gc.disable()
    try:
        _, detached_best = best_of()
        telemetry = LiveTelemetry(port=0, interval=interval)
        telemetry.start()
        scraper = threading.Thread(
            target=_scrape_loop, args=(f"{telemetry.url}/metrics",),
            daemon=True,
        )
        scraper.start()
        try:
            served, served_best = best_of(telemetry.progress)
            samples = int(
                telemetry.sampler.gauges.get("sampler_samples_total", 0)
            )
        finally:
            stop.set()
            scraper.join(timeout=2.0)
            telemetry.stop()
    finally:
        gc.enable()
    return served, detached_best, served_best, scrapes, samples


def run_trace_legs(
    name: str,
    scale: str = "small",
    *,
    repeats: int = 3,
    verify: bool = True,
) -> LegResults:
    """Record one workload's trace once, then check it on every trace
    leg back-to-back in this process.

    * ``replay[dtrg]``, ``replay[array]`` —
      :func:`~repro.memory.tracer.replay_trace` into
      ``DeterminacyRaceDetector`` with the engine :data:`REPLAY_LEGS`
      names; ``replay[dtrg]``, the paper reference engine, is the golden
      leg.
    * ``fast`` — :func:`repro.core.fastcheck.check_trace_fast` over the
      recorded columns, with its own phase timings.
    * ``fast+served`` — the same call with a
      :class:`~repro.obs.live.LiveTelemetry` progress counter attached,
      its 250 ms sampler running and a background thread scraping its
      ``/metrics`` every 250 ms: the worst realistic observation load a
      long run sees.

    The replay legs and ``fast`` alternate for ``repeats`` rounds, so a
    slow spell of a shared box hits both sides of a ratio, not one.
    ``fast+served`` then runs ``repeats`` times under one LiveTelemetry,
    right after ``repeats`` detached calls (its ``detached_seconds``):
    the telemetry overhead is served over that adjacent detached block,
    so both sides see the same spell of a shared box.  The collector
    is parked throughout and run by hand before each timed call, so no
    collection lands inside a leg and every leg starts from the same
    heap.  Every completed replay leg must reproduce ``replay[dtrg]``'s
    summary and ordered race pair list; ``fast`` and ``fast+served``
    must also match its invariant perf counters.
    """
    from repro.core.detector import DeterminacyRaceDetector
    from repro.core.fastcheck import check_trace_fast
    from repro.memory.tracer import TraceRecorder, replay_trace

    bench = _bench(name)
    params = bench.params(scale)
    recorder = TraceRecorder()
    run = run_instrumented(
        lambda rt: bench.parallel(rt, params),
        detect=False,
        extra_observers=(recorder,),
    )
    if verify:
        bench.verify(params, run.result)
    trace = recorder.trace
    num_events = len(trace)

    legs: Dict[str, Dict[str, Any]] = {}
    mismatches: List[str] = []
    detectors: Dict[str, Any] = {}
    best: Dict[str, float] = {}
    fast = None
    fast_timings: Dict[str, float] = {}
    gc.disable()
    try:
        for _ in range(repeats):
            for leg, engine in REPLAY_LEGS.items():
                if leg in legs:  # failed: not retried
                    continue
                detector = DeterminacyRaceDetector(engine=engine)
                gc.collect()
                start = time.perf_counter()
                try:
                    replay_trace(trace, [detector])
                except Exception as exc:
                    detail = f"{type(exc).__name__}: {exc}"
                    legs[leg] = {"status": "error", "detail": detail}
                    mismatches.append(f"{leg}: {detail}")
                    continue
                best[leg] = min(best.get(leg, float("inf")),
                                time.perf_counter() - start)
                detectors[leg] = detector
            gc.collect()
            fast = check_trace_fast(trace)
            for key, value in fast.timings.items():
                fast_timings[key] = min(fast_timings.get(key, value), value)
    finally:
        gc.enable()

    served, detached_best, served_best, scrapes, samples = _served_leg(
        trace, repeats
    )

    assert fast is not None and served is not None
    golden = detectors.get("replay[dtrg]")
    for leg, detector in detectors.items():
        legs[leg] = {
            "status": "ok",
            "seconds": best[leg],
            "events_per_second": _rate(num_events, best[leg]),
            "races": len(detector.races),
            "perf": detector.perf_stats,
        }
    total = fast_timings["total_seconds"]
    legs["fast"] = {
        "status": "ok",
        "seconds": total,
        "encode_seconds": fast_timings["encode_seconds"],
        "structure_seconds": fast_timings["structure_seconds"],
        "access_seconds": fast_timings["access_seconds"],
        "events_per_second": _rate(num_events, total),
        "access_events_per_second": _rate(
            fast.num_access_events, fast_timings["access_seconds"]
        ),
        "races": len(fast.races),
    }
    legs["fast+served"] = {
        "status": "ok",
        "seconds": served_best,
        "detached_seconds": detached_best,
        "events_per_second": _rate(num_events, served_best),
        "races": len(served.races),
        "scrapes": scrapes,
        "samples": samples,
    }
    if golden is not None:
        for leg, detector in detectors.items():
            if detector is not golden:
                mismatches.extend(_verdict_diffs(leg, detector, golden))
        for leg, result in (("fast", fast), ("fast+served", served)):
            mismatches.extend(
                _verdict_diffs(leg, result, golden, counters=True)
            )

    return LegResults(
        legs=legs,
        counts={
            "num_events": num_events,
            "num_access_events": fast.num_access_events,
            "num_structure_events": fast.num_structure_events,
            "num_locations": fast.num_locations,
        },
        mismatches=mismatches,
    )


def run_parallel_legs(
    name: str,
    scale: str = "small",
    *,
    repeats: int = 3,
    verify: bool = True,
) -> LegResults:
    """Run one workload live with a fresh online
    :class:`~repro.core.parallel_detector.ParallelRaceDetector` attached:
    on the serial elision (``parallel[serial]``, the golden leg) and on a
    work-stealing ThreadRuntime of each :data:`THREAD_WORKERS` pool size
    (``threads-N``).

    Nothing is recorded or replayed: every leg is a live run, so the
    thread legs measure the whole contract at once — scheduler, two-tier
    detector locking and the verified workload result.  Each thread leg
    must report exactly the serial leg's racy-location set and task count
    (race pair order is schedule-dependent; DESIGN.md "Race order under
    parallel runtimes").  The AsyncioRuntime has no leg: workload kernels
    use the blocking ``get()`` style it rejects by design.  On a
    single-core box thread-leg speedups measure scheduling overhead,
    never parallelism."""
    from repro.core.parallel_detector import ParallelRaceDetector
    from repro.runtime.executor import ThreadRuntime
    from repro.runtime.runtime import Runtime

    bench = _bench(name)
    params = bench.params(scale)

    def one_leg(make_runtime):
        best = float("inf")
        det = stats = pool = None
        for _ in range(repeats):
            det = ParallelRaceDetector()
            rt = make_runtime(det)
            start = time.perf_counter()
            result = rt.run(lambda r: bench.parallel(r, params))
            best = min(best, time.perf_counter() - start)
            stats = det.perf_stats
            pool = getattr(rt, "pool_size", None)
            if verify:
                bench.verify(params, result)
        return det, stats, best, pool

    def leg_row(det, stats, best) -> Dict[str, Any]:
        return {
            "status": "ok",
            "seconds": best,
            "tasks_per_second": _rate(stats["num_tasks"], best),
            "accesses_per_second": _rate(stats["num_accesses"], best),
            "races": len(det.races),
        }

    det, stats, serial_best, _ = one_leg(lambda d: Runtime(observers=[d]))
    golden = frozenset(det.racy_locations)
    num_tasks = stats["num_tasks"]
    legs = {"parallel[serial]": leg_row(det, stats, serial_best)}
    mismatches: List[str] = []
    for w in THREAD_WORKERS:
        leg = f"threads-{w}"
        det, stats, best, pool = one_leg(
            lambda d, w=w: ThreadRuntime(observers=[d], workers=w)
        )
        legs[leg] = dict(
            leg_row(det, stats, best), workers=w, pool_size=pool,
            speedup_vs_serial=round(serial_best / best, 4) if best else 0.0,
        )
        got = frozenset(det.racy_locations)
        if got != golden:
            mismatches.append(
                f"{leg}: racy locations {sorted(got)} != "
                f"parallel[serial] {sorted(golden)}"
            )
        if stats["num_tasks"] != num_tasks:
            mismatches.append(
                f"{leg}: task count {stats['num_tasks']} != "
                f"parallel[serial] {num_tasks}"
            )

    return LegResults(legs=legs, mismatches=mismatches)


def run_benchmark(
    name: str,
    scale: str = "small",
    *,
    repeats: int = 1,
    verify: bool = True,
    obs=None,
) -> BenchmarkResult:
    """Run one Table 2 row in all three configurations.

    ``repeats`` keeps the best wall time per configuration (the paper uses
    the mean of 10 in-JVM runs to dodge JIT warmup; CPython has no warmup,
    so min-of-N suffices and is the conventional choice for interpreted
    code).  The instrumented and detector repeats each start from a
    collected heap: a repeat keeps only its numbers, so the previous
    run's detector and shadow state are gone before the next timed call
    instead of being walked by the cyclic collector inside it.

    ``obs`` (an :class:`repro.obs.Observability`) instruments the *Racedet*
    configuration only — the Seq and Instrumented bars stay untouched so
    the reported slowdowns keep their meaning.  The structural Table-2
    columns are identical with and without it (pinned by
    ``tests/integration/test_obs_integration.py``).
    """
    bench = _bench(name)
    params = bench.params(scale)

    seq_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        bench.serial(params)
        seq_best = min(seq_best, time.perf_counter() - start)

    instr_best = float("inf")
    metrics: Optional[Metrics] = None
    for _ in range(repeats):
        gc.collect()
        run = run_instrumented(
            lambda rt: bench.parallel(rt, params), detect=False
        )
        instr_best = min(instr_best, run.wall_seconds)
        metrics = run.metrics
        if verify:
            bench.verify(params, run.result)
        del run

    det_best = float("inf")
    avg_readers = 0.0
    races = 0
    perf = DetectorPerf()
    for _ in range(repeats):
        gc.collect()
        run = run_instrumented(
            lambda rt: bench.parallel(rt, params), detect=True, obs=obs
        )
        det_best = min(det_best, run.wall_seconds)
        avg_readers = run.avg_readers
        races = len(run.races)
        perf = DetectorPerf.from_detector(run.detector)
        if verify:
            bench.verify(params, run.result)
        del run

    assert metrics is not None
    return BenchmarkResult(
        name=name,
        scale=scale,
        metrics=metrics,
        avg_readers=avg_readers,
        seq_seconds=seq_best,
        instrumented_seconds=instr_best,
        racedet_seconds=det_best,
        races=races,
        perf=perf,
    )
