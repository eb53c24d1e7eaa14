"""Integer access kernel ≡ object-graph engine, under fuzzing.

Properties over 200 generated programs (ALGORITHM.md §13):

1. **Three-path equivalence** — one program run with the default
   detector (the kernel driven online, ``engine="array"``), the same
   recorded trace checked by ``check_trace_fast`` (the kernel replaying
   the columns) and replayed into ``engine="object"`` (the paper
   reference) agree byte for byte: race list, ``summary()``,
   ``#AvgReaders`` and the invariant ``DetectorPerf`` counters.  The
   online summary is compared with an object detector attached to the
   same run, because live task names differ from the replay convention.
2. **Replay equivalence** — ``replay_trace`` into ``engine="array"``
   reproduces the object-graph replay the same way.
3. **Query equivalence** — ``ArrayDTRG.precede()`` is bit-equivalent to
   the object DTRG on *every* task pair of the finished graph.
4. **First race under ``--policy raise``** — the kernel raises
   :class:`~repro.runtime.errors.RaceError` on the same race as the
   object engine.
5. **In-contract query equivalence** — the detector only asks
   ``precede(a, b)`` while ``b`` is the currently executing task.  Raw
   object and array DTRGs fed the detector's structural events agree on
   ``precede(a, current)`` for every task seen so far, at every event
   boundary of the run (not just on the finished graph, where the final
   end-finish merges make most answers ``True``).

The internal verdict memo in ``ArrayDTRG`` and the kernel's fast paths
are exactly the machinery these sweeps exist to keep honest: any verdict
or counter drift shows up as a seed-numbered counterexample.
"""

import random

import pytest

from repro.core.array_dtrg import ArrayDTRG
from repro.core.detector import DeterminacyRaceDetector
from repro.core.events import ExecutionObserver
from repro.core.fastcheck import check_trace_fast
from repro.core.races import ReportPolicy
from repro.core.reachability import DynamicTaskReachabilityGraph
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.runtime.errors import RaceError
from repro.testing.generator import random_program, run_program

NUM_SEEDS = 200
BAND = 40
INVARIANT_PERF = (
    "precede_queries", "mutation_epoch", "shadow_fast_hits",
    "precede_calls_saved",
)


def _replay(trace, **options):
    det = DeterminacyRaceDetector(**options)
    replay_trace(trace, [det])
    return det


def _assert_same(seed, what, got, got_avg, golden, golden_perf, golden_avg):
    assert [r.pair_key for r in got.races] == [
        r.pair_key for r in golden.races
    ], f"seed {seed}: {what} race order diverges"
    assert got.racy_locations == golden.racy_locations
    perf = got.perf_stats
    for key in INVARIANT_PERF:
        assert perf[key] == golden_perf[key], (
            f"seed {seed}: {what} counter {key} diverges "
            f"({perf[key]} vs {golden_perf[key]})"
        )
    assert got_avg == golden_avg, (
        f"seed {seed}: {what} #AvgReaders diverges"
    )


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_array_engine_equivalence_fuzz(band):
    racy_seeds = 0
    for seed in range(band, band + BAND):
        online = DeterminacyRaceDetector()
        live_object = DeterminacyRaceDetector(engine="object")
        rec = TraceRecorder()
        run_program(random_program(random.Random(seed)),
                    [online, live_object, rec])
        trace = rec.trace

        golden = _replay(trace, engine="object")
        # Capture before the all-pairs sweeps below: every live-graph
        # precede() bumps the query counters.
        golden_summary = golden.report.summary()
        golden_perf = golden.perf_stats
        golden_avg = golden.shadow.avg_readers
        racy_seeds += bool(golden.races)

        assert online.engine == "array"
        assert online.report.summary() == live_object.report.summary(), (
            f"seed {seed}: online kernel summary diverges"
        )
        assert list(online.races) == list(live_object.races)
        _assert_same(seed, "online kernel", online,
                     online.shadow.avg_readers, golden, golden_perf,
                     golden_avg)

        fast = check_trace_fast(trace)
        assert fast.summary() == golden_summary, (
            f"seed {seed}: fastcheck summary diverges"
        )
        assert list(fast.races) == list(golden.races)
        _assert_same(seed, "fastcheck", fast, fast.avg_readers, golden,
                     golden_perf, golden_avg)

        arr = _replay(trace, engine="array")
        assert arr.report.summary() == golden_summary, (
            f"seed {seed}: array-engine replay summary diverges"
        )
        _assert_same(seed, "array replay", arr, arr.shadow.avg_readers,
                     golden, golden_perf, golden_avg)

        # All-pairs: live array graph vs live object graph.
        keys = arr.dtrg.keys
        assert sorted(keys) == sorted(
            key for group in golden.dtrg.partition() for key in group
        ), f"seed {seed}: task sets differ"
        for a in keys:
            for b in keys:
                assert arr.dtrg.precede(a, b) == golden.dtrg.precede(a, b), (
                    f"seed {seed}: ArrayDTRG diverges on ({a}, {b})"
                )
    # A sweep where nothing races would vacuously pass the report
    # comparisons; every band is expected to surface racy programs.
    assert racy_seeds > 0


def _first_race(program, engine):
    det = DeterminacyRaceDetector(ReportPolicy.RAISE, engine=engine)
    try:
        run_program(program, [det])
    except RaceError as exc:
        return exc.race
    return None


def test_raise_policy_stops_at_the_same_first_race():
    raised = 0
    for seed in range(NUM_SEEDS):
        program = random_program(random.Random(seed))
        want = _first_race(program, "object")
        got = _first_race(program, "array")
        assert got == want, f"seed {seed}: first race {got} vs {want}"
        raised += want is not None
    assert raised > 0


class _QueryHarness(ExecutionObserver):
    """Forward structure to a raw object and array DTRG the way the
    detector does, and diff ``precede(a, current)`` at every boundary."""

    def __init__(self):
        self.golden = DynamicTaskReachabilityGraph()
        self.array = ArrayDTRG()
        self.known = []
        self.stack = []
        self.divergences = []
        self.queries = 0

    def _each(self, method, *args, **kwargs):
        getattr(self.golden, method)(*args, **kwargs)
        getattr(self.array, method)(*args, **kwargs)

    def _diff(self, point):
        if not self.stack:
            return
        cur = self.stack[-1]
        for a in self.known:
            self.queries += 1
            want = self.golden.precede(a, cur)
            got = self.array.precede(a, cur)
            if got != want:
                self.divergences.append(
                    f"{point}: precede({a}, {cur}) array={got} vs "
                    f"object={want}"
                )

    def on_init(self, main):
        self._each("add_root", main.tid, name=main.name)
        self.known.append(main.tid)
        self.stack.append(main.tid)
        self._diff("init")

    def on_task_create(self, parent, child):
        self._each("add_task", parent.tid, child.tid,
                   is_future=child.is_future, name=child.name)
        self.known.append(child.tid)
        self.stack.append(child.tid)
        self._diff("task-create")

    def on_task_end(self, task):
        self._diff("task-end")
        self._each("on_terminate", task.tid)
        if self.stack and self.stack[-1] == task.tid:
            self.stack.pop()

    def on_get(self, consumer, producer):
        self._each("record_join", consumer.tid, producer.tid)
        self._diff("get")

    def on_finish_end(self, scope):
        owner = scope.owner.tid
        for task in scope.joins:
            self._each("merge", owner, task.tid)
        self._diff("finish-end")


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_engines_agree_in_contract(band):
    queries = 0
    for seed in range(band, band + BAND):
        harness = _QueryHarness()
        run_program(random_program(random.Random(seed)), [harness])
        assert not harness.divergences, (
            f"seed {seed}: {harness.divergences[:5]}"
        )
        queries += harness.queries
    assert queries > 0  # a sweep that never queried proves nothing
