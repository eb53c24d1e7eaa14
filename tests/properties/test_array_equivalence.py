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

The internal verdict memo in ``ArrayDTRG`` and the kernel's fast paths
are exactly the machinery these sweeps exist to keep honest: any verdict
or counter drift shows up as a seed-numbered counterexample.
"""

import random

import pytest

from repro.core.detector import DeterminacyRaceDetector
from repro.core.fastcheck import check_trace_fast
from repro.core.races import ReportPolicy
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
