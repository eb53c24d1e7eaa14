"""End-to-end unit tests of the determinacy race detector on the runtime."""

import pytest

from repro import (
    AccessKind,
    DeterminacyRaceDetector,
    RaceError,
    ReportPolicy,
    Runtime,
    SharedArray,
    SharedVar,
)


def run(builder, **det_kwargs):
    det = DeterminacyRaceDetector(**det_kwargs)
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", 8)
    rt.run(lambda _rt: builder(rt, mem))
    return det


def test_no_tasks_no_races():
    det = run(lambda rt, mem: (mem.write(0, 1), mem.read(0)))
    assert not det.report.has_races


def test_write_write_race_between_asyncs():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))

    det = run(prog)
    assert det.report.racy_locations == {("x", 0)}
    assert det.races[0].kind is AccessKind.WRITE_WRITE


def test_future_get_prevents_race():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1))
        f.get()
        mem.write(0, 2)

    det = run(prog)
    assert not det.report.has_races


def test_race_kinds_reported_correctly():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.read(0))

    det = run(prog)
    kinds = {race.kind for race in det.races}
    # writer recorded first, reader second -> write-read
    assert kinds == {AccessKind.WRITE_READ}


def test_read_then_parallel_write_is_read_write():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.read(0))
            rt.async_(lambda: mem.write(0, 1))

    det = run(prog)
    assert {race.kind for race in det.races} == {AccessKind.READ_WRITE}


def test_raise_policy_aborts_on_first_race():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.write(0, 2))
            rt.async_(lambda: mem.write(1, 3))

    det = DeterminacyRaceDetector(policy=ReportPolicy.RAISE)
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", 8)
    with pytest.raises(RaceError) as excinfo:
        rt.run(lambda _rt: prog(rt, mem))
    assert excinfo.value.race.loc == ("x", 0)
    assert len(det.races) == 1


def test_policy_accepts_string():
    det = DeterminacyRaceDetector(policy="raise")
    assert det.policy is ReportPolicy.RAISE


def test_dedupe_suppresses_repeated_pairs():
    def prog(rt, mem):
        def reader():
            mem.read(0)
            mem.read(0)

        with rt.finish():
            rt.async_(lambda: mem.write(0, 1), name="w")
            rt.async_(reader, name="r")

    det = run(prog)
    assert len(det.races) == 1
    det2 = run(prog, dedupe=False)
    assert len(det2.races) == 2


def test_race_message_names_tasks_and_location():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(3, 1), name="alpha")
            rt.async_(lambda: mem.write(3, 2), name="beta")

    det = run(prog)
    text = str(det.races[0])
    assert "alpha" in text and "beta" in text and "('x', 3)" in text


def test_shared_var_and_array_both_instrumented():
    det = DeterminacyRaceDetector()
    rt = Runtime(observers=[det])
    var = SharedVar(rt, "v", 0)
    arr = SharedArray(rt, "a", 2)

    def prog(_rt):
        with rt.finish():
            rt.async_(lambda: var.write(1))
            rt.async_(lambda: var.read())
        with rt.finish():
            rt.async_(lambda: arr.write(0, 1))
            rt.async_(lambda: arr.write(0, 2))

    rt.run(prog)
    assert det.report.racy_locations == {("v",), ("a", 0)}


def test_deep_nesting_future_chain_race_free():
    def prog(rt, mem):
        def level(depth):
            if depth == 0:
                mem.write(0, depth)
                return
            f = rt.future(level, depth - 1)
            f.get()
            mem.write(0, depth)

        level(30)

    det = run(prog)
    assert not det.report.has_races


def test_many_parallel_futures_each_own_location():
    def prog(rt, mem):
        handles = [rt.future(lambda i=i: mem.write(i, i)) for i in range(8)]
        for handle in handles:
            handle.get()
        for i in range(8):
            mem.read(i)

    det = run(prog)
    assert not det.report.has_races


def test_ablation_flags_reach_dtrg():
    det = DeterminacyRaceDetector(
        engine="object", use_lsa=False, memoize_visit=False,
        use_intervals=False,
    )
    assert det.dtrg.use_lsa is False
    assert det.dtrg.memoize_visit is False
    assert det.dtrg.use_intervals is False


def test_future_covered_reader_not_dropped():
    """Soundness regression (found by differential fuzzing, scoped flow).

    The read inside the future's finish is summarized by the future's end,
    so ``g.get()`` orders it before the write while the sibling async's
    read stays parallel.  The single-async-representative policy must not
    let the future-covered reader stand in for the plain async one."""

    def prog(rt, mem):
        def future_body():
            with rt.finish():
                rt.async_(lambda: mem.read(0))

        f = rt.future(future_body)
        rt.async_(lambda: mem.read(0))
        rt.async_(lambda: (f.get(), mem.write(0, 1)))

    det = run(prog)
    assert det.report.racy_locations == {("x", 0)}
    kinds = {race.kind for race in det.races}
    assert AccessKind.READ_WRITE in kinds


def test_future_covered_applies_transitively():
    """A reader nested two asyncs below a future is still future-covered."""

    def prog(rt, mem):
        def future_body():
            with rt.finish():
                rt.async_(lambda: rt.async_(lambda: mem.read(0)))

        f = rt.future(future_body)
        rt.async_(lambda: mem.read(0))
        rt.async_(lambda: (f.get(), mem.write(0, 1)))

    det = run(prog)
    assert det.report.racy_locations == {("x", 0)}
