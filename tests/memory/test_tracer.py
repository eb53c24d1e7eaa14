"""Unit tests for trace recording and replay."""

import random

from repro import DeterminacyRaceDetector, Runtime, SharedArray
from repro.baselines import BruteForceDetector
from repro.core.events import GetEvent, ReadEvent, TaskCreateEvent, WriteEvent
from repro.harness.metrics import MetricsCollector
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.testing.generator import random_program, run_program
from repro.testing.programs import CORPUS, run_corpus_program


def record(builder):
    recorder = TraceRecorder()
    rt = Runtime(observers=[recorder])
    mem = SharedArray(rt, "x", 4)
    rt.run(lambda _rt: builder(rt, mem))
    return recorder.trace


def test_trace_event_sequence():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1))
        f.get()
        mem.read(0)

    trace = record(prog)
    kinds = [type(e).__name__ for e in trace]
    assert kinds == [
        "TaskCreateEvent",
        "WriteEvent",
        "TaskEndEvent",
        "GetEvent",
        "ReadEvent",
    ]
    create = trace.events[0]
    assert isinstance(create, TaskCreateEvent)
    assert create.parent == 0 and create.child == 1 and create.is_future
    assert trace.counts() == (1, 1, 2)


def test_replay_reproduces_detector_verdict():
    def prog(rt, mem):
        with rt.finish():
            rt.async_(lambda: mem.write(0, 1))
            rt.async_(lambda: mem.read(0))

    trace = record(prog)
    det = DeterminacyRaceDetector()
    replay_trace(trace, [det])
    assert det.report.racy_locations == {("x", 0)}


def test_replay_matches_live_run_on_corpus():
    for program in CORPUS:
        recorder = TraceRecorder()
        live = DeterminacyRaceDetector()
        run_corpus_program(program, [recorder, live])
        replayed = DeterminacyRaceDetector()
        replay_trace(recorder.trace, [replayed])
        assert replayed.racy_locations == live.racy_locations, program.name


def test_replay_matches_live_run_on_random_programs():
    for seed in range(30):
        prog = random_program(random.Random(seed))
        recorder = TraceRecorder()
        live = DeterminacyRaceDetector()
        run_program(prog, [recorder, live])
        replayed = DeterminacyRaceDetector()
        oracle = BruteForceDetector()
        replay_trace(recorder.trace, [replayed, oracle])
        assert replayed.racy_locations == live.racy_locations, seed
        assert oracle.racy_locations == live.racy_locations, seed


def test_replay_trace_accepts_generator():
    """A one-shot event generator with no ``__len__`` replays like the
    recorded trace it was drawn from."""
    for seed in range(50):
        recorder = TraceRecorder()
        run_program(random_program(random.Random(seed)), [recorder])
        golden = DeterminacyRaceDetector()
        replay_trace(recorder.trace, [golden])
        if golden.report.has_races:
            break
    else:  # pragma: no cover
        raise AssertionError("no racy seed in range")
    det = DeterminacyRaceDetector()
    replay_trace((event for event in recorder.trace), [det])
    assert det.report.summary() == golden.report.summary()


def test_replay_preserves_metrics():
    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1), name="p")
        g = rt.future(lambda: (f.get(), mem.read(0)), name="c")
        g.get()

    recorder = TraceRecorder()
    live = MetricsCollector()
    rt = Runtime(observers=[recorder, live])
    mem = SharedArray(rt, "x", 4)
    rt.run(lambda _rt: prog(rt, mem))

    replayed = MetricsCollector()
    replay_trace(recorder.trace, [replayed])
    assert replayed.snapshot() == live.snapshot()


def test_trace_is_value_like():
    def prog(rt, mem):
        mem.write(1, 2)

    t1, t2 = record(prog), record(prog)
    assert t1.events == t2.events
    assert len(t1) == 1
    assert isinstance(t1.events[0], WriteEvent)


# ---------------------------------------------------------------------- #
# Replay edge cases                                                      #
# ---------------------------------------------------------------------- #
class CallLog:
    """Observer that logs every hook invocation (names + key identifiers)."""

    def __init__(self):
        self.calls = []

    def on_init(self, main):
        self.calls.append(("init", main.tid))

    def on_task_create(self, parent, child):
        self.calls.append(("task_create", parent.tid, child.tid))

    def on_task_end(self, task):
        self.calls.append(("task_end", task.tid))

    def on_get(self, consumer, producer):
        self.calls.append(("get", consumer.tid, producer.tid))

    def on_finish_start(self, scope):
        self.calls.append(("finish_start", scope.fid))

    def on_finish_end(self, scope):
        self.calls.append(("finish_end", scope.fid))

    def on_read(self, task, loc):
        self.calls.append(("read", task.tid, loc))

    def on_write(self, task, loc):
        self.calls.append(("write", task.tid, loc))

    def on_shutdown(self, main):
        self.calls.append(("shutdown", main.tid))


def test_replay_empty_trace_emits_exactly_the_implicit_bracket():
    """An empty trace replays as an empty program: the synthesized
    init/root-finish bracket and nothing else, and no detector state
    leaks out of it."""
    from repro.core.events import Trace
    from repro.testing.generator import Program

    log = CallLog()
    det = DeterminacyRaceDetector()
    replay_trace(Trace(), [log, det])
    assert det.racy_locations == set()
    assert log.calls == [
        ("init", 0),
        ("finish_start", 0),
        ("finish_end", 0),
        ("task_end", 0),
        ("shutdown", 0),
    ]

    # Observer-call parity: a live run of the empty program produces the
    # same hook sequence the replay synthesizes.
    live = CallLog()
    run_program(Program(body=(), num_locs=1), [live])
    assert live.calls == log.calls


def test_replay_trace_ending_mid_finish():
    """A trace truncated inside an open finish scope must still replay:
    races already witnessed in the prefix are reported, and the
    synthesized root finish-end does not trip over the unclosed scope."""
    from repro.core.events import FinishEndEvent, Trace
    from repro.testing.generator import Async, Finish, Program, Read, Write

    program = Program(
        body=(Finish((Async((Write(0),)), Async((Read(0),)))),), num_locs=1
    )
    recorder = TraceRecorder()
    run_program(program, [recorder])
    full = recorder.trace.events
    assert isinstance(full[-1], FinishEndEvent)

    truncated = Trace()
    for event in full[:-1]:  # drop the finish-end: scope never closes
        truncated.append(event)

    det = DeterminacyRaceDetector()
    oracle = BruteForceDetector()
    replay_trace(truncated, [det, oracle])
    assert det.racy_locations == {("x", 0)}
    assert oracle.racy_locations == {("x", 0)}


def test_replay_repeated_get_on_same_producer():
    """Multiple gets on one future (same and different consumers) record
    one GetEvent each and replay to the live verdict."""
    from repro.core.events import GetEvent

    def prog(rt, mem):
        f = rt.future(lambda: mem.write(0, 1))
        f.get()
        mem.read(0)
        f.get()  # idempotent re-join by the same consumer
        g = rt.future(lambda: (f.get(), mem.read(0)))
        g.get()
        mem.write(0, 2)

    recorder = TraceRecorder()
    live = DeterminacyRaceDetector()
    rt = Runtime(observers=[recorder, live])
    mem = SharedArray(rt, "x", 1)
    rt.run(lambda _rt: prog(rt, mem))

    gets = [e for e in recorder.trace if isinstance(e, GetEvent)]
    assert len(gets) == 4
    assert len({(e.consumer, e.producer) for e in gets}) == 3

    replayed = DeterminacyRaceDetector()
    oracle = BruteForceDetector()
    replay_trace(recorder.trace, [replayed, oracle])
    assert replayed.racy_locations == live.racy_locations == set()
    assert oracle.racy_locations == set()
