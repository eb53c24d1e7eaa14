"""Columnar traces round-trip through their event form, under fuzzing.

:class:`~repro.memory.tracer.TraceRecorder` writes a trace's integer
columns straight from the runtime hooks.  Two properties pin it to the
event vocabulary, over the regression corpora and 200 generated programs:

1. **Decoding** — iterating the recorded trace yields exactly the events a
   plain event-logging observer (:class:`EventLog`, the event-object
   recorder kept here as the reference) sees during the same run: same
   tids, location keys and provenance sites.
2. **Encoding** — ``encode_trace(list(trace))`` rebuilds the recorded
   trace column for column.
"""

import random
from pathlib import Path

import pytest

from repro.core.events import (
    ExecutionObserver,
    FinishEndEvent,
    FinishStartEvent,
    GetEvent,
    ReadEvent,
    TaskCreateEvent,
    TaskEndEvent,
    Trace,
    WriteEvent,
    encode_trace,
)
from repro.memory.tracer import TraceRecorder
from repro.obs import RaceProvenance
from repro.testing.generator import random_program, run_program
from repro.testing.programs import CORPUS, run_corpus_program
from repro.tools.fuzz import load_corpus

NUM_SEEDS = 200
BAND = 50
#: Every this-many seeds also records with provenance sites.
PROVENANCE_EVERY = 5
CORPUS_ENTRIES = load_corpus(
    Path(__file__).resolve().parents[1] / "corpus"
)
COLUMNS = (
    "access", "structure", "runs", "task_keys", "is_future", "locs",
    "access_sites", "structure_sites",
)


class EventLog(ExecutionObserver):
    """Reference recorder: one event object per hook, in hook order."""

    def __init__(self, provenance=None) -> None:
        self.events = []
        self._prov = provenance

    def _site(self):
        prov = self._prov
        return None if prov is None else prov.site_label(prov.current_site)

    def on_task_create(self, parent, child) -> None:
        self.events.append(TaskCreateEvent(
            parent=parent.tid, child=child.tid, is_future=child.is_future,
            ief=child.ief.fid if child.ief is not None else -1,
            site=self._site(),
        ))

    def on_task_end(self, task) -> None:
        if task.parent is not None:
            self.events.append(TaskEndEvent(task=task.tid))

    def on_get(self, consumer, producer) -> None:
        self.events.append(GetEvent(
            consumer=consumer.tid, producer=producer.tid, site=self._site(),
        ))

    def on_finish_start(self, scope) -> None:
        if scope.enclosing is not None:
            self.events.append(FinishStartEvent(
                fid=scope.fid, owner=scope.owner.tid,
                enclosing=scope.enclosing.fid,
            ))

    def on_finish_end(self, scope) -> None:
        if scope.enclosing is not None:
            self.events.append(FinishEndEvent(fid=scope.fid))

    def on_read(self, task, loc) -> None:
        self.events.append(ReadEvent(task=task.tid, loc=loc,
                                     site=self._site()))

    def on_write(self, task, loc) -> None:
        self.events.append(WriteEvent(task=task.tid, loc=loc,
                                      site=self._site()))


def _assert_round_trip(trace: Trace, events: list, label) -> None:
    assert list(trace) == events, f"{label}: decoded events diverge"
    again = encode_trace(list(trace))
    for column in COLUMNS:
        assert getattr(again, column) == getattr(trace, column), (
            f"{label}: column {column} diverges after re-encoding"
        )
    assert again == trace
    assert len(trace) == len(events)


def _record(run, provenance=None):
    recorder = TraceRecorder(provenance=provenance)
    log = EventLog(provenance)
    run([recorder, log])
    return recorder.trace, log.events


@pytest.mark.parametrize("band", range(0, NUM_SEEDS, BAND))
def test_round_trip_generated_programs(band):
    with_sites = 0
    for seed in range(band, band + BAND):
        program = random_program(random.Random(seed))
        prov = RaceProvenance() if seed % PROVENANCE_EVERY == 0 else None
        trace, events = _record(
            lambda obs: run_program(program, obs, provenance=prov), prov
        )
        _assert_round_trip(trace, events, f"seed {seed}")
        with_sites += trace.access_sites is not None
    # The provenance seeds must actually carry sites, or property 1 says
    # nothing about the site columns.
    assert with_sites > 0


@pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
def test_round_trip_paper_corpus(program):
    trace, events = _record(lambda obs: run_corpus_program(program, obs))
    _assert_round_trip(trace, events, program.name)


@pytest.mark.parametrize("entry", CORPUS_ENTRIES, ids=lambda e: e.name)
def test_round_trip_regression_corpus(entry):
    trace, events = _record(lambda obs: run_program(entry.program, obs))
    _assert_round_trip(trace, events, entry.name)
