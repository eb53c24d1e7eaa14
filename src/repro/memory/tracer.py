"""Trace recording and replay.

The paper measures detector overhead by running the same instrumented
program with and without the race-detection library.  We additionally
support *trace replay*: record the instrumentation event stream once, then
feed it to any detector without re-executing the workload.  This isolates
pure detector cost (the quantity Theorem 1 bounds) from workload cost, and
it is how ``benchmarks/bench_detector_comparison.py`` compares our detector
against SP-bags/ESP-bags/vector clocks on identical event streams.

:class:`TraceRecorder` writes the columns of a
:class:`~repro.core.events.Trace` directly from the runtime hooks: a read
or write appends three ints to a plain list (the location interned with
one dict probe, the task index cached while the same task keeps
accessing), and a structure hook appends one tuple.  No event object is
allocated, and the fast checker reads the recorded columns as they are.

Replay walks those columns in one loop and synthesizes lightweight
stand-ins for :class:`Task` and :class:`FinishScope` that carry exactly
the attributes observers consume (``tid``, ``is_future``, ``parent``,
``ief``, ``name``, ``owner``, ``joins``, ``enclosing``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.events import (
    OP_FINISH_START,
    OP_GET,
    OP_TASK_CREATE,
    OP_TASK_END,
    RUN_ACCESS,
    Event,
    ExecutionObserver,
    Trace,
    encode_trace,
)

__all__ = ["TraceRecorder", "replay_trace"]


class TraceRecorder(ExecutionObserver):
    """Observer that records the full event stream into a :class:`Trace`.

    The implicit bracket (main task init/end, root finish start/end,
    shutdown) is *not* recorded — :func:`replay_trace` re-synthesizes it, so
    a recorded trace contains exactly the program's own events.

    With a :class:`repro.obs.provenance.RaceProvenance` attached (the same
    object given to the runtime, whose adapter observer runs first), the
    spawn/get/read/write events additionally carry the provenance call-site
    label (the trace's ``access_sites`` and ``structure_sites`` columns),
    so a replayed trace can attribute races to source sites without
    re-running the program.  Without one both columns stay ``None``.
    """

    def __init__(self, provenance=None) -> None:
        self.trace = Trace()
        self._prov = (
            provenance
            if provenance is not None and getattr(provenance, "enabled", False)
            else None
        )
        # The access hooks write the trace's columns directly.
        self._rows = self.trace._rows
        self._task_index = self.trace.task_index
        self._loc_index = self.trace.loc_index
        self._locs = self.trace.locs
        self._task = None   # task of the last access ...
        self._task_idx = 0  # ... and its dense index

    def _site(self):
        prov = self._prov
        if prov is None:
            return None
        return prov.site_label(prov.current_site)

    def on_task_create(self, parent, child) -> None:
        self.trace.add_task_create(
            parent.tid, child.tid, child.is_future,
            child.ief.fid if child.ief is not None else -1,
            self._site(),
        )

    def on_task_end(self, task) -> None:
        if task.parent is None:
            return  # main's end belongs to the implicit bracket
        self.trace.add_task_end(task.tid)

    def on_get(self, consumer, producer) -> None:
        self.trace.add_get(consumer.tid, producer.tid, self._site())

    def on_finish_start(self, scope) -> None:
        if scope.enclosing is None:
            return  # implicit root finish
        self.trace.add_finish_start(
            scope.fid, scope.owner.tid, scope.enclosing.fid
        )

    def on_finish_end(self, scope) -> None:
        if scope.enclosing is None:
            return  # implicit root finish
        self.trace.add_finish_end(scope.fid)

    def on_read(self, task, loc) -> None:
        if self._prov is not None:
            self.trace.add_access(False, task.tid, loc, self._site())
            return
        if task is not self._task:
            self._task = task
            self._task_idx = self._task_index[task.tid]
        lid = self._loc_index.get(loc)
        if lid is None:
            lid = self._loc_index[loc] = len(self._locs)
            self._locs.append(loc)
        rows = self._rows
        rows.append(0)
        rows.append(self._task_idx)
        rows.append(lid)

    def on_write(self, task, loc) -> None:
        if self._prov is not None:
            self.trace.add_access(True, task.tid, loc, self._site())
            return
        if task is not self._task:
            self._task = task
            self._task_idx = self._task_index[task.tid]
        lid = self._loc_index.get(loc)
        if lid is None:
            lid = self._loc_index[loc] = len(self._locs)
            self._locs.append(loc)
        rows = self._rows
        rows.append(1)
        rows.append(self._task_idx)
        rows.append(lid)


class _ReplayTask:
    """Duck-typed :class:`~repro.runtime.task.Task` stand-in."""

    __slots__ = ("tid", "is_future", "parent", "ief", "name")

    def __init__(self, tid: int, is_future: bool, parent, ief) -> None:
        self.tid = tid
        self.is_future = is_future
        self.parent = parent
        self.ief = ief
        self.name = f"{'future' if is_future else 'task'}#{tid}"


class _ReplayScope:
    """Duck-typed :class:`~repro.runtime.finish.FinishScope` stand-in."""

    __slots__ = ("fid", "owner", "enclosing", "joins")

    def __init__(self, fid: int, owner, enclosing) -> None:
        self.fid = fid
        self.owner = owner
        self.enclosing = enclosing
        self.joins: List[_ReplayTask] = []


def replay_trace(
    trace: Trace | Iterable[Event],
    observers: Sequence[ExecutionObserver],
    *,
    provenance=None,
) -> None:
    """Feed a recorded event stream to ``observers``.

    ``trace`` may be a :class:`~repro.core.events.Trace` or any iterable of
    events.  Replay dispatches straight from the trace's columns in one
    loop, so a non-``Trace`` iterable is first encoded into a ``Trace``
    (:func:`~repro.core.events.encode_trace`): replay no longer streams
    one event at a time, and a one-shot generator is consumed whole before
    the first observer call.

    The replay re-synthesizes the implicit bracket that
    :meth:`Runtime.run` emits: the main task and the root finish at the
    start; root finish end, main's task end, and shutdown at the end.

    ``provenance`` (a :class:`repro.obs.provenance.RaceProvenance`)
    re-adopts the recorded site labels before each access, spawn and get,
    and registers each spawn site, so a detector replaying a
    provenance-recorded trace attributes races exactly as the live run
    would.  Traces recorded without provenance replay with unknown sites.
    """
    trace = encode_trace(trace)
    access = trace.access
    structure = trace.structure
    runs = trace.runs
    task_keys = trace.task_keys
    locs = trace.locs
    access_sites = trace.access_sites
    structure_sites = trace.structure_sites
    read_hooks = [ob.on_read for ob in observers]
    write_hooks = [ob.on_write for ob in observers]
    prov = (
        provenance
        if provenance is not None and getattr(provenance, "enabled", False)
        else None
    )
    note = prov.note_replay_site if prov is not None else None

    main = _ReplayTask(task_keys[0], is_future=False, parent=None, ief=None)
    root = _ReplayScope(0, owner=main, enclosing=None)
    tasks: List[_ReplayTask] = [main]  # dense task index -> stand-in
    scopes: Dict[int, _ReplayScope] = {0: root}

    for ob in observers:
        ob.on_init(main)
    for ob in observers:
        ob.on_finish_start(root)

    a = 0  # next access row
    s = 0  # next structure tuple
    for r in range(0, len(runs), 2):
        count = runs[r + 1]
        if runs[r] == RUN_ACCESS:
            for k in range(a, a + count):
                j = 3 * k
                if note is not None:
                    note(None if access_sites is None else access_sites[k])
                task = tasks[access[j + 1]]
                loc = locs[access[j + 2]]
                for hook in write_hooks if access[j] else read_hooks:
                    hook(task, loc)
            a += count
            continue
        for k in range(s, s + count):
            row = structure[k]
            op = row[0]
            if note is not None and (op == OP_TASK_CREATE or op == OP_GET):
                note(None if structure_sites is None else structure_sites[k])
            if op == OP_TASK_CREATE:
                parent = tasks[row[1]]
                ief = scopes[row[3]] if row[3] >= 0 else None
                child = _ReplayTask(
                    task_keys[len(tasks)], bool(row[2]), parent, ief
                )
                tasks.append(child)
                if prov is not None:
                    prov.spawn_sites[child.tid] = prov.current_site
                if ief is not None:
                    ief.joins.append(child)
                for ob in observers:
                    ob.on_task_create(parent, child)
            elif op == OP_TASK_END:
                task = tasks[row[1]]
                for ob in observers:
                    ob.on_task_end(task)
            elif op == OP_GET:
                consumer, producer = tasks[row[1]], tasks[row[2]]
                for ob in observers:
                    ob.on_get(consumer, producer)
            elif op == OP_FINISH_START:
                enclosing = scopes[row[3]] if row[3] >= 0 else None
                scope = _ReplayScope(row[1], tasks[row[2]], enclosing)
                scopes[row[1]] = scope
                for ob in observers:
                    ob.on_finish_start(scope)
            else:  # OP_FINISH_END
                scope = scopes[row[1]]
                for ob in observers:
                    ob.on_finish_end(scope)
        s += count

    for ob in observers:
        ob.on_finish_end(root)
    for ob in observers:
        ob.on_task_end(main)
        ob.on_shutdown(main)

