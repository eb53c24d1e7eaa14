"""Execution events, the observer interface, and recorded traces.

The paper instruments a running Habanero-Java program so the detector is
invoked "at async, finish and future boundaries, future get operations, and
also on reads and writes to shared memory locations" (Section 5).  We model
that instrumentation as an *event stream*: the serial depth-first runtime
emits one event per boundary, and any number of :class:`ExecutionObserver`
instances consume it.

Observers shipped with this library:

* :class:`repro.core.detector.DeterminacyRaceDetector` — the paper's
  Algorithms 1-10,
* the baselines in :mod:`repro.baselines` (SP-bags, ESP-bags, vector clocks,
  brute force),
* :class:`repro.graph.computation_graph.GraphBuilder` — builds the Section 3
  computation graph (the testing oracle's substrate),
* :class:`repro.harness.metrics.MetricsCollector` — the Table 2 counters,
* :class:`repro.memory.tracer.TraceRecorder` — records the stream into a
  :class:`Trace` that can later be replayed into any observer, which is how
  the detector micro-benchmarks time detection without re-running workloads.

A :class:`Trace` is columnar: the recorder's hooks write integer access
rows, structure tuples and interned location ids straight into it, and
every consumer (the fast checker, replay) reads those columns — there is
no per-event object and no second lowering pass.  The
event dataclasses below remain the vocabulary for hand-built traces
(:meth:`Trace.append`) and what iterating a trace decodes to.

Event identity uses task ids and location keys only, so a recorded trace is
self-contained and replayable in a fresh process.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.finish import FinishScope
    from repro.runtime.task import Task

__all__ = [
    "ExecutionObserver",
    "TaskCreateEvent",
    "TaskEndEvent",
    "GetEvent",
    "FinishStartEvent",
    "FinishEndEvent",
    "ReadEvent",
    "WriteEvent",
    "Event",
    "Trace",
    "encode_trace",
]

#: Type of a shared-memory location key: any hashable value.  The shared
#: wrappers use ``(object_name, index)`` tuples.
LocationKey = Hashable


class ExecutionObserver:
    """Base class for consumers of the instrumentation event stream.

    All hooks default to no-ops so observers override only what they need.
    Hook order for one program run (serial depth-first):

    1. ``on_init(main)`` once, before user code runs.
    2. ``on_task_create(parent, child)`` at each ``async``/``future`` spawn,
       *before* the child's body runs.
    3. child body events (recursively), then ``on_task_end(child)``.
    4. ``on_get(consumer, producer)`` at each ``get()``.
    5. ``on_finish_start(scope)`` / ``on_finish_end(scope)`` around scopes;
       ``on_finish_end`` fires after every task registered to the scope has
       ended.
    6. ``on_read(task, loc)`` / ``on_write(task, loc)`` at shared accesses.
    7. ``on_shutdown(main)`` once, after the implicit root finish closes.
    """

    def on_init(self, main: "Task") -> None: ...

    def on_task_create(self, parent: "Task", child: "Task") -> None: ...

    def on_task_end(self, task: "Task") -> None: ...

    def on_get(self, consumer: "Task", producer: "Task") -> None: ...

    def on_finish_start(self, scope: "FinishScope") -> None: ...

    def on_finish_end(self, scope: "FinishScope") -> None: ...

    def on_read(self, task: "Task", loc: LocationKey) -> None: ...

    def on_write(self, task: "Task", loc: LocationKey) -> None: ...

    def on_shutdown(self, main: "Task") -> None: ...


# ---------------------------------------------------------------------- #
# Recorded-event dataclasses                                             #
#
# ``site`` is the optional provenance call-site label (``file:line
# (function)``) recorded when a :class:`repro.obs.provenance.RaceProvenance`
# is attached to the recorder.  It defaults to ``None`` so traces recorded
# without provenance — and the codec — are unchanged; traces pickled before
# the field existed lack the attribute entirely, so readers must use
# ``getattr(event, "site", None)``.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class TaskCreateEvent:
    parent: int          #: tid of the spawning task
    child: int           #: tid of the new task
    is_future: bool      #: TaskKind of the child
    ief: int             #: fid of the child's immediately enclosing finish
    site: Optional[str] = None


@dataclass(frozen=True, slots=True)
class TaskEndEvent:
    task: int


@dataclass(frozen=True, slots=True)
class GetEvent:
    consumer: int
    producer: int
    site: Optional[str] = None


@dataclass(frozen=True, slots=True)
class FinishStartEvent:
    fid: int
    owner: int
    enclosing: int  #: fid of the enclosing scope; -1 for the root finish


@dataclass(frozen=True, slots=True)
class FinishEndEvent:
    fid: int


@dataclass(frozen=True, slots=True)
class ReadEvent:
    task: int
    loc: LocationKey
    site: Optional[str] = None


@dataclass(frozen=True, slots=True)
class WriteEvent:
    task: int
    loc: LocationKey
    site: Optional[str] = None


Event = Union[
    TaskCreateEvent,
    TaskEndEvent,
    GetEvent,
    FinishStartEvent,
    FinishEndEvent,
    ReadEvent,
    WriteEvent,
]


# ---------------------------------------------------------------------- #
# Recorded traces: integer columns                                       #
#
# A :class:`Trace` stores the stream in the flat form the checkers
# consume, so the fast checker (:mod:`repro.core.fastcheck`) and
# :func:`repro.memory.tracer.replay_trace` iterate it without touching a
# Python object per event, and nothing lowers it a second time:
#
# * task ids are renumbered to *dense indices* in creation order (main
#   task = index 0, each task creation appends the next index) — the same
#   order in which an :class:`~repro.core.array_dtrg.ArrayDTRG` allocates
#   slots, so access rows can be consumed with zero lookups;
# * location keys are interned to dense ids (``locs[loc_id]`` recovers
#   the original key for race reports);
# * access events become 3-wide rows ``(is_write, task_idx, loc_id)``;
#   structure events (rare) stay as small tuples;
# * the stream is run-length segmented into alternating access/structure
#   runs, so a decoder dispatches once per *block* instead of once per
#   event and can time the structure and access phases separately.
# ---------------------------------------------------------------------- #

#: Structure-event opcodes used in :attr:`Trace.structure` tuples.
OP_TASK_CREATE = 2
OP_TASK_END = 3
OP_GET = 4
OP_FINISH_START = 5
OP_FINISH_END = 6

#: Run kinds in :attr:`Trace.runs` (flat ``(kind, count)`` pairs).
RUN_ACCESS = 0
RUN_STRUCTURE = 1


class Trace:
    """A recorded instrumentation stream, stored as integer columns.

    The implicit init/shutdown bracket is not part of the stream; replay
    re-synthesizes it.  A trace is written by
    :class:`~repro.memory.tracer.TraceRecorder`'s hooks, or event by event
    through :meth:`append` (``Trace(events)`` appends each of ``events``).
    Iterating it decodes the columns back to the event dataclasses above,
    lazily, with the original tids, location keys and sites; ``len``,
    :meth:`counts`, ``==`` (column for column) and pickling work on the
    columns.

    Attributes
    ----------
    access:
        ``array('q')`` of 3-wide rows ``(is_write, task_idx, loc_id)``,
        one row per read/write event, in stream order.
    structure:
        list of tuples, one per structure event, in stream order:
        ``(OP_TASK_CREATE, parent_idx, is_future, ief)`` (the child index
        is implicit — indices are assigned in creation order),
        ``(OP_TASK_END, task_idx)``, ``(OP_GET, consumer_idx,
        producer_idx)``, ``(OP_FINISH_START, fid, owner_idx, enclosing)``,
        ``(OP_FINISH_END, fid)``.
    runs:
        ``array('q')`` of flat ``(kind, count)`` pairs segmenting the
        stream into maximal same-kind runs (``RUN_ACCESS`` counts access
        rows, ``RUN_STRUCTURE`` counts structure tuples).
    task_keys:
        dense task index -> original tid (``task_keys[0]`` is the main
        task's tid, 0 by replay convention); ``task_index`` is the inverse.
    is_future:
        ``bytearray`` flag per dense task index (main task -> 0).
    locs:
        dense loc id -> original location key; ``loc_index`` is the
        inverse.
    access_sites:
        ``None`` when no access event carries a provenance site, else a
        list aligned with access-row ordinals (``site`` of row ``k``).
    structure_sites:
        the same for structure events, aligned with :attr:`structure`
        (only task creations and gets carry a site).
    """

    __slots__ = (
        "_rows", "_access", "access_sites", "_marks", "structure",
        "structure_sites", "task_keys", "task_index", "is_future", "locs",
        "loc_index",
    )

    __hash__ = None  # mutable value object

    def __init__(self, events: Iterable[Event] = ()) -> None:
        #: Access rows not yet moved into ``_access``.  Writers append
        #: plain ints here (a list append is several times cheaper than an
        #: ``array('q')`` one); every read of :attr:`access` moves them.
        self._rows: List[int] = []
        self._access = array("q")
        self.access_sites: Optional[List[Optional[str]]] = None
        #: Access rows recorded before each structure event, aligned with
        #: ``structure``; :attr:`runs` is derived from it.
        self._marks: List[int] = []
        self.structure: List[tuple] = []
        self.structure_sites: Optional[List[Optional[str]]] = None
        self.task_keys: List[int] = [0]
        self.task_index: Dict[int, int] = {0: 0}
        self.is_future = bytearray(1)
        self.locs: List[LocationKey] = []
        self.loc_index: Dict[LocationKey, int] = {}
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------ #
    # Row writers.  Task arguments are original tids; a tid referenced
    # before its creation (possible only in hand-built traces) raises
    # ``KeyError`` and writes nothing.
    # ------------------------------------------------------------------ #
    def add_access(self, is_write: bool, task: int, loc: LocationKey,
                   site: Optional[str] = None) -> None:
        task_idx = self.task_index[task]
        lid = self.loc_index.get(loc)
        if lid is None:
            lid = self.loc_index[loc] = len(self.locs)
            self.locs.append(loc)
        if site is not None or self.access_sites is not None:
            if self.access_sites is None:
                self.access_sites = [None] * self.num_access_events
            self.access_sites.append(site)
        self._rows += (1 if is_write else 0, task_idx, lid)

    def _add_structure(self, row: tuple, site: Optional[str] = None) -> None:
        if site is not None or self.structure_sites is not None:
            if self.structure_sites is None:
                self.structure_sites = [None] * len(self.structure)
            self.structure_sites.append(site)
        self._marks.append(self.num_access_events)
        self.structure.append(row)

    def add_task_create(self, parent: int, child: int, is_future: bool,
                        ief: int, site: Optional[str] = None) -> None:
        flag = 1 if is_future else 0
        self._add_structure(
            (OP_TASK_CREATE, self.task_index[parent], flag, ief), site
        )
        self.task_index[child] = len(self.task_keys)
        self.task_keys.append(child)
        self.is_future.append(flag)

    def add_task_end(self, task: int) -> None:
        self._add_structure((OP_TASK_END, self.task_index[task]))

    def add_get(self, consumer: int, producer: int,
                site: Optional[str] = None) -> None:
        index = self.task_index
        self._add_structure((OP_GET, index[consumer], index[producer]), site)

    def add_finish_start(self, fid: int, owner: int, enclosing: int) -> None:
        self._add_structure(
            (OP_FINISH_START, fid, self.task_index[owner], enclosing)
        )

    def add_finish_end(self, fid: int) -> None:
        self._add_structure((OP_FINISH_END, fid))

    def append(self, event: Event) -> None:
        """Write one event through the row writer for its type."""
        tp = type(event)
        # Events pickled before the ``site`` field existed lack it.
        if tp is ReadEvent or tp is WriteEvent:
            self.add_access(tp is WriteEvent, event.task, event.loc,
                            getattr(event, "site", None))
        elif tp is TaskCreateEvent:
            self.add_task_create(event.parent, event.child, event.is_future,
                                 event.ief, getattr(event, "site", None))
        elif tp is TaskEndEvent:
            self.add_task_end(event.task)
        elif tp is GetEvent:
            self.add_get(event.consumer, event.producer,
                         getattr(event, "site", None))
        elif tp is FinishStartEvent:
            self.add_finish_start(event.fid, event.owner, event.enclosing)
        elif tp is FinishEndEvent:
            self.add_finish_end(event.fid)
        else:
            raise TypeError(f"unknown event type: {event!r}")

    # ------------------------------------------------------------------ #
    # Readers                                                            #
    # ------------------------------------------------------------------ #
    @property
    def access(self) -> array:
        rows = self._rows
        if rows:
            self._access.fromlist(rows)
            rows.clear()  # in place: the recorder holds this list
        return self._access

    @property
    def runs(self) -> array:
        runs: List[int] = []
        done = 0  # access rows covered by ``runs`` so far
        for mark in self._marks:
            if mark > done:
                runs += (RUN_ACCESS, mark - done, RUN_STRUCTURE, 1)
                done = mark
            elif runs:
                runs[-1] += 1  # the last run is a structure run
            else:
                runs += (RUN_STRUCTURE, 1)
        total = self.num_access_events
        if total > done:
            runs += (RUN_ACCESS, total - done)
        return array("q", runs)

    @property
    def num_access_events(self) -> int:
        return (len(self._access) + len(self._rows)) // 3

    @property
    def num_structure_events(self) -> int:
        return len(self.structure)

    @property
    def num_tasks(self) -> int:
        return len(self.task_keys)

    @property
    def num_locations(self) -> int:
        return len(self.locs)

    def __len__(self) -> int:
        return self.num_access_events + len(self.structure)

    def __iter__(self) -> Iterator[Event]:
        keys = self.task_keys
        sites = self.structure_sites
        created = 0
        start = 0
        for s, (stop, row) in enumerate(zip(self._marks, self.structure)):
            yield from self._access_events(start, stop)
            start = stop
            site = None if sites is None else sites[s]
            op = row[0]
            if op == OP_TASK_CREATE:
                created += 1
                yield TaskCreateEvent(
                    parent=keys[row[1]], child=keys[created],
                    is_future=bool(row[2]), ief=row[3], site=site,
                )
            elif op == OP_TASK_END:
                yield TaskEndEvent(task=keys[row[1]])
            elif op == OP_GET:
                yield GetEvent(
                    consumer=keys[row[1]], producer=keys[row[2]], site=site
                )
            elif op == OP_FINISH_START:
                yield FinishStartEvent(
                    fid=row[1], owner=keys[row[2]], enclosing=row[3]
                )
            else:
                yield FinishEndEvent(fid=row[1])
        yield from self._access_events(start, self.num_access_events)

    def _access_events(self, start: int, stop: int) -> Iterator[Event]:
        access = self.access
        sites = self.access_sites
        keys = self.task_keys
        locs = self.locs
        for k in range(start, stop):
            j = 3 * k
            yield (WriteEvent if access[j] else ReadEvent)(
                task=keys[access[j + 1]], loc=locs[access[j + 2]],
                site=None if sites is None else sites[k],
            )

    @property
    def events(self) -> List[Event]:
        """The decoded event list (a new list on every access)."""
        return list(self)

    def counts(self) -> Tuple[int, int, int]:
        """Return ``(num_tasks_created, num_gets, num_accesses)`` — a quick
        sanity fingerprint used by tests."""
        gets = sum(1 for row in self.structure if row[0] == OP_GET)
        return len(self.task_keys) - 1, gets, self.num_access_events

    def _columns(self) -> dict:
        return {
            "access": self.access,
            "access_sites": self.access_sites,
            "marks": self._marks,
            "structure": self.structure,
            "structure_sites": self.structure_sites,
            "task_keys": self.task_keys,
            "is_future": self.is_future,
            "locs": self.locs,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:
        return (f"<Trace: {len(self)} events, {self.num_access_events} "
                f"accesses, {self.num_tasks} tasks, "
                f"{self.num_locations} locations>")

    # ------------------------------------------------------------------ #
    # Persistence: traces are self-contained (ids + location keys only),
    # so a pickled trace recorded once can be replayed into any detector
    # in a fresh process — how the benchmark suites share inputs.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return self._columns()

    def __setstate__(self, state: dict) -> None:
        if "events" in state:
            # Pickled by the event-list Trace of earlier versions.
            Trace.__init__(self, state["events"])
            return
        Trace.__init__(self)
        self._access = state["access"]
        self.access_sites = state["access_sites"]
        self._marks = state["marks"]
        self.structure = state["structure"]
        self.structure_sites = state["structure_sites"]
        self.task_keys = state["task_keys"]
        self.task_index = {key: i for i, key in enumerate(self.task_keys)}
        self.is_future = state["is_future"]
        self.locs = state["locs"]
        self.loc_index = {loc: i for i, loc in enumerate(self.locs)}

    def save(self, path) -> None:
        """Pickle the trace to ``path``."""
        import pickle

        with open(path, "wb") as fh:
            pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def load(path) -> "Trace":
        """Load a trace previously written by :meth:`save`, including one
        pickled as an event list by earlier versions (re-encoded on load).

        Only unpickle traces you created yourself — pickle executes code.
        """
        import pickle

        with open(path, "rb") as fh:
            trace = pickle.load(fh)
        if not isinstance(trace, Trace):
            raise TypeError(f"{path} does not contain a Trace")
        return trace


def encode_trace(events: Iterable[Event]) -> Trace:
    """``events`` as a :class:`Trace`: a trace is returned as is, any other
    event iterable is written through :meth:`Trace.append`.

    Unknown task ids referenced before their ``TaskCreateEvent`` (possible
    only in hand-built traces) raise ``KeyError``, matching replay.
    """
    if isinstance(events, Trace):
        return events
    return Trace(events)
