"""The integer access kernel, online and over a recorded trace.

:class:`AccessKernel` is the one copy of Algorithms 8-9 over integer ids:
compact integer-indexed shadow state plus a live
:class:`~repro.core.array_dtrg.ArrayDTRG`, checked one access at a time
through two closures, ``read_idx(task, lid)`` and ``write_idx(task,
lid)`` (dense task index, interned location id).  Two drivers share it:

* ``DeterminacyRaceDetector()`` (``engine="array"``, the default) calls
  the closures from its ``on_read``/``on_write`` hooks *during* the run;
* :func:`check_trace_fast` replays a recorded
  :class:`~repro.core.events.Trace` through them: *structure* blocks
  mutate the DTRG in place, *access* blocks feed the rows to the
  closures.  The graph is mutated in trace order, so every access is
  checked against the DTRG as it stood at that access, never against the
  finished graph (which would hide races, see ``docs/ALGORITHM.md``
  §12).

The shadow state is the structure-of-arrays form of
:class:`~repro.core.shadow.ShadowMemory`'s cells, indexed by location id:

* ``writers[loc]`` — last writing task index (``-1`` none),
* ``readers[loc]`` — retained parallel-reader index list (``None`` until
  first read; at most one plain-async member plus every future-covered
  member, exactly the Lemma 4 policy),
* ``fast_reader[loc]`` / ``fast_epoch[loc]`` — the epoch-memoized
  same-task read fast path.

Equivalence contract (pinned by
``tests/properties/test_array_equivalence.py``, the golden tests and the
``dtrg[array]`` / ``dtrg[fast]`` fuzz rows): race list, detection order,
``RaceReport.summary()``, ``#AvgReaders`` and the invariant
``DetectorPerf`` counters (``precede_queries``, ``mutation_epoch``,
``shadow_fast_hits``, ``precede_calls_saved``) are bit-identical to the
object-graph detector (``engine="object"``); ``cache_*`` report 0
because the array engine runs cache-less (verdict-cache hit counts are
physical-root-identity-sensitive, see :mod:`repro.core.array_dtrg`).

The trace's run-length segments (:attr:`~repro.core.events.Trace.runs`)
do double duty in the replay: dispatch is amortized over whole blocks
(the access loop never tests event *types*), and the per-phase
wall-clock split the bench surfaces (``structure_seconds`` vs
``access_seconds``) falls out of timestamping block boundaries instead
of single events.

Provenance sites recorded in the trace ride along: races carry the two
accesses' site labels exactly like a detector replaying the trace with
provenance attached (witness *certificates* are object-engine-only).
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.array_dtrg import ArrayDTRG
from repro.core.events import (
    OP_FINISH_END,
    OP_FINISH_START,
    OP_GET,
    OP_TASK_CREATE,
    OP_TASK_END,
    RUN_ACCESS,
    Event,
    Trace,
    encode_trace,
)
from repro.core.races import AccessKind, Race, RaceReport

__all__ = ["AccessKernel", "FastCheckResult", "check_trace_fast"]

_KIND = {
    "read-write": AccessKind.READ_WRITE,
    "write-write": AccessKind.WRITE_WRITE,
    "write-read": AccessKind.WRITE_READ,
}


class AccessKernel:
    """Algorithms 8-9 over integer ids on a live :class:`ArrayDTRG`.

    ``report(kind, prev_idx, cur_idx, lid)`` is the race sink; it may
    raise (``--policy raise``) and abort the check like the object
    engine's.  Each location gets its shadow cell before its first access:
    one at a time from ``add_location()``, in bulk from
    :meth:`add_locations`.  The counter attributes mirror
    :class:`~repro.core.shadow.ShadowMemory`'s, so a detector exposes the
    kernel as its ``shadow``.
    """

    __slots__ = (
        "dtrg", "writers", "readers", "fast_reader", "fast_epoch",
        "read_idx", "write_idx", "add_location", "_counts",
    )

    def __init__(self, report: Callable[[str, int, int, int], None]) -> None:
        dtrg = self.dtrg = ArrayDTRG()
        writers: List[int] = []
        readers: List[Optional[list]] = []
        fast_reader: List[int] = []
        fast_epoch: List[int] = []
        self.writers = writers
        self.readers = readers
        self.fast_reader = fast_reader
        self.fast_epoch = fast_epoch
        covered = dtrg.covered
        precede = dtrg.precede_idx
        n_acc = 0
        total_readers = 0
        fast_read = 0
        fast_write = 0
        saved = 0

        def write_idx(task: int, lid: int) -> None:
            """Algorithm 8."""
            nonlocal n_acc, total_readers, fast_write, saved
            n_acc += 1
            rl = readers[lid]
            w = writers[lid]
            fast_reader[lid] = -1
            if rl:
                nr = len(rl)
                total_readers += nr
                surviving = None
                vw = -1  # the writer's verdict if the writer also read
                for i in range(nr):
                    x = rl[i]
                    v = precede(x, task)
                    if x == w:
                        vw = 1 if v else 0
                    if v:
                        if surviving is None:
                            surviving = rl[:i]
                    else:
                        report("read-write", x, task, lid)
                        if surviving is not None:
                            surviving.append(x)
                if surviving is not None:
                    readers[lid] = surviving
                if w >= 0 and w != task:
                    if vw >= 0:
                        saved += 1
                        v = vw
                    else:
                        v = precede(w, task)
                    if not v:
                        report("write-write", w, task, lid)
            elif w < 0 or w == task:
                # Structural fast path: empty reader loop + skipped or
                # reflexive writer check.
                fast_write += 1
            elif not precede(w, task):
                report("write-write", w, task, lid)
            writers[lid] = task

        def read_idx(task: int, lid: int) -> None:
            """Algorithm 9."""
            nonlocal n_acc, total_readers, fast_read, saved
            n_acc += 1
            rl = readers[lid]
            w = writers[lid]
            if rl:
                nr = len(rl)
                total_readers += nr
                if (w < 0 or w == task) and nr == 1 and rl[0] == task:
                    # Structural fast path: sole-self reader, reflexive
                    # retire-and-reappend.
                    fast_read += 1
                    saved += 1
                    return
                if (fast_reader[lid] == task
                        and fast_epoch[lid] == dtrg.mutation_epoch):
                    # Epoch memo: pure replay of this task's last clean
                    # check against an unmutated DTRG.
                    fast_read += 1
                    saved += nr + (0 if w < 0 or w == task else 1)
                    return
                update = False
                tif = covered[task]
                surviving = None
                for i in range(nr):
                    x = rl[i]
                    if precede(x, task):
                        update = True
                        if surviving is None:
                            surviving = rl[:i]
                        continue
                    if tif or covered[x]:
                        update = True
                    if surviving is not None:
                        surviving.append(x)
                if surviving is not None:
                    readers[lid] = rl = surviving
            elif w < 0 or w == task:
                # Structural fast path: first reader, no writer check
                # (deviation: always record the first reader).
                fast_read += 1
                if rl is None:
                    readers[lid] = [task]
                else:
                    rl.append(task)
                return
            elif (fast_reader[lid] == task
                    and fast_epoch[lid] == dtrg.mutation_epoch):
                fast_read += 1
                saved += 1  # the skipped writer check
                return
            else:
                update = True  # deviation: record the first reader
            raced = False
            if w >= 0 and w != task and not precede(w, task):
                report("write-read", w, task, lid)
                raced = True
            if update and (rl is None or task not in rl):
                if rl is None:
                    readers[lid] = [task]
                else:
                    rl.append(task)
            if raced:
                fast_reader[lid] = -1
            else:
                fast_reader[lid] = task
                fast_epoch[lid] = dtrg.mutation_epoch

        def counts() -> tuple:
            return n_acc, total_readers, fast_read + fast_write, saved

        # Bound appends: the online driver adds one cell per new location.
        add_writer, add_readers = writers.append, readers.append
        add_fast_reader, add_fast_epoch = fast_reader.append, fast_epoch.append

        def add_location() -> None:
            add_writer(-1)
            add_readers(None)
            add_fast_reader(-1)
            add_fast_epoch(-1)

        self.read_idx = read_idx
        self.write_idx = write_idx
        self.add_location = add_location
        self._counts = counts

    def add_locations(self, n: int) -> None:
        """Append ``n`` fresh shadow cells (ids ``num_locations`` on)."""
        self.writers.extend([-1] * n)
        self.readers.extend([None] * n)
        self.fast_reader.extend([-1] * n)
        self.fast_epoch.extend([-1] * n)

    # ------------------------------------------------------------------ #
    # ShadowMemory-compatible counters                                   #
    # ------------------------------------------------------------------ #
    @property
    def num_accesses(self) -> int:
        return self._counts()[0]

    @property
    def total_readers_seen(self) -> int:
        return self._counts()[1]

    @property
    def num_fast_path_hits(self) -> int:
        """Accesses resolved without running the full Algorithm 8/9 body."""
        return self._counts()[2]

    @property
    def num_precede_calls_saved(self) -> int:
        return self._counts()[3]

    @property
    def num_locations(self) -> int:
        return len(self.writers)

    @property
    def avg_readers(self) -> float:
        """Paper's ``#AvgReaders`` (see :attr:`ShadowMemory.avg_readers`)."""
        n_acc, total = self._counts()[:2]
        return total / n_acc if n_acc else 0.0


class FastCheckResult:
    """Outcome of :func:`check_trace_fast`, duck-typed like a
    :class:`~repro.core.detector.DeterminacyRaceDetector` where the
    harness/CLI consume it (``report``, ``races``, ``racy_locations``,
    ``perf_stats``, ``avg_readers``, ``summary()``), plus the live
    :class:`ArrayDTRG` (``dtrg``) for introspection."""

    #: Counters, 0 until :func:`check_trace_fast` fills them in.
    num_tasks = num_events = num_access_events = num_structure_events = 0
    num_locations = num_visits = num_non_tree_edges = num_tree_merges = 0
    mutation_epoch = num_precede_queries = shadow_fast_hits = 0
    precede_calls_saved = num_accesses = 0
    avg_readers = 0.0

    def __init__(self) -> None:
        self.report = RaceReport(dedupe=True)
        self.dtrg: Optional[ArrayDTRG] = None
        #: ``encode_seconds`` (encoding an event iterable; a
        #: :class:`~repro.core.events.Trace` needs none),
        #: ``structure_seconds`` (DTRG mutation blocks), ``access_seconds``
        #: (shadow check blocks), ``total_seconds``.
        self.timings: Dict[str, float] = {}

    @property
    def races(self):
        return self.report.races

    @property
    def racy_locations(self):
        return self.report.racy_locations

    @property
    def events_per_second(self) -> float:
        total = self.timings.get("total_seconds", 0.0)
        return self.num_events / total if total > 0 else 0.0

    @property
    def access_events_per_second(self) -> float:
        """Throughput of the access-check phase alone."""
        secs = self.timings.get("access_seconds", 0.0)
        return self.num_access_events / secs if secs > 0 else 0.0

    @property
    def perf_stats(self) -> dict:
        """Same keys as ``DeterminacyRaceDetector.perf_stats``; the
        ``cache_*`` columns are 0 by construction (cache-less engine)."""
        return {
            "precede_queries": self.num_precede_queries,
            "mutation_epoch": self.mutation_epoch,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_invalidations": 0,
            "cache_hit_rate": 0.0,
            "shadow_fast_hits": self.shadow_fast_hits,
            "precede_calls_saved": self.precede_calls_saved,
        }

    def summary(self) -> str:
        return self.report.summary()


def check_trace_fast(
    trace: "Trace | Iterable[Event]",
    *,
    names: Optional[Dict[int, str]] = None,
    progress=None,
) -> FastCheckResult:
    """Check a recorded trace in one pass (see module docstring).

    Parameters
    ----------
    trace:
        A :class:`~repro.core.events.Trace`, or any event iterable
        (encoded first; the encode time is reported separately in
        ``timings``).
    names:
        Optional tid -> display-name map; defaults to the replay
        convention ``task#<tid>`` / ``future#<tid>``.
    progress:
        Optional :class:`repro.obs.live.ProgressCounter`.  Bumped once
        per run-length *block* (never per event) so live telemetry costs
        nothing measurable on the hot path; ``None`` (default) keeps the
        function byte-identical to the untelemetered build.
    """
    t0 = perf_counter()
    enc = encode_trace(trace)
    t_enc = perf_counter()

    task_keys = enc.task_keys
    n_tasks = len(task_keys)
    # Display names, replay convention; Race construction reads these.
    names_list: List[str] = []
    for i in range(n_tasks):
        key = task_keys[i]
        name = names.get(key) if names else None
        if name is None:
            name = (
                f"future#{key}" if enc.is_future[i] else f"task#{key}"
            )
        names_list.append(name)

    report = FastCheckResult()
    add_race = report.report.add
    locs = enc.locs
    sites = enc.access_sites
    read_sites: Dict[int, Dict[int, Optional[str]]] = {}
    write_sites: Dict[int, tuple] = {}
    row = -1  # access row being checked; read by _report for its site

    def _report(kind: str, prev: int, cur: int, lid: int) -> None:
        # Rare path: build the Race exactly as the sequential detector
        # would, with the sites a provenance-attached replay would adopt.
        if sites is None:
            prev_site = current_site = None
        else:
            if kind == "read-write":
                prev_site = read_sites.get(lid, {}).get(prev)
            else:
                ws = write_sites.get(lid)
                prev_site = ws[1] if ws is not None and ws[0] == prev else None
            current_site = sites[row]
        add_race(Race(
            loc=locs[lid],
            kind=_KIND[kind],
            prev_task=task_keys[prev],
            current_task=task_keys[cur],
            prev_name=names_list[prev],
            current_name=names_list[cur],
            prev_site=prev_site,
            current_site=current_site,
        ))
        if progress is not None:
            progress.add_races(1)

    kernel = AccessKernel(_report)
    kernel.add_locations(enc.num_locations)
    read, write = kernel.read_idx, kernel.write_idx
    dtrg = report.dtrg = kernel.dtrg
    dtrg.add_root_idx(task_keys[0])
    add_task_idx = dtrg.add_task_idx
    on_terminate_idx = dtrg.on_terminate_idx
    record_join_idx = dtrg.record_join_idx
    merge_idx = dtrg.merge_idx
    #: fid -> [owner_idx, join_idx_list] (root finish 0 owned by main).
    scopes: Dict[int, list] = {0: [0, []]}

    acc = iter(enc.access)
    rows = zip(acc, acc, acc)  # (is_write, task_idx, loc_id)
    structure = enc.structure
    runs = enc.runs
    structure_seconds = 0.0
    access_seconds = 0.0

    if progress is not None:
        progress.set_total(len(enc))

    si = 0  # next structure tuple index
    for ri in range(0, len(runs), 2):
        n_run = runs[ri + 1]
        if progress is not None:
            progress.add(n_run)
        t_blk = perf_counter()
        if runs[ri] == RUN_ACCESS:
            if sites is None:
                for is_write, task, lid in islice(rows, n_run):
                    if is_write:
                        write(task, lid)
                    else:
                        read(task, lid)
            else:
                # Provenance-recorded trace: retain each stored access's
                # site after its check, as ShadowMemory.attach_provenance
                # does, so a race sees the sites of the earlier accesses.
                for is_write, task, lid in islice(rows, n_run):
                    row += 1
                    if is_write:
                        write(task, lid)
                        write_sites[lid] = (task, sites[row])
                    else:
                        read(task, lid)
                        read_sites.setdefault(lid, {})[task] = sites[row]
            access_seconds += perf_counter() - t_blk
        else:
            for t in structure[si:si + n_run]:
                op = t[0]
                if op == OP_GET:
                    record_join_idx(t[1], t[2])
                elif op == OP_TASK_CREATE:
                    child = add_task_idx(t[1], bool(t[2]),
                                         task_keys[len(dtrg.uf)])
                    if t[3] >= 0:
                        scopes[t[3]][1].append(child)
                elif op == OP_TASK_END:
                    on_terminate_idx(t[1])
                elif op == OP_FINISH_START:
                    scopes[t[1]] = [t[2], []]
                else:  # OP_FINISH_END
                    owner, joins = scopes[t[1]]
                    for tid in joins:
                        merge_idx(owner, tid)
            si += n_run
            structure_seconds += perf_counter() - t_blk

    # Implicit closing bracket: root finish end, then main terminates
    # (mirrors replay_trace).
    t_blk = perf_counter()
    owner, joins = scopes[0]
    for tid in joins:
        merge_idx(owner, tid)
    on_terminate_idx(0)
    structure_seconds += perf_counter() - t_blk

    t_done = perf_counter()
    report.num_tasks = n_tasks
    report.num_access_events = enc.num_access_events
    report.num_structure_events = enc.num_structure_events
    report.num_events = len(enc)
    report.num_locations = enc.num_locations
    report.num_visits = dtrg.num_visits
    report.num_non_tree_edges = dtrg.num_non_tree_edges
    report.num_tree_merges = dtrg.num_tree_merges
    report.mutation_epoch = dtrg.mutation_epoch
    report.num_precede_queries = dtrg.num_precede_queries
    report.shadow_fast_hits = kernel.num_fast_path_hits
    report.precede_calls_saved = kernel.num_precede_calls_saved
    report.num_accesses = kernel.num_accesses
    report.avg_readers = kernel.avg_readers
    report.timings = {
        "encode_seconds": t_enc - t0,
        "structure_seconds": structure_seconds,
        "access_seconds": access_seconds,
        "total_seconds": t_done - t0,
    }
    return report
