"""Sharded parallel race checking over a frozen DTRG snapshot.

Two-phase factoring of the paper's detector (the same split C-RACER uses
for futures and DePa uses with compact labels): the DTRG is built only
from *structure* events, while the per-location shadow checks are mutually
independent once the reachability structure is known.  Given a recorded
trace (:class:`~repro.core.events.Trace` or any event iterable):

1. **Build** (sequential, one pass over the trace's columns): structure
   events drive a real
   :class:`~repro.core.reachability.DynamicTaskReachabilityGraph` while
   every read/write is stamped with the *mutation epoch* at its
   stream position and bucketed by location hash.  The finished graph is
   frozen into a :class:`~repro.core.snapshot.DTRGSnapshot` (flat
   ``array('q')`` columns) plus a :class:`StructureLog` — the
   epoch-ordered list of set merges and non-tree-edge insertions.
2. **Fan-out**: buckets are bin-packed into ``jobs`` size-balanced shards
   and dispatched via :mod:`multiprocessing` (``fork``: workers inherit
   the payload through a module global; ``spawn``: the payload is pickled
   once per worker into the pool initializer).  Each worker replays its
   shard's accesses in global stream order through the **existing**
   :class:`~repro.core.shadow.ShadowMemory` algorithms, answering
   ``PRECEDE`` from an :class:`_EpochDTRG` — a union-find replica advanced
   lazily to each access's recorded epoch, which makes every verdict
   bit-identical to the online detector's (a final-state-only snapshot
   would *miss* races masked by later end-finish merges).
3. **Merge** (deterministic): per-shard races carry their global event
   sequence number and intra-access report index; the merge sorts by that
   pair — exactly sequential detection order — re-dedups (a no-op across
   shards: the dedupe key includes the location and each location lives in
   one shard), and sums counters.

Counter invariants (pinned by the golden/property tests):

* ``precede_queries``, ``mutation_epoch``, ``shadow_fast_hits``,
  ``precede_calls_saved``, ``#AvgReaders`` and the structural counters are
  bit-identical to the sequential replay at **every** job count — the
  per-cell check sequences are identical, only their interleaving differs,
  and none of those counters is interleaving-sensitive.
* The PRECEDE verdict *cache* is interleaving-sensitive (hits depend on
  query order across locations), so workers run cache-less and the
  ``cache_*`` columns report 0 — the same value at every job count.
* ``RaceReport.summary()`` is byte-identical to ``--jobs 1``.

Witness certificates (``--explain``) are not produced in parallel mode;
site *attribution* is — recorded event sites ride along into each shard
and surface on the merged races.
"""

from __future__ import annotations

import heapq
import pickle
import time
import zlib
from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

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
from repro.core.reachability import DynamicTaskReachabilityGraph
from repro.core.shadow import ShadowMemory
from repro.core.snapshot import DTRGSnapshot

__all__ = [
    "StructureLog",
    "ParallelCheckResult",
    "check_trace_parallel",
]

_OP_MERGE = 0
_OP_NT = 1

#: Micro-buckets per job: fine-grained hashing then greedy bin-packing
#: keeps shards size-balanced even when a few locations dominate.
_BUCKETS_PER_JOB = 8

#: Row layout of a bucket's flat ``array('q')``: (seq, epoch, kind, task,
#: loc_id) — kind 0 = read, 1 = write.
_ROW = 5

_KIND = {
    "read-write": AccessKind.READ_WRITE,
    "write-write": AccessKind.WRITE_WRITE,
    "write-read": AccessKind.WRITE_READ,
}


class StructureLog:
    """Epoch-stamped DTRG mutation history, in flat ``array('q')`` form.

    One entry per set-changing mutation, in execution order: ``(epoch, op,
    x, y)`` where ``op`` is ``_OP_MERGE`` (``merge(x, y)`` — ancestor,
    descendant) or ``_OP_NT`` (non-tree edge ``y -> x``'s set).  ``epoch``
    is the graph's :attr:`mutation_epoch` *after* the mutation, so a
    replica that has applied every entry with ``epoch <= e`` holds exactly
    the set state the online detector saw at epoch ``e`` (``add_task`` /
    ``on_terminate`` bump the epoch too but change no set state the
    replica doesn't already pre-materialize).  Entries initially hold task
    *keys*; :meth:`reindex` maps them to dense snapshot indices.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries = array("q")

    def append(self, epoch: int, op: int, x, y) -> None:
        self.entries.extend((epoch, op, x, y))

    def __len__(self) -> int:
        return len(self.entries) // 4

    def reindex(self, index: Dict[Hashable, int]) -> None:
        entries = self.entries
        for i in range(0, len(entries), 4):
            entries[i + 2] = index[entries[i + 2]]
            entries[i + 3] = index[entries[i + 3]]


class _RecordingDTRG(DynamicTaskReachabilityGraph):
    """Live DTRG that journals set-changing mutations into a
    :class:`StructureLog`.

    Detection is delta-based so only *effective* mutations are recorded:
    ``record_join`` on an already-merged pair journals nothing (the live
    graph bumps nothing either), and the tree-join path journals through
    the ``merge`` override it dispatches to.  The build phase runs
    cache-less — no queries are issued during construction, so the cache
    would only cost memory.
    """

    def __init__(self) -> None:
        super().__init__(cache_precede=False)
        self.log = StructureLog()
        #: Task key -> LSA task key at spawn time (the singleton set's
        #: initial ``lsa``), ``-1`` sentinel handled at reindex by the
        #: caller keeping -1 rows out.
        self.lsa_spawn: Dict[Hashable, Hashable] = {}

    def add_task(self, parent_key, child_key, *, is_future, name=None):
        node = super().add_task(
            parent_key, child_key, is_future=is_future, name=name
        )
        lsa = self._sets.get_metadata(node).lsa
        if lsa is not None:
            self.lsa_spawn[child_key] = lsa.key
        return node

    def record_join(self, consumer_key, producer_key) -> None:
        before = self.num_non_tree_edges
        super().record_join(consumer_key, producer_key)
        if self.num_non_tree_edges != before:
            self.log.append(
                self.mutation_epoch, _OP_NT, consumer_key, producer_key
            )

    def merge(self, ancestor_key, descendant_key) -> None:
        before = self.num_tree_merges
        super().merge(ancestor_key, descendant_key)
        if self.num_tree_merges != before:
            self.log.append(
                self.mutation_epoch, _OP_MERGE, ancestor_key, descendant_key
            )


class _EpochDTRG:
    """Per-worker DTRG replica that answers ``PRECEDE`` *as of* any epoch.

    All tasks are pre-materialized as singleton sets (tasks not yet
    spawned at a query's epoch are never referenced by it); set state is
    advanced lazily by applying :class:`StructureLog` entries in order up
    to the query epoch.  The query itself is a faithful port of
    Algorithm 10's default strategy — same level-0 checks, preorder prune,
    memoized VISIT search and LSA chain, same counter discipline — over
    arrays instead of node objects, so verdicts *and* ``num_visits`` match
    the online graph's cache-less run exactly.
    """

    __slots__ = (
        "uf", "label_pre", "label_post", "max_pre", "lsa", "nt",
        "log", "log_pos", "log_len",
        "_stamp", "_qid", "num_precede_queries", "num_visits",
    )

    def __init__(self, snapshot: DTRGSnapshot, log: StructureLog,
                 lsa_spawn: Sequence[int]) -> None:
        n = len(snapshot)
        self.uf = list(range(n))
        # Every singleton set starts labeled with its own task interval;
        # posts are final values, which answer ancestor queries identically
        # to the temporaries the online run compared (labels.py invariant).
        self.label_pre = snapshot.pre
        self.label_post = array("q", snapshot.post)
        self.max_pre = array("q", snapshot.pre)
        self.lsa = array("q", lsa_spawn)
        self.nt: List[Optional[list]] = [None] * n
        self.log = log.entries
        self.log_pos = 0
        self.log_len = len(log.entries)
        self._stamp = array("q", bytes(8 * n))
        self._qid = 0
        self.num_precede_queries = 0
        self.num_visits = 0

    # -- union-find with path halving (mirrors DisjointSets.find) ------- #
    def find(self, x: int) -> int:
        uf = self.uf
        p = uf[x]
        while p != x:
            g = uf[p]
            uf[x] = g
            x = g
            p = uf[x]
        return x

    def advance(self, epoch: int) -> None:
        """Apply journaled mutations with entry epoch <= ``epoch``."""
        log, pos, end = self.log, self.log_pos, self.log_len
        while pos < end and log[pos] <= epoch:
            op = log[pos + 1]
            x = log[pos + 2]
            y = log[pos + 3]
            rx = self.find(x)
            if op == _OP_MERGE:
                # Algorithm 7: union keeping the ancestor side's metadata
                # (label/lsa already live at rx), nt lists concatenated in
                # the ancestor-then-descendant order the live graph uses.
                ry = self.find(y)
                nt_y = self.nt[ry]
                if nt_y:
                    nt_x = self.nt[rx]
                    if nt_x is None:
                        self.nt[rx] = list(nt_y)
                    else:
                        nt_x.extend(nt_y)
                if self.max_pre[ry] > self.max_pre[rx]:
                    self.max_pre[rx] = self.max_pre[ry]
                self.uf[ry] = rx
            else:
                nt_x = self.nt[rx]
                if nt_x is None:
                    self.nt[rx] = [y]
                else:
                    nt_x.append(y)
            pos += 4
        self.log_pos = pos

    # -- Algorithm 10 (default strategy, cache-less) -------------------- #
    def precede(self, ia: int, ib: int) -> bool:
        self.num_precede_queries += 1
        if ia == ib:
            return True
        ra = self.find(ia)
        rb = self.find(ib)
        if ra == rb:
            return True
        la_pre = self.label_pre[ra]
        la_post = self.label_post[ra]
        if la_pre <= self.label_pre[rb] and self.label_post[rb] <= la_post:
            return True
        if la_pre > self.max_pre[rb]:
            return False
        if not self.nt[rb] and self.lsa[rb] < 0:
            return False
        self._qid += 1
        qid = self._qid
        self._stamp[rb] = qid
        self.num_visits += 1
        return self._explore(ra, la_pre, la_post, rb, qid)

    def _visit(
        self, ra: int, la_pre: int, la_post: int, b_idx: int, qid: int
    ) -> bool:
        rb = self.find(b_idx)
        if rb == ra:
            return True
        if la_pre <= self.label_pre[rb] and self.label_post[rb] <= la_post:
            return True
        if la_pre > self.max_pre[rb]:
            return False
        stamp = self._stamp
        if stamp[rb] == qid:
            return False
        stamp[rb] = qid
        self.num_visits += 1
        return self._explore(ra, la_pre, la_post, rb, qid)

    def _explore(
        self, ra: int, la_pre: int, la_post: int, rb: int, qid: int
    ) -> bool:
        visit = self._visit
        nt_b = self.nt[rb]
        if nt_b:
            for pred in nt_b:
                if visit(ra, la_pre, la_post, pred, qid):
                    return True
        stamp, lsa = self._stamp, self.lsa
        anc = lsa[rb]
        while anc >= 0:
            r = self.find(anc)
            if stamp[r] != qid:
                stamp[r] = qid
                self.num_visits += 1
                nt_r = self.nt[r]
                if nt_r:
                    for pred in nt_r:
                        if visit(ra, la_pre, la_post, pred, qid):
                            return True
            anc = lsa[r]
        return False


# ---------------------------------------------------------------------- #
# Phase 1: streaming build                                               #
# ---------------------------------------------------------------------- #
class _Scope:
    __slots__ = ("owner", "joins")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.joins: List[int] = []


class _BuildResult:
    """Everything the streaming pass produced (parent-process only)."""

    __slots__ = (
        "dtrg", "log", "covered", "names", "locs", "buckets",
        "bucket_sites", "num_events", "num_access_events",
        "num_structure_events", "final_epoch",
    )


def _build_phase(enc: Trace, num_buckets: int,
                 names: Optional[Dict[int, str]]) -> _BuildResult:
    """One pass over the trace's columns: structure -> recording DTRG,
    accesses -> epoch-stamped per-bucket rows.  Mirrors ``replay_trace``'s
    implicit bracket (main task 0, root finish 0, closing merges +
    terminate) so epochs line up with the sequential replay exactly.

    Access runs walk the flat 3-wide ``array('q')`` rows directly and
    structure runs dispatch the small op tuples.  Bucket rows store task
    *keys* (``task_keys[idx]``), so the post-freeze dense remap works on
    the original tids.
    """
    dtrg = _RecordingDTRG()
    default_name = "task#{}".format
    future_name = "future#{}".format
    task_names: Dict[int, str] = dict(names) if names else {}
    task_keys = enc.task_keys
    covered: Dict[int, bool] = {task_keys[0]: False}
    dtrg.add_root(task_keys[0], name=task_names.get(
        task_keys[0], default_name(task_keys[0])))
    scopes: Dict[int, _Scope] = {0: _Scope(task_keys[0])}

    # Location ids are the trace's first-occurrence interning order.
    locs: List[Hashable] = list(enc.locs)
    crc32 = zlib.crc32
    loc_bucket = array("q", (
        crc32(repr(loc).encode("utf-8", "replace")) % num_buckets
        for loc in locs
    ))
    buckets: List[list] = [[] for _ in range(num_buckets)]
    bucket_sites: List[Optional[list]] = [None] * num_buckets

    access = enc.access
    structure = enc.structure
    access_sites = enc.access_sites
    runs = enc.runs
    seq = 0
    a = 0          # global access-row ordinal (indexes access_sites)
    s = 0          # structure-tuple cursor
    created = 1    # next dense index OP_TASK_CREATE mints
    for r in range(0, len(runs), 2):
        count = runs[r + 1]
        if runs[r] == RUN_ACCESS:
            j = a * 3
            for _ in range(count):
                loc_id = access[j + 2]
                b = loc_bucket[loc_id]
                bucket = buckets[b]
                bucket += (
                    seq, dtrg.mutation_epoch,
                    access[j],                  # is_write == row kind
                    task_keys[access[j + 1]],   # store the task *key*
                    loc_id,
                )
                site = (
                    access_sites[a] if access_sites is not None else None
                )
                sites = bucket_sites[b]
                if sites is not None:
                    sites.append(site)
                elif site is not None:
                    sites = [None] * (len(bucket) // _ROW - 1)
                    sites.append(site)
                    bucket_sites[b] = sites
                a += 1
                j += 3
                seq += 1
        else:
            for op in structure[s:s + count]:
                code = op[0]
                if code == OP_TASK_CREATE:
                    child = task_keys[created]
                    created += 1
                    parent = task_keys[op[1]]
                    isf = bool(op[2])
                    covered[child] = isf or covered[parent]
                    if child not in task_names:
                        task_names[child] = (
                            future_name(child) if isf
                            else default_name(child)
                        )
                    dtrg.add_task(
                        parent, child,
                        is_future=isf, name=task_names[child],
                    )
                    if op[3] >= 0:
                        scopes[op[3]].joins.append(child)
                elif code == OP_TASK_END:
                    dtrg.on_terminate(task_keys[op[1]])
                elif code == OP_GET:
                    dtrg.record_join(task_keys[op[1]], task_keys[op[2]])
                elif code == OP_FINISH_START:
                    scopes[op[1]] = _Scope(task_keys[op[2]])
                elif code == OP_FINISH_END:
                    scope = scopes[op[1]]
                    for tid in scope.joins:
                        dtrg.merge(scope.owner, tid)
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown structure op {op!r}")
                seq += 1
            s += count
    # Implicit closing bracket: root finish end, then main terminates.
    root = scopes[0]
    for tid in root.joins:
        dtrg.merge(task_keys[0], tid)
    dtrg.on_terminate(task_keys[0])
    if task_keys[0] not in task_names:
        task_names[task_keys[0]] = default_name(task_keys[0])

    result = _BuildResult()
    result.dtrg = dtrg
    result.log = dtrg.log
    result.covered = covered
    result.names = task_names
    result.locs = locs
    result.buckets = [array("q", rows) for rows in buckets]
    result.bucket_sites = bucket_sites
    result.num_events = seq
    result.num_access_events = enc.num_access_events
    result.num_structure_events = enc.num_structure_events
    result.final_epoch = dtrg.mutation_epoch
    return result


# ---------------------------------------------------------------------- #
# Phase 2: sharding + workers                                            #
# ---------------------------------------------------------------------- #
def _pack_shards(buckets: List[array], jobs: int) -> List[List[int]]:
    """Greedy largest-first bin-packing of bucket row counts into ``jobs``
    shards; deterministic (stable sort, heap tie-break on shard id)."""
    order = sorted(
        (i for i in range(len(buckets)) if len(buckets[i])),
        key=lambda i: (-len(buckets[i]), i),
    )
    heap = [(0, k) for k in range(jobs)]
    shards: List[List[int]] = [[] for _ in range(jobs)]
    for i in order:
        load, k = heapq.heappop(heap)
        shards[k].append(i)
        heapq.heappush(heap, (load + len(buckets[i]), k))
    return shards


def _bucket_rows(bucket: array, sites: Optional[list]):
    if sites is None:
        for j in range(0, len(bucket), _ROW):
            yield (bucket[j], bucket[j + 1], bucket[j + 2],
                   bucket[j + 3], bucket[j + 4], None)
    else:
        for r, j in enumerate(range(0, len(bucket), _ROW)):
            yield (bucket[j], bucket[j + 1], bucket[j + 2],
                   bucket[j + 3], bucket[j + 4],
                   sites[r] if r < len(sites) else None)


class _WorkerPayload:
    """Static data every worker needs, shipped once (inherited on fork,
    pickled once per worker on spawn)."""

    __slots__ = ("snapshot", "log", "lsa_spawn", "covered", "locs",
                 "shard_buckets", "shard_sites")

    def __init__(self, snapshot, log, lsa_spawn, covered, locs,
                 shard_buckets, shard_sites) -> None:
        self.snapshot = snapshot
        self.log = log
        self.lsa_spawn = lsa_spawn
        self.covered = covered
        self.locs = locs
        self.shard_buckets = shard_buckets
        self.shard_sites = shard_sites


def _run_shard(payload: _WorkerPayload, shard_id: int) -> dict:
    """Check one shard: replay its accesses in global stream order through
    the existing shadow-memory algorithms against the epoch replica."""
    start = time.perf_counter()
    replica = _EpochDTRG(payload.snapshot, payload.log, payload.lsa_spawn)
    covered = payload.covered
    locs = payload.locs

    state = {"epoch": 0, "seq": 0, "site": None, "intra": 0}
    races: List[tuple] = []
    seen_pairs = set()
    # Cell-site retention mirroring shadow.attach_provenance (site strings
    # instead of flight-recorder ids): populated after each check so races
    # see the *previous* access's site.
    read_sites: Dict[int, Dict[int, Optional[str]]] = {}
    write_sites: Dict[int, tuple] = {}

    def report(kind: str, prev: int, cur: int, loc) -> None:
        loc_id = state["loc_id"]
        a, b = (prev, cur) if prev <= cur else (cur, prev)
        key = (loc_id, a, b, kind)
        if key in seen_pairs:
            return
        seen_pairs.add(key)
        if kind == "read-write":
            prev_site = read_sites.get(loc_id, {}).get(prev)
        else:
            ws = write_sites.get(loc_id)
            prev_site = ws[1] if ws is not None and ws[0] == prev else None
        races.append((
            state["seq"], state["intra"], kind, prev, cur, loc_id,
            prev_site, state["site"],
        ))
        state["intra"] += 1

    shadow = ShadowMemory(
        precede=replica.precede,
        is_future=covered.__getitem__,
        report=report,
        epoch=lambda: state["epoch"],
    )
    sm_read = shadow.read
    sm_write = shadow.write
    advance = replica.advance

    streams = [
        _bucket_rows(bucket, sites)
        for bucket, sites in zip(
            payload.shard_buckets[shard_id], payload.shard_sites[shard_id]
        )
    ]
    rows = streams[0] if len(streams) == 1 else heapq.merge(*streams)
    n_rows = 0
    retain_sites = any(
        s is not None for s in payload.shard_sites[shard_id]
    )
    for seq, epoch, kind, task, loc_id, site in rows:
        advance(epoch)
        state["epoch"] = epoch
        state["seq"] = seq
        state["site"] = site
        state["loc_id"] = loc_id
        state["intra"] = 0
        if kind == 0:
            sm_read(task, loc_id)
            if retain_sites:
                sites_for = read_sites.get(loc_id)
                if sites_for is None:
                    read_sites[loc_id] = sites_for = {}
                sites_for[task] = site
        else:
            sm_write(task, loc_id)
            if retain_sites:
                write_sites[loc_id] = (task, site)
        n_rows += 1

    return {
        "shard": shard_id,
        "events": n_rows,
        "races": races,
        "seconds": time.perf_counter() - start,
        "counters": {
            "precede_queries": replica.num_precede_queries,
            "num_visits": replica.num_visits,
            "num_accesses": shadow.num_accesses,
            "total_readers_seen": shadow.total_readers_seen,
            "fast_read_hits": shadow.num_fast_read_hits,
            "fast_write_hits": shadow.num_fast_write_hits,
            "precede_calls_saved": shadow.num_precede_calls_saved,
            "num_locations": shadow.num_locations,
        },
    }


# Module-global payload slot for multiprocessing workers.  With the fork
# start method the parent sets it before creating the pool and children
# inherit it; with spawn the pool initializer unpickles it once per worker.
_SHARED_PAYLOAD: Optional[_WorkerPayload] = None


def _pool_init(blob: Optional[bytes]) -> None:
    global _SHARED_PAYLOAD
    if blob is not None:
        _SHARED_PAYLOAD = pickle.loads(blob)


def _run_shard_pooled(shard_id: int) -> dict:
    return _run_shard(_SHARED_PAYLOAD, shard_id)


# ---------------------------------------------------------------------- #
# Phase 3: deterministic merge + result                                  #
# ---------------------------------------------------------------------- #
class ParallelCheckResult:
    """Outcome of a sharded check, duck-typed like the sequential detector
    where the harness/CLI consume it (``report``, ``races``,
    ``racy_locations``, ``perf_stats``, ``avg_readers``)."""

    def __init__(self) -> None:
        self.report = RaceReport(dedupe=True)
        self.jobs = 0
        self.backend = "inline"
        self.snapshot: Optional[DTRGSnapshot] = None
        self.num_tasks = 0
        self.num_events = 0
        self.num_access_events = 0
        self.num_structure_events = 0
        self.num_locations = 0
        self.num_visits = 0
        self.num_non_tree_edges = 0
        self.num_tree_merges = 0
        self.mutation_epoch = 0
        self.num_precede_queries = 0
        self.shadow_fast_hits = 0
        self.precede_calls_saved = 0
        self.num_accesses = 0
        self.total_readers_seen = 0
        self.shards: List[dict] = []
        self.timings: Dict[str, float] = {}
        self.witnesses: List = []

    @property
    def races(self):
        return self.report.races

    @property
    def racy_locations(self):
        return self.report.racy_locations

    @property
    def avg_readers(self) -> float:
        if not self.num_accesses:
            return 0.0
        return self.total_readers_seen / self.num_accesses

    @property
    def perf_stats(self) -> dict:
        """Same keys as ``DeterminacyRaceDetector.perf_stats``.  The
        ``cache_*`` columns are 0 by construction (workers run cache-less
        so the columns are job-count-invariant); everything else is
        bit-identical to the sequential replay."""
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


def _resolve_backend(backend: Optional[str], jobs: int) -> str:
    if backend is not None:
        if backend not in ("inline", "fork", "spawn"):
            raise ValueError(f"unknown backend {backend!r}")
        return backend
    if jobs <= 1:
        return "inline"
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def check_trace_parallel(
    trace: Trace | Iterable[Event],
    *,
    jobs: int = 1,
    backend: Optional[str] = None,
    names: Optional[Dict[int, str]] = None,
    obs=None,
    progress=None,
) -> ParallelCheckResult:
    """Two-phase sharded race check of a recorded event stream.

    Parameters
    ----------
    trace:
        A :class:`~repro.core.events.Trace`, whose columns the build
        phase consumes directly, or any iterable of events (generators
        welcome), encoded into a ``Trace`` first.
    jobs:
        Number of shards/workers.  ``1`` runs the same two-phase pipeline
        in-process; results are bit-identical at every value.
    backend:
        ``None`` (auto: ``fork`` where available, else ``spawn``),
        ``"inline"`` (all shards in-process, no multiprocessing — what the
        property sweeps use), ``"fork"`` or ``"spawn"``.
    names:
        Optional tid -> display-name map (e.g. captured from a live run);
        defaults to the replay convention ``task#<tid>`` / ``future#<tid>``.
    obs:
        Optional :class:`repro.obs.Observability`; records freeze/fan-out/
        merge stage timings, shard balance metrics and per-shard spans.
        Disabled/None costs nothing.
    progress:
        Optional :class:`repro.obs.live.ProgressCounter`.  Bumped per
        phase and per shard — for the ``inline`` backend after each
        shard completes; for pooled (``fork``/``spawn``) backends the
        workers run in other processes, so progress jumps once when
        ``pool.map`` returns (documented coarseness, not a bug).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    backend = _resolve_backend(backend, jobs)
    obs = obs if obs is not None and getattr(obs, "enabled", False) else None
    t0 = time.perf_counter()

    num_buckets = max(jobs * _BUCKETS_PER_JOB, 1)
    trace = encode_trace(trace)
    if progress is not None:
        progress.set_phase("build")
        progress.set_total(2 * len(trace))  # build pass + check pass
    build = _build_phase(trace, num_buckets, names)
    t_build = time.perf_counter()
    if progress is not None:
        # Exact total now that the build pass counted the stream: one
        # unit per event in the build pass + one per access event in the
        # check pass (structure events are not replayed by shards).
        progress.set_total(build.num_events + build.num_access_events)
        progress.add(build.num_events)
        progress.set_phase("freeze")

    snapshot = DTRGSnapshot.freeze(build.dtrg)
    index = snapshot.index
    build.log.reindex(index)
    n = len(snapshot)
    lsa_spawn = array("q", [-1]) * n
    for key, lsa_key in build.dtrg.lsa_spawn.items():
        lsa_spawn[index[key]] = index[lsa_key]
    covered = bytearray(n)
    for key, flag in build.covered.items():
        if flag:
            covered[index[key]] = 1
    # Access rows were recorded with task *keys*; remap to dense indices.
    # (Runtime/replay tids are already dense creation-order ints, so the
    # remap is usually the identity and skipped; synthetic traces may
    # skip ids.)
    if any(key != i for i, key in enumerate(snapshot.keys)):
        for bucket in build.buckets:
            for j in range(3, len(bucket), _ROW):
                bucket[j] = index[bucket[j]]
    t_freeze = time.perf_counter()

    shard_assign = _pack_shards(build.buckets, jobs)
    shard_buckets = [
        [build.buckets[i] for i in assigned] for assigned in shard_assign
    ]
    shard_sites = [
        [build.bucket_sites[i] for i in assigned] for assigned in shard_assign
    ]
    payload = _WorkerPayload(
        snapshot, build.log, lsa_spawn, covered, build.locs,
        shard_buckets, shard_sites,
    )
    active = [k for k in range(jobs) if shard_buckets[k]]

    if obs is not None:
        sizes = [
            sum(len(b) // _ROW for b in shard_buckets[k]) for k in range(jobs)
        ]
        obs.on_parallel_plan(jobs, backend, sizes)

    if progress is not None:
        progress.set_phase("check")
    shard_results: List[dict] = []
    if not active:
        pass
    elif backend == "inline" or len(active) == 1:
        for k in active:
            shard_results.append(_run_shard(payload, k))
            if progress is not None:
                progress.add(shard_results[-1]["events"])
    else:
        import multiprocessing

        ctx = multiprocessing.get_context(backend)
        global _SHARED_PAYLOAD
        if backend == "fork":
            _SHARED_PAYLOAD = payload
            initargs = (None,)
        else:
            initargs = (pickle.dumps(payload, pickle.HIGHEST_PROTOCOL),)
        try:
            with ctx.Pool(
                processes=min(jobs, len(active)),
                initializer=_pool_init,
                initargs=initargs,
            ) as pool:
                shard_results = pool.map(_run_shard_pooled, active)
        finally:
            _SHARED_PAYLOAD = None
        if progress is not None:
            # Pooled workers live in other processes; the shared counter
            # can only jump when the whole fan-out returns.
            progress.add(sum(s["events"] for s in shard_results))
    t_check = time.perf_counter()
    if progress is not None:
        progress.set_phase("merge")

    result = ParallelCheckResult()
    result.jobs = jobs
    result.backend = backend
    result.snapshot = snapshot
    result.num_tasks = n
    result.num_events = build.num_events
    result.num_access_events = build.num_access_events
    result.num_structure_events = build.num_structure_events
    result.mutation_epoch = build.final_epoch
    result.num_non_tree_edges = build.dtrg.num_non_tree_edges
    result.num_tree_merges = build.dtrg.num_tree_merges

    all_races: List[tuple] = []
    for shard in shard_results:
        all_races.extend(shard["races"])
        c = shard["counters"]
        result.num_precede_queries += c["precede_queries"]
        result.num_visits += c["num_visits"]
        result.num_accesses += c["num_accesses"]
        result.total_readers_seen += c["total_readers_seen"]
        result.shadow_fast_hits += (
            c["fast_read_hits"] + c["fast_write_hits"]
        )
        result.precede_calls_saved += c["precede_calls_saved"]
        result.num_locations += c["num_locations"]
        result.shards.append({
            "shard": shard["shard"],
            "events": shard["events"],
            "races": len(shard["races"]),
            "seconds": shard["seconds"],
        })
    # Deterministic merge: (seq, intra-access index) is exactly sequential
    # detection order; per-shard dedupe is already global because the
    # dedupe key includes the location and each location lives in exactly
    # one shard.
    all_races.sort(key=lambda r: (r[0], r[1]))
    keys = snapshot.keys
    locs = build.locs
    names_map = build.names
    for _seq, _i, kind, prev, cur, loc_id, prev_site, cur_site in all_races:
        prev_key, cur_key = keys[prev], keys[cur]
        result.report.add(Race(
            loc=locs[loc_id],
            kind=_KIND[kind],
            prev_task=prev_key,
            current_task=cur_key,
            prev_name=names_map.get(prev_key, ""),
            current_name=names_map.get(cur_key, ""),
            prev_site=prev_site,
            current_site=cur_site,
        ))
    t_merge = time.perf_counter()
    if progress is not None:
        progress.add_races(len(all_races))
        progress.set_phase("done")

    result.timings = {
        "build_seconds": t_build - t0,
        "freeze_seconds": t_freeze - t_build,
        "check_seconds": t_check - t_freeze,
        "merge_seconds": t_merge - t_check,
        "total_seconds": t_merge - t0,
        "max_shard_seconds": max(
            (s["seconds"] for s in result.shards), default=0.0
        ),
    }
    if obs is not None:
        obs.on_parallel_stages(result.timings, result.shards)
    return result
