"""Ring-buffer span/event tracer with Chrome trace-event export.

Events follow the Chrome trace-event format (the JSON array Perfetto and
``chrome://tracing`` load natively): duration events (``ph: "X"``) for task
lifetimes and finish scopes on per-task tracks, instant events
(``ph: "i"``) for ``get()`` joins, shadow-memory checks, DTRG mutations and
PRECEDE queries, and metadata events (``ph: "M"``) naming the tracks.

The buffer is a fixed-capacity ring: recording never allocates beyond the
configured capacity, long runs keep the *latest* window of events, and the
number of overwritten events is reported in the export's ``otherData`` so a
truncated trace is never mistaken for a complete one.

Timestamps are microseconds from the tracer's construction (the trace-event
spec's unit).  Callers with *virtual* clocks — the work-stealing simulator
measures in cycles, not wall time — pass explicit timestamps instead.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Hashable, List, Optional

__all__ = ["RingTracer", "DTRG_TRACK", "SHADOW_TRACK"]

#: Reserved track keys for events that belong to a data structure rather
#: than a task.  Task tracks use the (small, non-negative) task ids.
DTRG_TRACK = "dtrg"
SHADOW_TRACK = "shadow"

#: First synthetic thread id handed to non-integer track keys; far above
#: any realistic task id so the two ranges never collide.
_SYNTHETIC_TID_BASE = 1_000_000


class RingTracer:
    """Bounded recorder of Chrome trace events.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are overwritten (counted in
        :attr:`dropped`).
    clock:
        Nanosecond clock used for implicit timestamps; injectable for
        deterministic tests.
    """

    def __init__(self, capacity: int = 1 << 16, clock=time.perf_counter_ns):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.enabled = True
        self.dropped = 0
        self._clock = clock
        self._t0 = clock()
        self._events: List[Dict[str, Any]] = []
        self._next = 0  # ring write index once the buffer is full
        self._track_ids: Dict[Hashable, int] = {}
        self._track_names: Dict[Hashable, str] = {}

    # ------------------------------------------------------------------ #
    # Clock / track helpers                                              #
    # ------------------------------------------------------------------ #
    def now_us(self) -> float:
        """Microseconds since the tracer was constructed."""
        return (self._clock() - self._t0) / 1_000.0

    def track_id(self, key: Hashable) -> int:
        """Stable integer thread-id for ``key`` (ints pass through)."""
        if isinstance(key, int):
            return key
        tid = self._track_ids.get(key)
        if tid is None:
            tid = _SYNTHETIC_TID_BASE + len(self._track_ids)
            self._track_ids[key] = tid
        return tid

    def set_track_name(self, key: Hashable, name: str) -> None:
        """Label a track; emitted as ``thread_name`` metadata on export."""
        self._track_names[key] = name

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #
    def _record(self, event: Dict[str, Any]) -> None:
        if len(self._events) < self.capacity:
            self._events.append(event)
            return
        self._events[self._next] = event
        self._next = (self._next + 1) % self.capacity
        self.dropped += 1

    def complete(
        self,
        name: str,
        cat: str,
        track: Hashable,
        ts_us: float,
        dur_us: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A duration ("complete") event: one span on ``track``."""
        event: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts_us,
            "dur": dur_us,
            "pid": 1,
            "tid": self.track_id(track),
        }
        if args:
            event["args"] = args
        self._record(event)

    def instant(
        self,
        name: str,
        cat: str,
        track: Hashable,
        ts_us: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A thread-scoped instant event on ``track``."""
        event: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": self.now_us() if ts_us is None else ts_us,
            "pid": 1,
            "tid": self.track_id(track),
        }
        if args:
            event["args"] = args
        self._record(event)

    # ------------------------------------------------------------------ #
    # Export                                                             #
    # ------------------------------------------------------------------ #
    def events(self) -> List[Dict[str, Any]]:
        """Recorded events, oldest first."""
        if len(self._events) < self.capacity or self._next == 0:
            return list(self._events)
        return self._events[self._next:] + self._events[: self._next]

    def to_chrome(self) -> Dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object.

        When the ring wrapped, a ``trace_buffer_stats`` metadata record
        (``ph: "M"``) is emitted alongside ``otherData.dropped`` —
        Perfetto surfaces metadata args in the UI, where ``otherData``
        is invisible, so a truncated trace announces itself where the
        person reading it will actually look.
        """
        metadata: List[Dict[str, Any]] = []
        for key, name in self._track_names.items():
            metadata.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": self.track_id(key),
                "args": {"name": name},
            })
        if self.dropped:
            metadata.append({
                "name": "trace_buffer_stats",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {
                    "dropped": self.dropped,
                    "capacity": self.capacity,
                    "complete": False,
                },
            })
        return {
            "traceEvents": metadata + self.events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.RingTracer",
                "capacity": self.capacity,
                "dropped": self.dropped,
            },
        }

    def write(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        import json

        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
            fh.write("\n")

    def __len__(self) -> int:
        return len(self._events)
