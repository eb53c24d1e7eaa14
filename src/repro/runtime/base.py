"""The runtime interface — one surface, three execution substrates.

The paper's detector is specified against a *serial depth-first elision*
(Section 4.1), but the programming model it checks — ``async`` / ``finish``
/ ``future`` — is a parallel one.  :class:`RuntimeBase` captures the
surface every execution substrate provides so programs, the shared-memory
wrappers (:mod:`repro.memory.shared`) and the DSL interpreters
(:mod:`repro.testing.generator`) are runtime-agnostic:

=========================  ==================================================
Implementation             Execution order
=========================  ==================================================
:class:`~repro.runtime.runtime.Runtime`
                           serial depth-first elision (the reference; the
                           order Theorem 2's detector requires)
:class:`~repro.runtime.executor.ThreadRuntime`
                           work-stealing ``threading`` pool — real
                           preemptive parallelism, online detection via
                           :class:`~repro.core.parallel_detector.ParallelRaceDetector`
:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`
                           cooperative ``asyncio`` interleaving (async
                           bodies; ``get`` awaits, ``finish`` is an async
                           scope)
=========================  ==================================================

The contract every implementation honours:

* ``run(program)`` executes ``program(self)`` as the main task inside the
  implicit root finish scope, dispatching the full
  :class:`~repro.core.events.ExecutionObserver` protocol (init, task
  create/end, get, finish start/end, read, write, shutdown) with Task /
  FinishScope argument objects.  Instances are single-use.
* ``async_`` / ``future`` spawn child tasks; ``finish()`` is a scope whose
  exit waits for every task spawned inside it; ``get`` joins a future.
* ``record_read(loc)`` / ``record_write(loc)`` broadcast shared-memory
  accesses attributed to the calling task.
* Observer dispatch ordering: a task's ``on_task_end`` happens before any
  ``on_get`` naming it as producer and before its finish scope's
  ``on_finish_end`` — detectors may rely on producers being finalized at
  join time (:class:`~repro.core.parallel_detector.ParallelRaceDetector`
  and the vector-clock baseline built on it do).

Only the *event order* differs between substrates: the serial runtime
emits the depth-first order, the concurrent ones emit whatever order the
schedule produced.  Detectors that assume depth-first order (the DTRG
family) pair with the serial runtime; schedule-robust detectors
(:class:`~repro.core.parallel_detector.ParallelRaceDetector`) pair with
any of them.  See README "Choosing a runtime".
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    TypeVar,
    runtime_checkable,
)

from repro.core.events import ExecutionObserver

__all__ = ["RuntimeBase"]

T = TypeVar("T")


@runtime_checkable
class RuntimeBase(Protocol):
    """Structural protocol implemented by every execution substrate.

    ``typing.Protocol`` rather than an ABC: the serial
    :class:`~repro.runtime.runtime.Runtime` predates this interface and
    satisfies it structurally without inheriting anything, and callers
    (tools, interpreters, memory wrappers) only ever duck-type against
    this surface.
    """

    # -- observer management ------------------------------------------- #
    def add_observer(self, observer: ExecutionObserver) -> None:
        """Register an observer; only allowed before :meth:`run`."""
        ...

    @property
    def observers(self) -> List[ExecutionObserver]:
        ...

    # -- program execution --------------------------------------------- #
    def run(self, program: Callable[..., T]) -> T:
        """Execute ``program(self)`` as the main task (single-use)."""
        ...

    # -- parallel constructs ------------------------------------------- #
    def async_(
        self,
        body: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> Any:
        """``async { body(...) }`` — spawn a fire-and-forget task."""
        ...

    def future(
        self,
        body: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> Any:
        """``future<T> f = async<T> body(...)`` — spawn a future task."""
        ...

    def finish(self):
        """``finish { ... }`` as a (possibly async) context manager."""
        ...

    def get(self, handle: Any) -> Any:
        """Null-checked join on a future handle."""
        ...

    # -- shared-memory instrumentation --------------------------------- #
    def record_read(self, loc) -> None:
        """Report a read of shared location ``loc`` by the current task."""
        ...

    def record_write(self, loc) -> None:
        """Report a write of shared location ``loc`` by the current task."""
        ...

    # -- introspection -------------------------------------------------- #
    @property
    def num_tasks(self) -> int:
        ...
