"""Vector-clock determinacy race detection — the impractical-but-general
baseline.

Section 1 / Section 6: "Race detection algorithms based on vector clocks
[1, 16] are impractical for these constructs because either the vector
clocks have to be allocated with a size proportional to the maximum number
of simultaneously live tasks (which can be unboundedly large) or precision
has to be sacrificed by assigning one clock per processor."

This is the paper's strawman on the repository's one future-aware
vector-clock algebra, :class:`~repro.core.parallel_detector.ParallelRaceDetector`
— the *precise* variant, one clock component per task, with its access
checks, shadow cells and verdicts unchanged.  The subclass only counts
what the paper's argument is about, so the benchmarks can exhibit the
quadratic blow-up it predicts: ``benchmarks/bench_vector_clock_scaling.py``
sweeps task counts and shows per-spawn cost growing with the number of
tasks while the DTRG detector's stays flat.

* :attr:`~VectorClockDetector.total_clock_entries_copied` — clock entries
  copied at spawns (the child's ``dict(parent)``) and merged at joins (the
  frozen producer clock, on ``get`` and at end-finish alike);
* :attr:`~VectorClockDetector.max_clock_size` — the widest clock
  materialized.

The future ``get`` edge goes through exactly the same component-wise max
as the end-finish join — the join rule is what makes this baseline
*general* rather than async/finish-only; it is pinned by the regression
corpus entry ``tests/corpus/vc_future_get_join.json`` and audited against
the brute-force oracle by the ``vector-clock`` fuzz row.  Unlike the DTRG
detector no bounded-reader lemma applies, so a shadow cell keeps one read
stamp per task that read the location since its last write — another axis
of the memory blow-up.
"""

from __future__ import annotations

from repro.core.parallel_detector import ParallelRaceDetector

__all__ = ["VectorClockDetector"]


class VectorClockDetector(ParallelRaceDetector):
    """Precise vector-clock detector supporting async, finish and future."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Clock entries copied or merged so far (the scaling benchmark).
        self.total_clock_entries_copied = 0

    def on_task_create(self, parent, child) -> None:
        # O(|VC|) copy of the parent's clock — the cost the paper warns about.
        self.total_clock_entries_copied += len(self._clocks[parent.tid])
        super().on_task_create(parent, child)

    def _join(self, dst: int, src: int) -> None:
        super()._join(dst, src)
        self.total_clock_entries_copied += len(self._final[src])

    @property
    def max_clock_size(self) -> int:
        """Largest vector clock materialized — the memory-growth metric."""
        return max(map(len, self._clocks.values()), default=0)
