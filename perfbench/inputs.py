"""Workload inputs and their oracle verdicts, built from the seed.

A workload is a list of :class:`Unit` s.  A unit is one program the
pipelines check: how to run it on the serial and on the threaded runtime,
the racy-location set it must produce, and a check of its result.
``jacobi`` and ``strassen`` are one unit each; ``gen-programs`` is a batch
of generated programs.  Everything the checks need is computed here, so
its cost lands in ``setup_s`` and in no pipeline time.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.baselines.brute_force import BruteForceDetector
from repro.runtime.executor import ThreadRuntime
from repro.runtime.runtime import Runtime
from repro.testing.generator import (
    count_stmts,
    random_program,
    run_program_threads,
    run_program_values,
)
from repro.workloads import jacobi, strassen

#: Threaded pipelines run with two workers: the benchmark host has two CPUs.
WORKERS = 2
#: Statements in one ``gen-programs`` batch (about 400 programs).  A
#: fixed size, rather than a fixed program count, keeps the batch's work
#: from varying with the seed.
GEN_STATEMENTS = 12_000


@dataclasses.dataclass
class Unit:
    """One program as the pipelines see it.

    ``run_serial(observers)`` and ``run_threads(observers)`` each build a
    fresh runtime, run the program to completion and return
    ``(runtime, result)``.  ``check(result)`` raises ``AssertionError``
    when the program computed a wrong result.
    """

    run_serial: Callable[[list], tuple]
    run_threads: Callable[[list], tuple]
    racy: FrozenSet[Any]
    check: Callable[[Any], None]
    serial_elision: Optional[Callable[[], Any]] = None


def _table2_unit(module, seed: int) -> Unit:
    params = dataclasses.replace(module.default_params("table2"), seed=seed)

    def entry(rt):
        return module.run_future(rt, params)

    def run_serial(observers):
        rt = Runtime(observers=observers)
        return rt, rt.run(entry)

    def run_threads(observers):
        rt = ThreadRuntime(observers=observers, workers=WORKERS)
        return rt, rt.run(entry)

    return Unit(
        run_serial=run_serial,
        run_threads=run_threads,
        racy=frozenset(),  # both Table 2 kernels are race-free
        check=lambda result: module.verify(params, result),
        serial_elision=lambda: module.serial(params),
    )


def _program_unit(program) -> Unit:
    oracle = BruteForceDetector()
    _, expected = run_program_values(program, [oracle])
    racy = oracle.racy_location_set()

    def check(memory):
        # A race-free program ends in the same memory under any schedule;
        # a racy one only under the serial depth-first order.
        if not racy and memory != expected:
            raise AssertionError("final memory differs from the serial run")

    return Unit(
        run_serial=lambda observers: run_program_values(program, observers),
        run_threads=lambda observers: run_program_threads(
            program, observers, workers=WORKERS
        ),
        racy=racy,
        check=check,
    )


def _gen_programs(seed: int) -> List[Unit]:
    rng = random.Random(seed)
    units, statements = [], 0
    while statements < GEN_STATEMENTS:
        program = random_program(rng)
        statements += count_stmts(program.body)
        units.append(_program_unit(program))
    return units


BUILDERS: Dict[str, Callable[[int], List[Unit]]] = {
    "jacobi": lambda seed: [_table2_unit(jacobi, seed)],
    "strassen": lambda seed: [_table2_unit(strassen, seed)],
    "gen-programs": _gen_programs,
}
