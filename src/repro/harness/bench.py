"""``repro-bench`` — machine-readable benchmark runs for CI artifacts.

``repro-table2`` renders the paper's Table 2 for humans; this entry point
runs the same registry (:data:`~repro.harness.runner.BENCHMARKS`, plus
``--extended`` for the extension rows) and writes one JSON document —
``BENCH.json`` by default — that CI uploads as an artifact so perf and
structural counters can be diffed across commits without screen-scraping
the rendered table::

    repro-bench --scale table2 --baseline benchmarks/bench_baseline.json

Every workload row holds the same fixed set of **legs**
(:data:`~repro.harness.runner.LEGS`), each timed best-of-``--repeats``:

* ``seq``, ``instrumented``, ``online`` — the live Table 2
  configurations (serial elision, instrumented run without a detector,
  and the default online detector, the integer access kernel);
* ``replay[dtrg]``, ``replay[array]`` — one recorded trace replayed into
  ``DeterminacyRaceDetector`` on the paper's object DTRG
  (``engine="object"``) and on the integer access kernel
  (``engine="array"``);
* ``fast`` — :func:`repro.core.fastcheck.check_trace_fast` over the same
  trace; ``fast+served`` — the same call with live telemetry attached
  and its ``/metrics`` scraped every 250 ms;
* ``parallel[serial]``, ``threads-1``, ``threads-2``, ``threads-4`` — the
  workload run live under an online
  :class:`~repro.core.parallel_detector.ParallelRaceDetector` on the
  serial elision and on the work-stealing ThreadRuntime.

A leg's ``status`` is ``ok`` or ``error``.  A row is ``identical`` when
every completed replay leg reproduces ``replay[dtrg]``'s summary text
and ordered race pair list bit-for-bit, ``fast`` and ``fast+served``
also match its invariant perf counters, and every ``threads-N`` leg
reports ``parallel[serial]``'s racy-location set and task count.  Every
leg also verifies the workload's output.

Schema (``repro.bench/2``)::

    {"schema": "repro.bench/2", "scale": ..., "repeats": ...,
     "cpu_count": ..., "speedup_valid": ..., "tag": ...,
     "workloads": [{"name": ..., "scale": ..., "races": ...,
       "num_events": ..., "num_access_events": ...,
       "num_structure_events": ..., "num_locations": ...,
       "slowdown_vs_seq": ..., "slowdown_vs_instrumented": ...,
       "fast_speedup_vs_replay": ..., "served_overhead_pct": ...,
       "structural": {...}, "detector_perf": {...},
       "legs": {"seq": {"status": "ok", "seconds": ...},
                "replay[array]": {"status": "ok", "seconds": ...},
                "fast": {"status": "ok", "seconds": ...,
                         "access_events_per_second": ..., ...}, ...},
       "identical": ..., "mismatches": [...]}, ...]}

``fast_speedup_vs_replay`` is ``replay[dtrg]`` over ``fast`` wall time;
``served_overhead_pct`` is ``fast+served`` over the detached
``check_trace_fast`` block timed right before it (the leg's
``detached_seconds``).  Both compare adjacent timings of one process,
so box speed mostly cancels out.  A 1-core box tags the document
``"speedup_valid": false`` — thread legs there measure scheduling
overhead, not parallelism.

``--baseline FILE`` gates the run against a checked-in
``repro.bench.baseline/1`` file (``benchmarks/bench_baseline.json``).
For each workload it names, the gates are optional floors:

* ``fast_access_events_per_second`` and ``replay_events_per_second`` —
  ``fast`` access-phase and ``replay[dtrg]`` throughput, each failing
  more than 10% below the (deliberately conservative) floor;
* ``min_fast_speedup_vs_replay`` — a floor on
  ``fast_speedup_vs_replay``;
* ``max_served_overhead_pct`` — a ceiling on ``served_overhead_pct``.

A run at another scale than the baseline's, or a baseline of another
schema, is a violation: a stale file cannot silently drop a gate.
``--markdown FILE`` also renders every leg as a markdown table.

``--serve-metrics PORT`` / ``--heartbeat SECS`` watch the *bench run
itself*: a live ``/metrics`` + ``/snapshot`` endpoint (PORT 0 picks an
ephemeral port, printed to stderr) and a periodic stderr progress line;
the progress counter ticks once per completed workload row.

Exit status: 0 on success, 1 if any workload failed verification or
raised, any row is not ``identical``, or a baseline gate fails; 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional

from repro.cli import NON_NEGATIVE_FLOAT, PORT, POSITIVE_INT
from repro.harness.runner import (
    BENCHMARKS,
    EXTENDED_BENCHMARKS,
    LEGS,
    run_benchmark,
    run_parallel_legs,
    run_trace_legs,
)

__all__ = [
    "bench_data",
    "bench_markdown",
    "bench_row",
    "check_baseline",
    "main",
]

BENCH_SCHEMA = "repro.bench/2"
BASELINE_SCHEMA = "repro.bench.baseline/1"


def bench_row(name: str, scale: str, *, repeats: int = 3,
              verify: bool = True) -> dict:
    """Run every leg of one workload and assemble its document row."""
    result = run_benchmark(name, scale, repeats=repeats, verify=verify)
    trace = run_trace_legs(name, scale, repeats=repeats, verify=verify)
    live = run_parallel_legs(name, scale, repeats=repeats, verify=verify)
    legs = {
        "seq": {"status": "ok", "seconds": result.seq_seconds},
        "instrumented": {
            "status": "ok", "seconds": result.instrumented_seconds,
        },
        "online": {
            "status": "ok", "seconds": result.racedet_seconds,
            "events_per_second": round(result.events_per_second, 1),
            "races": result.races,
        },
        **trace.legs,
        **live.legs,
    }
    fast = legs["fast"]["seconds"]
    replay = legs["replay[dtrg]"].get("seconds", 0.0)
    detached = legs["fast+served"]["detached_seconds"]
    served = legs["fast+served"]["seconds"]
    mismatches = trace.mismatches + live.mismatches
    return {
        "name": name,
        "scale": scale,
        "races": result.races,
        **trace.counts,
        "slowdown_vs_seq": round(result.slowdown_vs_seq, 4),
        "slowdown_vs_instrumented": round(
            result.slowdown_vs_instrumented, 4
        ),
        "fast_speedup_vs_replay": round(replay / fast, 4) if fast else 0.0,
        "served_overhead_pct": (
            round((served - detached) / detached * 100.0, 2)
            if detached else 0.0
        ),
        "structural": {
            "num_tasks": result.metrics.num_tasks,
            "num_future_tasks": result.metrics.num_future_tasks,
            "num_gets": result.metrics.num_gets,
            "num_nt_joins": result.metrics.num_nt_joins,
            "num_shared_accesses": result.metrics.num_shared_accesses,
            "avg_readers": round(result.avg_readers, 4),
        },
        "detector_perf": asdict(result.perf),
        "legs": legs,
        "identical": not mismatches,
        "mismatches": mismatches,
    }


def bench_data(
    names: List[str],
    *,
    scale: str = "tiny",
    repeats: int = 3,
    verify: bool = True,
    tag: Optional[str] = None,
    out=None,
    progress=None,
) -> dict:
    """Run ``names`` and assemble the ``repro.bench/2`` document.

    Failures don't abort the sweep: a workload that raises contributes an
    ``{"name": ..., "error": ...}`` row so the artifact still records
    which rows succeeded.  ``progress`` (a
    :class:`repro.obs.live.ProgressCounter`, or ``None``) ticks once per
    row.
    """
    workloads: List[dict] = []
    for name in names:
        try:
            row = bench_row(name, scale, repeats=repeats, verify=verify)
        except Exception as exc:
            print(f"bench {name}: FAILED — {type(exc).__name__}: {exc}",
                  file=out or sys.stderr)
            row = {"name": name, "error": f"{type(exc).__name__}: {exc}"}
        workloads.append(row)
        if progress is not None:
            progress.add(1)
        if "error" in row:
            continue
        legs = row["legs"]
        print(
            f"bench {name}: online {legs['online']['seconds'] * 1e3:.1f} ms "
            f"(x{row['slowdown_vs_seq']:.2f} vs seq), "
            f"replay[dtrg] {legs['replay[dtrg]'].get('seconds', 0) * 1e3:.1f}"
            f" ms, fast {legs['fast']['seconds'] * 1e3:.1f} ms "
            f"(x{row['fast_speedup_vs_replay']:.2f} vs replay, "
            f"{legs['fast']['access_events_per_second'] / 1e3:.0f}k acc/s), "
            f"served {row['served_overhead_pct']:+.2f}%, "
            f"identical={row['identical']}",
            file=out,
        )
    cpu_count = os.cpu_count() or 1
    if cpu_count <= 1:
        print(
            "WARNING: cpu_count == 1 — thread-leg wall times on this box "
            "measure scheduling overhead, not parallelism; the document "
            'is tagged "speedup_valid": false.',
            file=out or sys.stderr,
        )
    data = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "cpu_count": cpu_count,
        "speedup_valid": cpu_count > 1,
        "workloads": workloads,
    }
    if tag is not None:
        data["tag"] = tag
    return data


def bench_markdown(data: dict) -> str:
    """Render a ``repro.bench/2`` document as a markdown table: one row
    per workload, one column of best wall milliseconds per leg
    (``error`` for incomplete legs), and the verdict
    identity gate."""
    lines = [
        "| Workload | #Events | #Gets | Races | "
        + " | ".join(f"{leg} (ms)" for leg in LEGS) + " | Identical |",
        "|---|---:|---:|---:|" + "---:|" * len(LEGS) + "---|",
    ]
    for w in data.get("workloads", []):
        if "error" in w:
            lines.append(f"| {w['name']} | — | — | — |"
                         + " error |" * len(LEGS) + " — |")
            continue
        cells = []
        for leg in LEGS:
            row = w["legs"].get(leg, {})
            if row.get("status") == "ok":
                cells.append(f"{row['seconds'] * 1e3:.1f}")
            else:
                cells.append(row.get("status", "—"))
        lines.append(
            f"| {w['name']} | {w['num_events']:,} | "
            f"{w['structural']['num_gets']:,} | {w['races']} | "
            + " | ".join(cells)
            + f" | {'yes' if w['identical'] else 'NO'} |")
    return "\n".join(lines) + "\n"


def check_baseline(data: dict, baseline: dict, out=None) -> List[str]:
    """Compare a ``repro.bench/2`` document against a checked-in
    ``repro.bench.baseline/1`` baseline; return violation strings
    (empty = ok).  See the module docstring for the gates.

    Absolute floors are recorded conservatively (well below a healthy
    run) because shared-CI wall clocks vary severalfold; the speedup
    floor and the overhead ceiling compare legs of one process.  A
    baseline of another schema, or a run at another scale, is a single
    violation and no floor is compared.
    """
    violations: List[str] = []
    if baseline.get("schema") != BASELINE_SCHEMA:
        violations.append(
            f"baseline schema {baseline.get('schema')!r} is not "
            f"{BASELINE_SCHEMA!r}"
        )
    elif data.get("scale") != baseline.get("scale"):
        violations.append(
            f"run scale {data.get('scale')!r} does not match baseline "
            f"scale {baseline.get('scale')!r}"
        )
    else:
        rows = {w.get("name"): w for w in data.get("workloads", [])}
        for name, gate in baseline.get("workloads", {}).items():
            violations.extend(_gate_row(name, rows.get(name), gate))
    for violation in violations:
        print(f"baseline: {violation}", file=out or sys.stderr)
    return violations


def _gate_row(name: str, row: Optional[dict], gate: dict) -> List[str]:
    if row is None or "error" in row:
        return [f"{name}: missing from the run"]
    legs = row["legs"]
    if legs["replay[dtrg]"]["status"] != "ok":
        return [f"{name}: replay[dtrg] leg did not complete"]
    violations: List[str] = []
    floors = (
        ("fast_access_events_per_second", "fast access throughput",
         legs["fast"]["access_events_per_second"]),
        ("replay_events_per_second", "replay[dtrg] throughput",
         legs["replay[dtrg]"]["events_per_second"]),
    )
    for key, label, measured in floors:
        floor = gate.get(key)
        if floor is not None and measured < 0.9 * floor:
            violations.append(
                f"{name}: {label} {measured:.0f} ev/s regressed >10% "
                f"below baseline {floor:.0f} ev/s"
            )
    min_speedup = gate.get("min_fast_speedup_vs_replay")
    measured = row["fast_speedup_vs_replay"]
    if min_speedup is not None and measured < min_speedup:
        violations.append(
            f"{name}: fast speedup vs replay {measured:.2f} "
            f"below floor {min_speedup:.2f}"
        )
    max_overhead = gate.get("max_served_overhead_pct")
    measured = row["served_overhead_pct"]
    if max_overhead is not None and measured > max_overhead:
        violations.append(
            f"{name}: served telemetry overhead {measured:+.2f}% "
            f"exceeds the {max_overhead:.1f}% budget"
        )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "table2", "large"))
    parser.add_argument("--repeats", type=POSITIVE_INT, default=3,
                        help="best-of-N wall time on every leg "
                             "(default 3)")
    parser.add_argument("--output", metavar="FILE", default="BENCH.json",
                        help="artifact path (default BENCH.json)")
    parser.add_argument("--serve-metrics", dest="serve_metrics", type=PORT,
                        default=None, metavar="PORT",
                        help="serve live /metrics + /snapshot for the "
                             "bench run itself (0 picks an ephemeral "
                             "port, printed to stderr)")
    parser.add_argument("--heartbeat", type=NON_NEGATIVE_FLOAT, default=0.0,
                        metavar="SECS",
                        help="print a stderr progress line every SECS "
                             "seconds while the sweep runs (0 disables)")
    parser.add_argument("--markdown", metavar="FILE", default=None,
                        help="also render every leg as a markdown table "
                             "to FILE")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="fail if the run breaks a gate of this "
                             "checked-in baseline")
    parser.add_argument("--tag", default=None,
                        help="free-form label recorded in the document "
                             "(e.g. a commit hash)")
    parser.add_argument("--extended", action="store_true",
                        help="include the extension rows beyond Table 2")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip output verification (timing only)")
    parser.add_argument("--only", metavar="NAME", action="append",
                        help="run only this workload (repeatable)")
    args = parser.parse_args(argv)

    names = list(BENCHMARKS)
    if args.extended:
        names += list(EXTENDED_BENCHMARKS)
    if args.only:
        unknown = [n for n in args.only if n not in set(names)]
        if unknown:
            print(f"error: unknown workload(s): {', '.join(unknown)} "
                  f"(choose from {', '.join(names)})", file=sys.stderr)
            return 2
        names = args.only

    telemetry = None
    if args.serve_metrics is not None or args.heartbeat > 0:
        from repro.obs.live import start_telemetry

        telemetry = start_telemetry(
            port=args.serve_metrics, heartbeat=args.heartbeat,
        )
        telemetry.progress.set_total(len(names))
        telemetry.progress.set_phase("bench")
    try:
        data = bench_data(
            names, scale=args.scale, repeats=args.repeats,
            verify=not args.no_verify, tag=args.tag,
            progress=telemetry.progress if telemetry is not None else None,
        )
    finally:
        if telemetry is not None:
            telemetry.stop()
    with open(args.output, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(bench_markdown(data))
        print(f"markdown table written to {args.markdown}")
    failed = [w["name"] for w in data["workloads"] if "error" in w]
    not_identical = [
        w["name"] for w in data["workloads"]
        if not w.get("identical", True)
    ]
    violations: List[str] = []
    if args.baseline:
        with open(args.baseline) as fh:
            violations = check_baseline(data, json.load(fh))
    print(f"{len(data['workloads'])} workload(s) written to {args.output}")
    if not_identical:
        print(f"error: non-identical verdicts across legs: "
              f"{', '.join(not_identical)}", file=sys.stderr)
    if failed:
        print(f"error: {len(failed)} workload(s) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
    if violations:
        print(f"error: {len(violations)} baseline violation(s)",
              file=sys.stderr)
    return 1 if failed or not_identical or violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
