"""Program-in to race-report-out benchmark of the race detector.

Runs the three pipelines a user picks in ``repro-racecheck`` (online
serial, ``--fast`` and ``--runtime threads``) on one workload, checks
every verdict and result, and prints the metrics named in
``BENCHMARK.json``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Run it from the repository root::

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 30 --trace 0

The last line of standard output is the JSON result; the lines before it
repeat the metrics with their units, the failures and an environment
stamp.  Details (all samples, and the spans of a traced run) are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3
#: Imports a fresh interpreter makes before it can build inputs.
_IMPORTS = (
    "import time; start = time.perf_counter(); "
    "import inputs, measure; print(time.perf_counter() - start)"
)
#: Hard stop for the whole process, below the 180 s a run may take.
WATCHDOG_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.spec = spec
    return args


def environment(fastcheck, array_dtrg, numpy) -> dict:
    """What the figures depend on besides the code: interpreter, CPUs,
    numpy, whether the mypyc-compiled modules are loaded, and the code."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "compiled": {
            "repro.core.fastcheck": not fastcheck.__file__.endswith(".py"),
            "repro.core.array_dtrg": not array_dtrg.__file__.endswith(".py"),
        },
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }


def _git_commit():
    """HEAD's commit id read from ``.git``; ``None`` outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the benchmark and the
    package it measures (numpy included)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}", file=sys.stderr)
        return 2
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    sys.path.insert(0, str(SRC))
    import numpy

    import repro.core.array_dtrg as array_dtrg
    import repro.core.fastcheck as fastcheck
    import inputs
    import measure
    import pipelines

    # Set-up: imports in a fresh interpreter, then inputs and oracle
    # verdicts built here.
    build = inputs.BUILDERS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        begin = time.perf_counter()
        units = build(args.seed)
        setup_times.append(import_s + time.perf_counter() - begin)
    setup_s = statistics.median(setup_times)

    ledger = measure.Ledger()
    spans = None
    if args.trace:
        names = args.spec["per_layer"]
        mapped = json.loads((HERE / "layer_map.json").read_text())["layers"]
        if set(mapped) != {m["name"] for m in names}:
            raise SystemExit("error: layer_map.json and BENCHMARK.json "
                             "name different per-layer metrics")
        spans = pipelines.Spans()
        metrics, samples = measure.layers(units, args.seconds, ledger, spans)
    else:
        metrics, samples = measure.end_to_end(units, args.seconds, ledger)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["pass_ratio"] = 1.0 - ledger.failed / max(ledger.attempted, 1)
        names = args.spec["end_to_end"]

    units_of = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units_of):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(units_of))} "
            "disagree with BENCHMARK.json"
        )
    env = environment(fastcheck, array_dtrg, numpy)
    setup = {"samples_s": setup_times, "setup_s": setup_s}
    _report(args, metrics, units_of, ledger, env, spans, setup, samples)
    return 0


def _report(args, metrics, units_of, ledger, env, spans, setup,
            samples) -> None:
    failed_ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{ledger.attempted} runs, {ledger.failed} failed "
          f"(failed_ratio {failed_ratio:.4f})")
    for name in sorted(metrics):
        print(f"  {name:42s} {metrics[name]:>16.6g} {units_of[name]}")
    for line in ledger.failures:
        print(f"  failure: {line}")
    self_times = spans.self_times() if spans else {}
    for name in sorted(self_times):
        print(f"  self time {name:44s} {self_times[name] * 1e3:>10.3f} ms")
    print(f"env: {json.dumps(env, sort_keys=True)}")

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "setup": setup,
        "attempted": ledger.attempted, "failures": ledger.failures,
        "failed_ratio": failed_ratio, "metrics": metrics,
        "samples_s": samples, "self_times_s": self_times,
        "spans": spans.to_json() if spans else [],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail) + "\n")

    print(json.dumps({
        "correct": not ledger.failures and not ledger.hung,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # A hung ThreadRuntime leaves daemon threads behind; skip their
    # teardown so the process ends now.
    os._exit(code)
