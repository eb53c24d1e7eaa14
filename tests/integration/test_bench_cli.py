"""Integration tests for the ``repro-bench`` JSON artifact entry point."""

import io
import json
from pathlib import Path

import pytest

from repro.harness.bench import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    bench_data,
    check_baseline,
    main,
)
from repro.harness.runner import LEGS


def test_bench_writes_schema_tagged_json(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    code = main(["--scale", "tiny", "--repeats", "1",
                 "--only", "Series-af", "--only", "Jacobi",
                 "--output", str(out), "--tag", "unit-test"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == BENCH_SCHEMA == "repro.bench/2"
    assert data["tag"] == "unit-test"
    assert data["scale"] == "tiny" and data["repeats"] == 1
    names = [w["name"] for w in data["workloads"]]
    assert names == ["Series-af", "Jacobi"]
    for w in data["workloads"]:
        assert w["legs"]["seq"]["seconds"] > 0
        assert w["legs"]["online"]["seconds"] > 0
        assert w["races"] == 0
        assert w["structural"]["num_tasks"] > 0
        assert "cache_hit_rate" in w["detector_perf"]
    # Jacobi's wavefront of future joins produces non-tree edges and
    # therefore a meaningful PRECEDE cache hit rate.
    jacobi = data["workloads"][1]
    assert jacobi["structural"]["num_nt_joins"] > 0
    assert jacobi["detector_perf"]["precede_queries"] > 0


def test_bench_every_leg_present_and_identical(tmp_path, capsys):
    assert LEGS == (
        "seq", "instrumented", "online",
        "replay[dtrg]", "replay[array]", "fast", "fast+served",
        "parallel[serial]", "threads-1", "threads-2", "threads-4",
    )
    out = tmp_path / "BENCH.json"
    code = main(["--scale", "tiny", "--repeats", "1",
                 "--only", "Series-future", "--only", "Crypt-af",
                 "--output", str(out)])
    assert code == 0
    rows = {w["name"]: w for w in json.loads(out.read_text())["workloads"]}
    for row in rows.values():
        assert row["identical"] is True and row["mismatches"] == []
        assert set(row["legs"]) == set(LEGS)
        assert all(leg["status"] == "ok" for leg in row["legs"].values())
        # The overhead compares the served block with the detached block
        # timed right before it, not with the earlier ``fast`` rounds.
        served = row["legs"]["fast+served"]
        detached = served["detached_seconds"]
        assert detached > 0
        assert row["served_overhead_pct"] == round(
            (served["seconds"] - detached) / detached * 100.0, 2
        )


def test_bench_planted_divergence_exits_one(tmp_path, monkeypatch, capsys):
    """A trace leg whose summary drifts from ``replay[dtrg]`` makes the
    row non-identical and the run exit 1."""
    from repro.core import fastcheck

    real = fastcheck.check_trace_fast

    def drifting(trace, **kwargs):
        result = real(trace, **kwargs)
        result.report.summary = lambda: "planted"
        return result

    monkeypatch.setattr(fastcheck, "check_trace_fast", drifting)
    out = tmp_path / "BENCH.json"
    code = main(["--scale", "tiny", "--repeats", "1", "--only", "Jacobi",
                 "--output", str(out)])
    assert code == 1
    (row,) = json.loads(out.read_text())["workloads"]
    assert row["identical"] is False
    assert "fast: summary differs from replay[dtrg]" in row["mismatches"]
    assert "non-identical" in capsys.readouterr().err


def test_bench_unknown_workload_exits_two(tmp_path, capsys):
    assert main(["--only", "NoSuchBench",
                 "--output", str(tmp_path / "x.json")]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_bench_data_records_failures_without_aborting(monkeypatch, capsys):
    import repro.harness.bench as bench_mod

    def boom(name, scale, repeats, verify):
        raise RuntimeError("exploded")

    monkeypatch.setattr(bench_mod, "run_benchmark", boom)
    data = bench_data(["Series-af"])
    assert data["workloads"] == [
        {"name": "Series-af", "error": "RuntimeError: exploded"}
    ]


def test_bench_count_parsing(tmp_path):
    for bad in (["--repeats", "0"], ["--repeats", "nope"],
                ["--heartbeat", "nan"]):
        with pytest.raises(SystemExit) as excinfo:
            main(bad + ["--output", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2


def test_bench_baseline_gates_speedup_vs_replay():
    """The baseline gate floors ``fast_speedup_vs_replay``, the fast and
    replay[dtrg] throughputs and the served-telemetry overhead, and
    refuses a baseline of another schema or scale (the checked-in file
    is current)."""
    checked_in = Path(__file__).resolve().parents[2] / "benchmarks" / \
        "bench_baseline.json"
    current = json.loads(checked_in.read_text())
    assert current["schema"] == BASELINE_SCHEMA
    assert current["scale"] == "table2"

    row = {"name": "Jacobi", "fast_speedup_vs_replay": 1.1,
           "served_overhead_pct": 1.0,
           "legs": {"fast": {"access_events_per_second": 1e6},
                    "replay[dtrg]": {"status": "ok",
                                     "events_per_second": 2e5}}}
    data = {"scale": "table2", "workloads": [row]}
    baseline = {"schema": BASELINE_SCHEMA, "scale": "table2", "workloads": {
        "Jacobi": {"fast_access_events_per_second": 5e5,
                   "min_fast_speedup_vs_replay": 1.25,
                   "replay_events_per_second": 1e5,
                   "max_served_overhead_pct": 5.0}}}

    def check(data, baseline):
        return check_baseline(data, baseline, out=io.StringIO())

    (violation,) = check(data, baseline)
    assert "fast speedup vs replay 1.10 below floor 1.25" in violation
    row["fast_speedup_vs_replay"] = 2.0
    assert check(data, baseline) == []

    row["legs"]["replay[dtrg]"]["events_per_second"] = 8e4
    (violation,) = check(data, baseline)
    assert "replay[dtrg] throughput 80000 ev/s regressed" in violation
    row["legs"]["replay[dtrg]"]["events_per_second"] = 2e5

    row["served_overhead_pct"] = 7.5
    (violation,) = check(data, baseline)
    assert "served telemetry overhead +7.50% exceeds the 5.0%" in violation
    row["served_overhead_pct"] = 1.0

    (violation,) = check(dict(data, scale="tiny"), baseline)
    assert "'tiny'" in violation and "'table2'" in violation

    stale = dict(baseline, schema="repro.bench.baseline/0")
    (violation,) = check(data, stale)
    assert "schema" in violation
