"""Integration tests for the ``repro-bench`` JSON artifact entry point."""

import json

from repro.harness.bench import BENCH_SCHEMA, bench_data, main


def test_bench_writes_schema_tagged_json(tmp_path, capsys):
    out = tmp_path / "BENCH_PR4.json"
    code = main(["--scale", "tiny", "--repeats", "1",
                 "--only", "Series-af", "--only", "Jacobi",
                 "--output", str(out), "--tag", "unit-test"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == BENCH_SCHEMA
    assert data["tag"] == "unit-test"
    assert data["scale"] == "tiny" and data["repeats"] == 1
    names = [w["name"] for w in data["workloads"]]
    assert names == ["Series-af", "Jacobi"]
    for w in data["workloads"]:
        assert w["seq_seconds"] > 0
        assert w["racedet_seconds"] > 0
        assert w["races"] == 0
        assert w["structural"]["num_tasks"] > 0
        assert "cache_hit_rate" in w["detector_perf"]
    # Jacobi's wavefront of future joins produces non-tree edges and
    # therefore a meaningful PRECEDE cache hit rate.
    jacobi = data["workloads"][1]
    assert jacobi["structural"]["num_nt_joins"] > 0
    assert jacobi["detector_perf"]["precede_queries"] > 0


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
    import pytest

    for bad in (["--workers", "0,2"], ["--workers", "nope"],
                ["--repeats", "0"]):
        with pytest.raises(SystemExit) as excinfo:
            main(bad + ["--output", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2


def test_throughput_baseline_gates_speedup_vs_replay():
    """The throughput gate floors ``speedup_total_vs_replay`` and refuses
    a baseline of another schema (the checked-in file is current)."""
    import io
    from pathlib import Path

    from repro.harness.bench import (
        THROUGHPUT_BASELINE_SCHEMA,
        check_throughput_baseline,
    )

    checked_in = Path(__file__).resolve().parents[2] / "benchmarks" / \
        "throughput_baseline.json"
    assert json.loads(checked_in.read_text())["schema"] == \
        THROUGHPUT_BASELINE_SCHEMA
    row = {"name": "Jacobi", "speedup_total_vs_replay": 1.1,
           "fast": {"access_events_per_second": 1e6}}
    data = {"workloads": [row]}
    baseline = {"schema": THROUGHPUT_BASELINE_SCHEMA, "workloads": {
        "Jacobi": {"access_events_per_second": 5e5,
                   "min_speedup_vs_replay": 1.25}}}
    (violation,) = check_throughput_baseline(data, baseline,
                                             out=io.StringIO())
    assert "speedup vs replay 1.10 below floor 1.25" in violation
    row["speedup_total_vs_replay"] = 2.0
    assert check_throughput_baseline(data, baseline, out=io.StringIO()) == []
    stale = dict(baseline, schema="repro.bench.throughput-baseline/1")
    (violation,) = check_throughput_baseline(data, stale, out=io.StringIO())
    assert "schema" in violation
