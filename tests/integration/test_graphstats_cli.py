"""Integration tests for the repro-graphstats CLI."""

import pytest

from repro.tools.graphstats import GRAPH_WORKLOADS, main, record_graph


def test_cli_prints_profile(capsys):
    assert main(["--workload", "ReduceTree", "--scale", "tiny",
                 "--workers", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "work T1" in out and "span Tinf" in out
    assert "greedy speedup" in out
    assert "non-tree join" in out


def test_cli_rejects_unknown_workload():
    for bad in (["--workload", "Nope"], ["--workers", "0"]):
        with pytest.raises(SystemExit) as excinfo:
            main(bad)
        assert excinfo.value.code == 2


@pytest.mark.parametrize("name", sorted(GRAPH_WORKLOADS))
def test_every_registered_workload_records_a_graph(name):
    graph = record_graph(name, "tiny")
    assert graph.num_steps > 0
    assert graph.num_tasks >= 1
    # step ids are a topological order everywhere
    assert all(src < dst for src, dst, _ in graph.edges)


def test_af_variants_have_zero_non_tree_edges():
    from repro.graph import EdgeKind

    for name in ("Series-af", "Crypt-af", "Jacobi-af", "SOR-af", "NQueens"):
        graph = record_graph(name, "tiny")
        assert graph.edge_counts()[EdgeKind.JOIN_NON_TREE] == 0, name


def test_future_variants_have_non_tree_edges():
    from repro.graph import EdgeKind

    for name in ("Jacobi", "Smith-Waterman", "Strassen", "SOR", "LUFact"):
        graph = record_graph(name, "tiny")
        assert graph.edge_counts()[EdgeKind.JOIN_NON_TREE] > 0, name
