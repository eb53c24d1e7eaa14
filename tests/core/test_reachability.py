"""Unit tests for the dynamic task reachability graph (Section 4.1)."""

import pytest

from repro import DeterminacyRaceDetector, Runtime, SharedArray
from repro.core.reachability import DynamicTaskReachabilityGraph


def build_chain():
    """main -> A (future) -> B (future), fully live."""
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.add_task("A", "B", is_future=True, name="B")
    return g


def test_task_precedes_itself():
    g = build_chain()
    assert g.precede("A", "A")


def test_live_ancestor_precedes_descendant():
    g = build_chain()
    assert g.precede("main", "B")
    assert g.precede("A", "B")


def test_completed_sibling_does_not_precede():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "B", is_future=True, name="B")
    assert not g.precede("A", "B")
    assert not g.precede("B", "A")


def test_tree_join_via_parent_get_merges():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.record_join("main", "A")  # parent get: tree join
    assert g.same_set("main", "A")
    assert g.num_tree_merges == 1
    assert g.num_non_tree_edges == 0
    g.add_task("main", "B", is_future=True, name="B")
    assert g.precede("A", "B")  # through the merged set's containment


def test_sibling_get_records_non_tree_edge():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "B", is_future=True, name="B")
    g.record_join("B", "A")  # sibling join: non-tree
    assert g.num_non_tree_edges == 1
    assert g.non_tree_predecessors("B") == ["A"]
    assert g.precede("A", "B")
    assert not g.precede("B", "A")


def test_repeated_join_is_idempotent():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.record_join("main", "A")
    g.record_join("main", "A")  # same set now: no-op
    assert g.num_tree_merges == 1


def test_transitive_path_through_two_non_tree_edges():
    # A -> B (B got A), B -> C (C got B): A must precede C.
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "B", is_future=True, name="B")
    g.record_join("B", "A")
    g.on_terminate("B")
    g.add_task("main", "C", is_future=True, name="C")
    g.record_join("C", "B")
    assert g.precede("A", "C")
    assert g.precede("B", "C")


def test_lsa_assignment_rules():
    """Algorithm 2 lines 7-11: lsa is the parent iff the parent's set has
    non-tree edges, else inherited."""
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "P", is_future=True, name="P")
    g.add_task("P", "C1", is_future=True, name="C1")
    assert g.lsa_of("C1") is None  # no non-tree edges anywhere yet
    g.on_terminate("C1")
    g.add_task("main", "X", is_future=True, name="X")
    g.on_terminate("X")
    # X completed as a sibling subtree of P?  No: X is child of main spawned
    # while P live — allowed in this synthetic driver.  P joins it: non-tree.
    g.record_join("P", "X")
    g.add_task("P", "C2", is_future=True, name="C2")
    assert g.lsa_of("C2") == "P"  # parent's set now has an nt edge
    g.add_task("C2", "D", is_future=True, name="D")
    assert g.lsa_of("D") == "P"  # inherited: C2's set has no nt edges


def test_reachability_through_ancestors_non_tree_edge():
    """A join recorded into an ancestor before the current task's branch
    spawned must order the producer before the current task (the LSA walk)."""
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    g.add_task("main", "W", is_future=True, name="W")
    g.record_join("W", "A")  # non-tree into W
    g.add_task("W", "child", is_future=True, name="child")
    # A's completion reaches W's post-get step, which precedes child's spawn.
    assert g.precede("A", "child")


def test_merged_member_non_tree_edge_not_pruned():
    """Regression for the unsound preorder prune (DESIGN.md §3).

    main spawns F1 and F2; F2 joins F1 (non-tree); main joins F2 (tree
    merge — main's set label has pre 0 while the nt edge source F1 has
    pre 1).  precede(F1, main) must be True via the merged nt list.
    """
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "F1", is_future=True, name="F1")
    g.on_terminate("F1")
    g.add_task("main", "F2", is_future=True, name="F2")
    g.record_join("F2", "F1")  # non-tree
    g.on_terminate("F2")
    g.record_join("main", "F2")  # tree merge into main's set
    assert g.precede("F1", "main")


def test_future_chain_final_state_precede_is_all_true():
    """The paper's Figure 1 shape: a future chain joined by main.

    After the end-finish merge (Algorithm 6) every task sits in one set,
    so PRECEDE on the *final* graph is all-True — and it would hide the
    race between ``f1``'s write and main's unordered write that the
    online check reports.  This is why every checker queries the DTRG
    as it stood at each access (ALGORITHM.md §12)."""
    det = DeterminacyRaceDetector(engine="object")
    rt = Runtime(observers=[det])
    mem = SharedArray(rt, "x", 1)

    def f1_body():
        mem.write(0, 1)
        return 1

    def program(rt_):
        with rt.finish():
            f1 = rt.future(f1_body, name="f1")
            mem.write(0, 2)  # not ordered after f1's write: a race
            f2 = rt.future(lambda: rt.get(f1) + 1, name="f2")
            assert rt.get(f2) == 2

    rt.run(program)
    assert det.report.racy_locations == {("x", 0)}
    (keys,) = det.dtrg.partition()  # one set after the end-finish merge
    assert len(keys) == 3
    for a in keys:
        for b in keys:
            assert det.dtrg.precede(a, b) is True


def test_statistics_counters():
    g = DynamicTaskReachabilityGraph()
    g.add_root("main")
    g.add_task("main", "A", is_future=True, name="A")
    g.on_terminate("A")
    # Pruned at level 0 (A postdates everything in main's set), so the
    # expansion counter does not move: num_visits counts VISIT
    # *expansions* only, never level-0 resolutions.
    g.precede("A", "main")
    assert g.num_precede_queries == 1
    assert g.num_visits == 0
    # A query that must actually search backwards expands at least B's set.
    g.add_task("main", "B", is_future=True, name="B")
    g.record_join("B", "A")  # non-tree edge A -> B's set
    g.precede("A", "B")
    assert g.num_precede_queries == 2
    assert g.num_visits >= 1


@pytest.mark.parametrize(
    "options",
    [
        {"use_lsa": False},
        {"memoize_visit": False},
        {"use_intervals": False},
        {"use_lsa": False, "memoize_visit": False, "use_intervals": False},
    ],
)
def test_ablation_variants_agree_on_small_graph(options):
    def build(**kw):
        g = DynamicTaskReachabilityGraph(**kw)
        g.add_root("m")
        g.add_task("m", "a", is_future=True, name="a")
        g.on_terminate("a")
        g.add_task("m", "b", is_future=True, name="b")
        g.record_join("b", "a")
        g.on_terminate("b")
        g.add_task("m", "c", is_future=True, name="c")
        g.record_join("c", "b")
        g.on_terminate("c")
        g.record_join("m", "c")
        g.add_task("m", "d", is_future=True, name="d")
        return g

    reference = build()
    variant = build(**options)
    tasks = ["m", "a", "b", "c", "d"]
    for x in tasks:
        for y in tasks:
            assert reference.precede(x, y) == variant.precede(x, y), (x, y)
