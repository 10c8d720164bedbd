"""Unit tests for the STTree — including the paper's Listing 1 scenario.

Listing 1 / Figure 2: ``Class1.methodD`` line 4 allocates an int array.
It is reached through two branches of ``methodB`` (lines 21 and 26, both
via ``methodC``) and additionally from inside ``methodC`` itself
(line 10).  The three paths carry three different target generations, so
the shared leaf conflicts and each path must push its generation up to a
distinguishing ancestor — generations 2 and 3 land on ``methodB``'s two
call sites, generation 1 on ``methodC``'s inner call site.
"""

import pytest

from repro.core.sttree import STTree
from repro.errors import ConflictResolutionError

C = "Class1"

#: The allocation paths of Listing 1 (innermost frame last).  Each trace
#: ends at methodD line 4, the shared allocation site.
LEAF = (C, "methodD", 4)
TRACE_VIA_B21 = (
    (C, "methodA", 34),
    (C, "methodB", 21),
    (C, "methodC", 6),
    LEAF,
)
TRACE_VIA_B21_INNER = (
    (C, "methodA", 34),
    (C, "methodB", 21),
    (C, "methodC", 10),
    LEAF,
)
TRACE_VIA_B26 = (
    (C, "methodA", 34),
    (C, "methodB", 26),
    (C, "methodC", 6),
    LEAF,
)


def build_listing1_tree() -> STTree:
    """Generations as painted in Figure 2: blue subtree (via methodB:21)
    = gen 2, its yellow override (methodC:10) = gen 1, red subtree (via
    methodB:26) = gen 3."""
    tree = STTree()
    tree.insert(TRACE_VIA_B21, target_gen=2, object_count=50)
    tree.insert(TRACE_VIA_B21_INNER, target_gen=1, object_count=30)
    tree.insert(TRACE_VIA_B26, target_gen=3, object_count=40)
    return tree


class TestConstruction:
    def test_leaves_registered(self):
        tree = build_listing1_tree()
        assert len(tree.leaves) == 3
        assert all(leaf.location == LEAF for leaf in tree.leaves)

    def test_reinsertion_merges_counts(self):
        tree = STTree()
        tree.insert(TRACE_VIA_B21, 2, 10)
        tree.insert(TRACE_VIA_B21, 2, 5)
        assert len(tree.leaves) == 1
        assert tree.leaves[0].object_count == 15

    def test_reinsertion_with_other_gen_rejected(self):
        tree = STTree()
        tree.insert(TRACE_VIA_B21, 2)
        with pytest.raises(ConflictResolutionError):
            tree.insert(TRACE_VIA_B21, 3)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            STTree().insert((), 1)

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError):
            STTree().insert(TRACE_VIA_B21, -1)

    def test_path_reconstruction(self):
        tree = build_listing1_tree()
        paths = {tuple(leaf.path()) for leaf in tree.leaves}
        assert TRACE_VIA_B21 in paths
        assert TRACE_VIA_B26 in paths


class TestConflictDetection:
    def test_listing1_has_one_conflict_group(self):
        tree = build_listing1_tree()
        conflicts = tree.detect_conflicts()
        assert len(conflicts) == 1
        group = conflicts[0]
        assert group.location == LEAF
        assert group.generations == frozenset({1, 2, 3})
        assert len(group.leaves) == 3

    def test_same_gen_everywhere_is_not_a_conflict(self):
        tree = STTree()
        tree.insert(TRACE_VIA_B21, 2)
        tree.insert(TRACE_VIA_B26, 2)
        assert tree.detect_conflicts() == []

    def test_distinct_sites_do_not_conflict(self):
        tree = STTree()
        tree.insert(((C, "a", 1), (C, "x", 9)), 1)
        tree.insert(((C, "b", 2), (C, "y", 8)), 2)
        assert tree.detect_conflicts() == []


class TestConflictResolution:
    def test_listing1_resolution_matches_figure2(self):
        tree = build_listing1_tree()
        plan = tree.instrumentation_plan()
        assert LEAF in plan.annotate_sites
        # Figure 2's directive placement:
        assert plan.call_directives[(C, "methodB", 21)] == 2
        assert plan.call_directives[(C, "methodB", 26)] == 3
        assert plan.call_directives[(C, "methodC", 10)] == 1

    def test_unresolvable_identical_paths_raise(self):
        tree = STTree()
        # Two different leaf *instances* cannot share the identical path,
        # so craft a group whose members differ only at the leaf object —
        # paths diverging nowhere: single-frame traces.
        tree.insert((LEAF,), 1)
        # A second single-frame trace at the same site with a different
        # generation would have to be an identical trace; simulate the
        # pathological group directly.
        from repro.core.sttree import ConflictGroup

        leaf = tree.leaves[0]
        fake_group = ConflictGroup(
            location=LEAF, generations=frozenset({1, 2}), leaves=(leaf, leaf)
        )
        with pytest.raises(ConflictResolutionError):
            tree.solve_conflict(fake_group, taken={})

    def test_resolution_avoids_taken_locations(self):
        tree = build_listing1_tree()
        taken = {(C, "methodB", 21): 9}  # already claimed by another group
        conflicts = tree.detect_conflicts()
        resolution = tree.solve_conflict(conflicts[0], taken)
        placements = {node.location for node in resolution.values()}
        assert (C, "methodB", 21) not in placements


class TestPushUp:
    def test_uniform_subtree_hoisted_once(self):
        tree = STTree()
        root_call = (C, "run", 1)
        for line in (10, 11, 12):
            tree.insert((root_call, (C, "load", line)), 2)
        plan = tree.instrumentation_plan(push_up=True)
        assert plan.call_directives == {root_call: 2}
        assert plan.alloc_brackets == {}
        assert len(plan.annotate_sites) == 3

    def test_without_push_up_each_site_bracketed(self):
        tree = STTree()
        root_call = (C, "run", 1)
        for line in (10, 11, 12):
            tree.insert((root_call, (C, "load", line)), 2)
        plan = tree.instrumentation_plan(push_up=False)
        assert plan.call_directives == {}
        assert len(plan.alloc_brackets) == 3
        assert all(g == 2 for g in plan.alloc_brackets.values())

    def test_mixed_subtree_splits(self):
        tree = STTree()
        root_call = (C, "run", 1)
        tree.insert((root_call, (C, "mid", 5), (C, "leafA", 10)), 1)
        tree.insert((root_call, (C, "other", 6), (C, "leafB", 20)), 2)
        plan = tree.instrumentation_plan(push_up=True)
        assert plan.call_directives[(C, "mid", 5)] == 1
        assert plan.call_directives[(C, "other", 6)] == 2

    def test_young_leaves_need_nothing(self):
        tree = STTree()
        tree.insert(((C, "run", 1), (C, "m", 10)), 0)
        plan = tree.instrumentation_plan()
        assert plan.annotate_sites == set()
        assert plan.call_directives == {}
        assert plan.alloc_brackets == {}

    def test_deep_uniform_chain_single_directive(self):
        tree = STTree()
        trace = tuple((C, f"m{i}", i) for i in range(6)) + ((C, "alloc", 99),)
        tree.insert(trace, 3)
        plan = tree.instrumentation_plan(push_up=True)
        assert len(plan.call_directives) == 1
        assert list(plan.call_directives.values()) == [3]


class TestPlanMetrics:
    def test_instrumented_site_count(self):
        tree = build_listing1_tree()
        plan = tree.instrumentation_plan()
        assert plan.instrumented_site_count == 1  # one shared site

    def test_generations_used(self):
        tree = build_listing1_tree()
        plan = tree.instrumentation_plan()
        assert plan.generations_used >= {1, 2, 3}


class TestIrreparablePaths:
    """Directive interference no placement can undo (the lucene shape).

    ``flush`` runs both straight from ``update:25`` (generation 3) and
    under ``merge:40`` (generation 2), and one merge path through
    ``flush:34`` into the shared ``pool:60`` site wants young.  ``merge:40``
    is the only call site telling the two ``flush`` contexts apart and
    must carry generation 2, and ``flush:34``/``pool:60`` are shared, so
    no directive can send that path young without mis-tenuring its
    generation-3 twin.
    """

    W = "W"
    ENTRY = (W, "add", 15)
    UPDATE = (W, "update", 25)
    MERGE = (W, "merge", 40)
    POOL = (W, "pool", 60)
    STUCK = (ENTRY, UPDATE, MERGE, (W, "flush", 34), POOL)

    def build(self) -> STTree:
        w, entry, update, merge, pool = (
            self.W, self.ENTRY, self.UPDATE, self.MERGE, self.POOL
        )
        tree = STTree()
        tree.insert((entry, (w, "update", 23), pool), 1, 500)
        tree.insert((entry, update, (w, "flush", 30)), 3, 400)
        tree.insert((entry, update, (w, "flush", 34), pool), 3, 32)
        tree.insert((entry, update, merge, (w, "flush", 30)), 2, 300)
        tree.insert(self.STUCK, 0, 4)
        return tree

    def test_plan_reports_instead_of_raising(self):
        plan = self.build().instrumentation_plan()
        assert plan.mistenured == [self.STUCK]

    def test_every_other_path_is_exact(self):
        tree = self.build()
        plan = tree.instrumentation_plan()
        for leaf in tree.leaves:
            path = tuple(leaf.path())
            if path != self.STUCK:
                assert tree._simulate(list(path), plan) == leaf.target_gen

    def test_satisfiable_trees_report_nothing(self):
        assert build_listing1_tree().instrumentation_plan().mistenured == []
