"""Property-based tests for the Analyzer's bucket algorithm."""

from __future__ import annotations

from typing import Dict, List, Set

from hypothesis import given, settings, strategies as st

from repro.core.analyzer import survival_to_generation
from repro.core.recorder import AllocationRecords
from repro.snapshot.snapshot import Snapshot
from tests.core.test_analyzer import analyze


def make_snapshot(seq: int, live_ids) -> Snapshot:
    return Snapshot(
        seq=seq,
        time_ms=float(seq),
        engine="t",
        pages_written=0,
        size_bytes=0,
        duration_us=0.0,
        live_object_ids=frozenset(live_ids),
    )


#: Object populations: per object, the number of snapshots it stays live.
populations = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=60
)


def build_world(lifetimes: List[int], snapshot_count: int = 12):
    """One trace; object i survives exactly ``lifetimes[i]`` snapshots."""
    records = AllocationRecords()
    trace = (("C", "site", 1),)
    for index in range(len(lifetimes)):
        records.log(trace, index + 1)
    snapshots = []
    for seq in range(1, snapshot_count + 1):
        live = {
            index + 1
            for index, lifetime in enumerate(lifetimes)
            if lifetime >= seq
        }
        # Keep the newest id visible so the id cutoff never excludes
        # objects (the cutoff is tested separately).
        live.add(len(lifetimes))
        snapshots.append(make_snapshot(seq, live))
    return records, snapshots


class TestSurvivalToGenerationProperties:
    @given(survival=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, survival):
        a = survival_to_generation(survival, 16)
        b = survival_to_generation(survival + 1, 16)
        assert b >= a

    @given(
        survival=st.integers(min_value=0, max_value=10_000),
        max_generations=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, survival, max_generations):
        gen = survival_to_generation(survival, max_generations)
        assert 0 <= gen <= max_generations - 1


class TestBucketAlgorithmProperties:
    @given(lifetimes=populations)
    @settings(max_examples=60, deadline=None)
    def test_survival_counts_match_ground_truth(self, lifetimes):
        records, snapshots = build_world(lifetimes)
        analyzer = analyze(records, snapshots, min_samples=1)
        counts = analyzer.survival_counts
        for index, lifetime in enumerate(lifetimes):
            object_id = index + 1
            expected = min(lifetime, len(snapshots))
            if object_id == len(lifetimes):
                expected = len(snapshots)  # pinned visible in every snapshot
            assert counts.get(object_id, 0) == expected

    @given(lifetimes=populations)
    @settings(max_examples=60, deadline=None)
    def test_distribution_accounts_every_object(self, lifetimes):
        records, snapshots = build_world(lifetimes)
        analyzer = analyze(records, snapshots, min_samples=1)
        dist = analyzer.distributions[1]
        assert dist.sample_count == len(lifetimes)

    @given(lifetimes=populations)
    @settings(max_examples=60, deadline=None)
    def test_estimate_within_observed_range(self, lifetimes):
        records, snapshots = build_world(lifetimes)
        analyzer = analyze(records, snapshots, min_samples=1)
        estimate = analyzer.estimates[1]
        max_possible = survival_to_generation(len(snapshots), 16)
        assert 0 <= estimate <= max_possible
