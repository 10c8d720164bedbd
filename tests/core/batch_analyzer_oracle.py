"""The batch bucket algorithm, frozen as a reference oracle.

Before the streaming stages, the Analyzer held the whole snapshot
sequence and counted, per recorded object id, the snapshots it appears
live in — one intersection per snapshot, in time order — then folded the
counts into per-trace histograms up to the final snapshot's largest live
id.  That is the definition of the paper's buckets (§3.3), so
:class:`~repro.core.stages.IncrementalAnalyzer` (cohort algebra over
delta chains, synthesized deltas for full images) is checked against it.
"""

from __future__ import annotations

import collections
from typing import Dict, Optional, Sequence

from repro.core.analyzer import (
    build_trace_tree,
    estimate_trace_generations,
    lifetime_distributions,
)
from repro.core.idset import IdSet
from repro.core.profile import AllocationProfile
from repro.core.recorder import AllocationRecords
from repro.core.sttree import STTree
from repro.snapshot.snapshot import Snapshot


def batch_survival_counts(
    records: AllocationRecords, snapshots: Sequence[Snapshot]
) -> Dict[int, int]:
    """Recorded id -> number of snapshots it is live in."""
    recorded = IdSet(records.recorded_object_ids())
    counts: Dict[int, int] = collections.defaultdict(int)
    for snapshot in snapshots:
        for object_id in (snapshot.live_object_ids & recorded).to_list():
            counts[object_id] += 1
    return dict(counts)


def batch_id_cutoff(snapshots: Sequence[Snapshot]) -> Optional[int]:
    """The largest id live in the last snapshot (None: nothing observed)."""
    ordered = sorted(snapshots, key=lambda s: s.time_ms)
    if not ordered or not ordered[-1].live_object_ids:
        return None
    return ordered[-1].live_object_ids.max()


def batch_estimates(
    records: AllocationRecords,
    snapshots: Sequence[Snapshot],
    max_generations: int = 16,
    min_samples: int = 8,
) -> Dict[int, int]:
    distributions = lifetime_distributions(
        records,
        batch_survival_counts(records, snapshots),
        batch_id_cutoff(snapshots),
    )
    return estimate_trace_generations(distributions, max_generations, min_samples)


def batch_sttree(
    records: AllocationRecords,
    snapshots: Sequence[Snapshot],
    max_generations: int = 16,
    min_samples: int = 8,
) -> STTree:
    return build_trace_tree(
        records, batch_estimates(records, snapshots, max_generations, min_samples)
    )


def batch_profile(
    records: AllocationRecords,
    snapshots: Sequence[Snapshot],
    workload: str = "unknown",
    min_samples: int = 8,
) -> AllocationProfile:
    return AllocationProfile.from_sttree(
        batch_sttree(records, snapshots, min_samples=min_samples),
        workload=workload,
        push_up=True,
        metadata={
            "snapshots_analyzed": len(snapshots),
            "traces_analyzed": records.trace_count,
            "allocations_recorded": records.total_allocations,
            "push_up": True,
        },
    )
