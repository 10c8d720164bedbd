"""What the benchmark runs and measures: workloads, phases, metrics.

The benchmark times the two phases POLM2 is used in (paper §3.5) the way
the ``repro`` CLI runs them:

* ``profile``         -- ``POLM2Pipeline.run_profiling_phase`` (``repro profile``);
* ``run``             -- ``POLM2Pipeline.run("polm2", profile=...)``, the
  production phase of ``repro run``;
* ``g1_run``          -- ``POLM2Pipeline.run("g1")``, the baseline every
  ``evaluate``/``matrix`` sweep runs;
* ``offline_profile`` -- ``record_to_dir`` then ``analyze_recording``
  (``repro profile --keep-recording``).

Every workload runs all four phases back to back in one single-threaded
process (a closed loop: each phase starts when the previous one returns),
so that every end-to-end metric exists on every workload.  The virtual
durations differ per workload so that each round spends most of its host
time in the phases that workload was chosen to stress.

Metric names and units, and why each workload was chosen, are written once,
in ``BENCHMARK.json``; this module holds how the workloads run and how
per-layer aggregates are grouped.
"""

from __future__ import annotations

import json
import os
from typing import Dict, NamedTuple, Tuple

PHASES = ("profile", "run", "g1_run", "offline_profile")

BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def metric_units(bench: dict, trace: int) -> Dict[str, str]:
    """Metric name -> unit that a ``--trace`` run must print, in order."""
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in bench[key]}


class WorkloadSpec(NamedTuple):
    """One benchmark workload: a repro workload plus phase durations."""

    #: Name passed to ``repro.workloads.make_workload``.
    repro_workload: str
    #: Virtual ms of the profiling phase; the offline recording uses the
    #: same length so its STTree digest must equal the in-VM one.
    profile_ms: float
    #: Virtual ms of each production phase (polm2 and g1).
    run_ms: float
    #: ``(profile_ms, run_ms)`` for ``--smoke``: the shortest lengths at
    #: which every output check still has something to check.
    smoke_ms: Tuple[float, float]


# Shares quoted below are traced self-time shares of one phase at seed 42
# on a 2-vCPU container; the traced run reports them as ``share.*``.
WORKLOADS: Dict[str, WorkloadSpec] = {
    # 75% writes / 25% reads, so both request paths run.  The scalar
    # allocation chain (runtime.allocate_at_site + heap.allocate +
    # gc.before_allocation) owns 61% of run_s, the mutator 35%, collection
    # 3% and the batch path 0.1%.  A heterogeneous-site allocation buffer
    # must show its gain here.
    "cassandra-wi-run": WorkloadSpec(
        repro_workload="cassandra-wi",
        profile_ms=2_000.0,
        run_ms=4_000.0,
        smoke_ms=(2_000.0, 2_000.0),
    ),
    # The batched path (runtime.allocate_batch + heap.allocate_batch) owns
    # 51% of profile_s and the scalar chain 22%, with Recorder batch hooks,
    # 13 snapshots and an STTree build.  Its profiling and offline phases
    # dominate its round.  A scalar-path gain that slows batch allocation or
    # the Recorder hooks shows here.  Profiling runs 5 virtual s: at 4 s the
    # profile (and so every polm2 metric) still differs between seeds.  The
    # production phases run 4 virtual s (about 3 host s each) so that run_s
    # and g1_run_s samples are as long as profile_s ones.
    "lucene-profile": WorkloadSpec(
        repro_workload="lucene",
        profile_ms=5_000.0,
        run_ms=4_000.0,
        smoke_ms=(2_000.0, 700.0),
    ),
}

#: The layer group expected to own the largest traced share of a phase,
#: per workload (the acceptance split).  ``(phase, group)``.
EXPECTED_SPLIT: Dict[str, Tuple[str, str]] = {
    "cassandra-wi-run": ("run", "scalar_alloc"),
    "lucene-profile": ("profile", "batch_alloc"),
}

#: Fresh processes that only set up, timed for ``setup_s`` (median).
SETUP_SAMPLES = 11

#: Layer groups whose self-time shares of each phase are reported as
#: ``share.<phase>.<group>``; no boundary belongs to two groups.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "mutator": (
        "workloads.tick",
        "workloads.cassandra.write",
        "workloads.cassandra.read",
        "workloads.lucene.add_document",
    ),
    "scalar_alloc": (
        "runtime.allocate_at_site",
        "heap.allocate",
        "gc.before_allocation",
    ),
    "batch_alloc": ("runtime.allocate_batch", "heap.allocate_batch"),
    "collector": ("gc.collect", "heap.evacuate", "heap.trace_live"),
    "profiler": (
        "core.recorder.on_allocation",
        "core.recorder.on_allocation_batch",
        "core.recorder.on_gc_end",
        "core.dumper.take_snapshot",
        "core.stages.on_snapshot_point",
        "core.stages.build",
        "core.records.flush_to_dir",
        "core.records.load_from_dir",
        "core.offline.analyze_recording",
        "core.instrumenter.transform",
        "snapshot.checkpoint",
        "snapshot.store.save",
        "snapshot.store.load",
        "heap.mark_unused_pages_no_need",
    ),
}


# -- predictions: which layer metric should move which end-to-end metric ------
# Written down before any optimisation, so that a claimed gain can be checked
# against the share of time its layer owns on the workload it names.
#
#   layer metric                                  moves                      on
#   workloads.* (mutator residual time)           every host metric          all
#   runtime.allocate_at_site                      run_s, g1_run_s            cassandra-wi-run
#   runtime.allocate_batch                        profile_s, ~0 on cassandra lucene-profile
#   runtime.batch_share (buffer useful-outcome)   run_s                      all
#   heap.allocate                                 run_s                      cassandra-wi-run
#   heap.allocate_batch                           profile_s                  lucene-profile
#   heap.evacuate, heap.trace_live                g1_run_s                   cassandra-wi-run
#   heap.mark_unused_pages_no_need                profile_s                  lucene-profile
#   gc.before_allocation                          run_s                      cassandra-wi-run
#   gc.collect, gc.trigger_ratio                  g1_run_s                   cassandra-wi-run
#   core.recorder.*, core.dumper.*, core.stages.*  profile_s (0 in run_s)    lucene-profile
#   core.records.*, core.offline.*                offline_profile_s          lucene-profile
#   core.instrumenter.transform                   guard on setup_s, run_s    all
#   snapshot.checkpoint                           profile_s                  lucene-profile
#   snapshot.store.*                              offline_profile_s          lucene-profile
