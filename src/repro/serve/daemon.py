"""The ``repro serve`` daemon: cycles → merge → commit → serve.

One daemon owns, per workload, ``instances`` simulated VM instances (the
stand-in for a fleet of JVMs running the same service).  Every round it
runs one budgeted profiling cycle per instance; each completed cycle's
STTree is merged — *inside that cycle's budget*, as injected post
stages — into the workload's accumulated tree and committed to the
content-addressed :class:`~repro.core.profilestore.ProfileStore`, where
the HTTP API serves it to production-phase VMs.

Crash safety: after every commit the daemon persists its cycle state
(committed-round counts, latest hashes, lifetime counters) to
``serve-state.json`` with the same unique-temp-name + ``os.replace``
pattern the store uses, so a killed daemon resumes at the next
uncommitted round.  A kill *mid*-round can at worst replay that round's
merges — harmless, because the STTree merge is idempotent (a semilattice
join): re-merging an already-committed cycle reproduces the committed
hash bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SimConfig
from repro.core.profile import AllocationProfile
from repro.core.profilestore import ProfileStore, profile_content_hash
from repro.core.sttree import STTree
from repro.errors import ProfileError, ProfileFormatError
from repro.serve.api import ProfileService
from repro.serve.cycle import CycleReport, ProfilingCycleEngine

#: State file format marker (same versioning discipline as profiles).
STATE_FORMAT = "polm2-serve-state-v1"
STATE_FILE = "serve-state.json"


@dataclasses.dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run."""

    workloads: Sequence[str]
    #: Simulated VM instances per workload; instance ``i`` runs at
    #: ``seed + i`` so the fleet is heterogeneous but reproducible.
    instances: int = 1
    seed: int = 42
    sim_duration_ms: float = 1_500.0
    cycle_budget_s: float = 60.0
    #: Rounds to run before exiting; ``None`` means run until stopped.
    max_rounds: Optional[int] = None
    store_dir: str = "profile-store"
    host: str = "127.0.0.1"
    port: int = 0
    snapshot_every: int = 1
    push_up: bool = True
    #: Idle gap between rounds (the daemon sleeps interruptibly).
    round_interval_s: float = 0.0
    #: Simulated heap sizing (None keeps SimConfig defaults).  Small
    #: heaps force frequent collections, so short cycles still observe
    #: object promotion.
    heap_bytes: Optional[int] = None
    young_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        self.workloads = list(self.workloads)
        if not self.workloads:
            raise ProfileError("repro serve needs at least one workload")
        if self.instances < 1:
            raise ProfileError(
                f"instances must be >= 1, got {self.instances}"
            )


class ServeDaemon:
    """Continuous profiling for a set of workloads, served over HTTP."""

    def __init__(
        self,
        config: ServeConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self.store = ProfileStore(config.store_dir)
        self.state_path = os.path.join(config.store_dir, STATE_FILE)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.service: Optional[ProfileService] = None
        #: In-memory cache of each workload's accumulated (merged) tree.
        self._latest_tree: Dict[str, STTree] = {}
        #: The tree a cycle's merge stage produced, awaiting its commit
        #: stage; discarded if the budget expires between the two.
        self._pending: Dict[str, STTree] = {}
        self.cycles_committed: Dict[str, int] = {
            name: 0 for name in config.workloads
        }
        self.recordings_received = 0
        #: Counter totals restored from a previous incarnation's state.
        self._base_totals: Dict[str, float] = {
            "cycles_run": 0,
            "cycles_truncated": 0,
            "overrun_s_total": 0.0,
        }
        self._load_state()
        sim_overrides: Dict[str, int] = {}
        if config.heap_bytes is not None:
            sim_overrides["heap_bytes"] = config.heap_bytes
        if config.young_bytes is not None:
            sim_overrides["young_bytes"] = config.young_bytes
        self.engines: Dict[str, List[ProfilingCycleEngine]] = {}
        for name in config.workloads:
            self.engines[name] = [
                ProfilingCycleEngine(
                    name,
                    seed=config.seed + instance,
                    config=SimConfig(
                        seed=config.seed + instance, **sim_overrides
                    ),
                    sim_duration_ms=config.sim_duration_ms,
                    budget_s=config.cycle_budget_s,
                    snapshot_every=config.snapshot_every,
                    push_up=config.push_up,
                    clock=clock,
                    post_stages=[
                        ("merge", self._merge_stage(name)),
                        ("commit", self._commit_stage(name)),
                    ],
                )
                for instance in range(config.instances)
            ]

    # -- crash-safe state --------------------------------------------------------------

    def _load_state(self) -> None:
        try:
            with open(self.state_path) as handle:
                text = handle.read()
        except OSError:
            self._restore_latest_trees()
            return
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProfileFormatError(
                f"{self.state_path}: invalid serve state JSON: {exc}"
            ) from exc
        if payload.get("format") != STATE_FORMAT:
            raise ProfileFormatError(
                f"{self.state_path}: unsupported serve state format "
                f"{payload.get('format')!r}"
            )
        for name, entry in payload.get("workloads", {}).items():
            if name in self.cycles_committed:
                self.cycles_committed[name] = int(
                    entry.get("cycles_committed", 0)
                )
        totals = payload.get("totals", {})
        for key in self._base_totals:
            self._base_totals[key] = totals.get(key, 0)
        self.recordings_received = int(totals.get("recordings_received", 0))
        self._restore_latest_trees()

    def _restore_latest_trees(self) -> None:
        """Re-seed the merge accumulators from the store's pointers."""
        for name in self.config.workloads:
            content_hash = self.store.latest_hash(name)
            if content_hash is None:
                continue
            profile = self.store.load_by_hash(content_hash)
            if profile.sttree is not None:
                self._latest_tree[name] = profile.sttree

    def _write_state(self) -> None:
        totals = self._totals()
        payload = {
            "format": STATE_FORMAT,
            "schema_version": 1,
            "workloads": {
                name: {
                    "cycles_committed": self.cycles_committed[name],
                    "latest_hash": self.store.latest_hash(name),
                }
                for name in self.config.workloads
            },
            "totals": totals,
        }
        self.store._atomic_write(
            self.state_path, json.dumps(payload, indent=2, sort_keys=True)
        )

    # -- the merge/commit post stages (run inside each cycle's budget) -----------------

    def _merge_stage(self, workload: str) -> Callable[[STTree], None]:
        def merge(tree: STTree) -> None:
            with self._lock:
                latest = self._latest_tree.get(workload)
                # First commit keeps the cycle tree itself (merge with
                # nothing is identity) so a single-cycle serve is
                # byte-identical to the offline profiling phase.
                self._pending[workload] = (
                    tree if latest is None else latest.merge(tree)
                )

        return merge

    def _commit_stage(self, workload: str) -> Callable[[STTree], None]:
        def commit(_tree: STTree) -> None:
            with self._lock:
                merged = self._pending.pop(workload, None)
                if merged is None:  # pragma: no cover - stage misuse
                    raise ProfileError(
                        f"commit stage for {workload!r} ran without a "
                        "preceding merge stage"
                    )
                self._commit_locked(workload, merged)

        return commit

    def _commit_locked(self, workload: str, merged: STTree) -> str:
        profile = AllocationProfile.from_sttree(
            merged,
            workload=workload,
            push_up=self.config.push_up,
            metadata={
                "source": "repro-serve",
                "instances": self.config.instances,
                "cycle_budget_s": self.config.cycle_budget_s,
            },
        )
        content_hash = self.store.put(profile, set_latest=True)
        self._latest_tree[workload] = merged
        self._write_state()
        return content_hash

    # -- external recordings (POST /recordings) ----------------------------------------

    def submit_recording(self, body: str) -> Dict[str, object]:
        """Merge an agent-shipped profile JSON into its workload's latest."""
        profile = AllocationProfile.from_json(body)
        if profile.sttree is None:
            raise ProfileError(
                "recording carries no STTree IR; only v2 profiles with an "
                "embedded tree can be merged"
            )
        submitted_hash = profile_content_hash(profile)
        with self._lock:
            latest = self._latest_tree.get(profile.workload)
            merged = (
                profile.sttree
                if latest is None
                else latest.merge(profile.sttree)
            )
            self.cycles_committed.setdefault(profile.workload, 0)
            self.recordings_received += 1
            latest_hash = self._commit_locked(profile.workload, merged)
        return {
            "workload": profile.workload,
            "submitted_hash": submitted_hash,
            "latest_hash": latest_hash,
        }

    # -- the drive loop ----------------------------------------------------------------

    def run_round(self) -> List[CycleReport]:
        """One cycle per (workload, instance); returns every report."""
        reports: List[CycleReport] = []
        for name in self.config.workloads:
            index = self.cycles_committed[name]
            self._pending.pop(name, None)
            for engine in self.engines[name]:
                reports.append(engine.run_cycle(index=index))
                if self._stop.is_set():
                    break
            with self._lock:
                self.cycles_committed[name] = index + 1
                self._write_state()
            if self._stop.is_set():
                break
        return reports

    def run(
        self,
        max_rounds: Optional[int] = None,
        on_report: Optional[Callable[[CycleReport], None]] = None,
        serve_http: bool = True,
    ) -> int:
        """Drive rounds until stopped or ``max_rounds``; returns rounds run.

        ``on_report`` fires after each cycle (the CLI's per-cycle log
        line).  With ``serve_http`` the HTTP API is up for the whole
        run — including the idle gaps between rounds.
        """
        if max_rounds is None:
            max_rounds = self.config.max_rounds
        if serve_http:
            self.start_service()
        rounds = 0
        try:
            while not self._stop.is_set():
                if max_rounds is not None and rounds >= max_rounds:
                    break
                for report in self.run_round():
                    if on_report is not None:
                        on_report(report)
                rounds += 1
                if self._stop.is_set():
                    break
                if max_rounds is not None and rounds >= max_rounds:
                    break
                if self.config.round_interval_s > 0:
                    self._stop.wait(self.config.round_interval_s)
        finally:
            if serve_http:
                self.stop_service()
        return rounds

    def request_stop(self) -> None:
        """Ask the drive loop to exit after the current cycle (signal-safe)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- the HTTP face -----------------------------------------------------------------

    def start_service(self) -> str:
        if self.service is None:
            self.service = ProfileService(
                self.store,
                metrics_fn=self.metrics,
                submit_fn=self.submit_recording,
                host=self.config.host,
                port=self.config.port,
            )
            self.service.start()
        return self.service.url

    def stop_service(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # -- telemetry ---------------------------------------------------------------------

    def _totals(self) -> Dict[str, float]:
        totals = dict(self._base_totals)
        for engines in self.engines.values():
            for engine in engines:
                totals["cycles_run"] += engine.cycles_run
                totals["cycles_truncated"] += engine.cycles_truncated
                totals["overrun_s_total"] += engine.overrun_s_total
        totals["overrun_s_total"] = round(totals["overrun_s_total"], 6)
        totals["recordings_received"] = self.recordings_received
        return totals

    def metrics(self) -> Dict[str, object]:
        """The ``GET /metrics`` payload: budgets, overruns, VM telemetry."""
        with self._lock:
            vm_telemetry: Dict[str, int] = {}
            live_snapshot_peak = 0
            for engines in self.engines.values():
                for engine in engines:
                    live_snapshot_peak = max(
                        live_snapshot_peak, engine.live_snapshot_peak
                    )
                    for counter, value in engine.vm_telemetry.items():
                        vm_telemetry[counter] = (
                            vm_telemetry.get(counter, 0) + value
                        )
            return {
                "service": {
                    "workloads": list(self.config.workloads),
                    "instances": self.config.instances,
                    "cycle_budget_s": self.config.cycle_budget_s,
                    "sim_duration_ms": self.config.sim_duration_ms,
                },
                "cycles": {
                    **self._totals(),
                    "live_snapshot_peak": live_snapshot_peak,
                },
                "vm_telemetry": vm_telemetry,
                "profiles": {
                    name: {
                        "cycles_committed": self.cycles_committed[name],
                        "latest_hash": self.store.latest_hash(name),
                    }
                    for name in self.config.workloads
                },
                "store": {"objects": len(self.store.object_hashes())},
            }
