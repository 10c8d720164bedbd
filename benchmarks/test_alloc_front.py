"""BENCH: the batched allocation front-end vs the scalar path.

Emits ``benchmarks/results/BENCH_alloc_front.json`` with four runs:

* **allocation storm** — N uniform objects through one site.  Scalar:
  ``VM.allocate_at_site`` per object (per-object ``HeapObject``
  construction, collector hooks, clock charges).  Batched: one
  ``VM.allocate_batch`` call (quiet-run amortized hooks, bulk
  ``array('q')`` column extends, lazy views).
* **recorded storm** — the same storm with a Recorder attached and the
  site record-hooked: per-object listener dispatch + stream append vs
  one ``AllocationBatchEvent`` + one stream extend per quiet run.
* **composite 10x** — the ISSUE 6 composite (allocate + mark + age +
  evacuate) at 10x the object count, where PR 6's columnar collector
  kernels alone only reached 1.63x because allocation stayed scalar.
  Both engines here use the columnar collector; only the allocation
  front-end differs.
* **request loop** — a Cassandra-write-shaped loop: per request 5
  objects across 4 sites (one reached through a call), linked into a
  row that a holder keeps.  ``SimThread.alloc`` on the allocation credit
  vs the frozen scalar chain (``tests/runtime/scalar_oracle.py``).

Every comparison asserts *observable parity* with the scalar path
unconditionally (placements, clock, recorder streams).  Timing gates
(storm ≥ 5x, composite ≥ 3x, request loop ≥ 1.25x) are skipped when
``REPRO_BENCH_SMOKE`` is set, so CI smoke runs fail on correctness only,
never on a slow runner.
"""

import json
import os
import time

from conftest import RESULTS_DIR, save_result

from repro.config import SimConfig
from repro.core.idset import IdSet
from repro.core.recorder import Recorder
from repro.gc.g1 import G1Collector
from repro.heap.evacuation import SurvivorTenuring
from repro.heap.objects import reset_identity_hashes
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM
from tests.runtime.scalar_oracle import oracle_alloc, oracle_write_ref

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

STORM_OBJECTS = 5_000 if SMOKE else 200_000
COMPOSITE_OBJECTS = 2_000 if SMOKE else 30_000
SCALE = 2 if SMOKE else 10
OBJ_SIZE = 64
SITE_LINE = 10
#: Cohort-block liveness for the composite's collection phase (same
#: pattern as BENCH_heap_columnar so the cycles are comparable).
LIVE_BLOCK = 192
DEAD_BLOCK = 64
ROUNDS = 1 if SMOKE else 5
REQUESTS = 2_000 if SMOKE else 40_000


def build_vm(record_hook=False):
    reset_identity_hashes()
    vm = VM(SimConfig(), collector=G1Collector())
    model = ClassModel("Bench")
    model.add_method("run").add_alloc_site(SITE_LINE, "Obj", OBJ_SIZE)
    vm.classloader.load(model)
    site = vm.classloader.lookup("Bench").method("run").alloc_site(SITE_LINE)
    site.record_hook = record_hook
    recorder = None
    if record_hook:
        recorder = Recorder()
        vm.attach_agent(recorder)
    thread = vm.new_thread("bench")
    return vm, site, thread, recorder


def placement_state(vm):
    state = []
    for gen in vm.heap.generations.values():
        for region in gen.regions:
            ids = region._ids
            offsets = region._offsets
            sizes = region._sizes
            base = region.base
            for slot in range(len(ids)):
                state.append(
                    (ids[slot], base + offsets[slot], sizes[slot], region.gen_id)
                )
    state.sort()
    return state, vm.clock.now_us, vm.heap.total_allocated_bytes


def alloc_scalar(vm, site, thread, count):
    allocate = vm.allocate_at_site
    for _ in range(count):
        allocate(thread, site, OBJ_SIZE)


def alloc_batched(vm, site, thread, count):
    vm.allocate_batch(thread, site, [OBJ_SIZE] * count)


def block_live_ids(vm) -> IdSet:
    """The cohort-block pattern over every allocated id, id order."""
    all_ids = []
    for gen in vm.heap.generations.values():
        for region in gen.regions:
            all_ids.extend(region._ids)
    all_ids.sort()
    period = LIVE_BLOCK + DEAD_BLOCK
    return IdSet(
        oid for i, oid in enumerate(all_ids) if i % period < LIVE_BLOCK
    )


def composite_cycle(alloc_fn, count):
    """Allocate ``count`` objects through the front-end, then run one
    columnar collection cycle (mark + age + evacuate) over them."""
    vm, site, thread, _ = build_vm()
    with thread.entry("Bench", "run"):
        alloc_fn(vm, site, thread, count)
    heap = vm.heap
    young = heap.young
    dest = heap.new_generation("dest")
    live = block_live_ids(vm)
    plan = SurvivorTenuring(young, dest, vm.config.tenure_threshold)
    heap.evacuate(list(young.regions), live, young, plan)
    return vm


def request_loop(scalar: bool, requests: int = REQUESTS):
    """Cassandra-write-shaped requests: row, two cell blocks, an index
    entry, and a clone made in a helper call; the row links the other
    four and a holder keeps every 16th row (the rest die young)."""
    reset_identity_hashes()
    vm = VM(SimConfig.small(), collector=G1Collector())
    store = ClassModel("Store")
    put = store.add_method("put")
    put.add_alloc_site(10, "Row", 96)
    put.add_alloc_site(11, "Cells", 256)
    put.add_alloc_site(12, "IndexEntry", 64)
    put.add_call_site(20, "Util", "clone")
    util = ClassModel("Util")
    util.add_method("clone").add_alloc_site(30, "Clone", 96)
    vm.classloader.load_all([store, util])
    thread = vm.new_thread("bench")
    holder = vm.allocate_anonymous(64)
    vm.roots.pin("holder", holder)
    if scalar:
        def alloc(line):
            return oracle_alloc(thread, line, keep=False)

        def link(parent, child):
            oracle_write_ref(vm.heap, parent, child)
    else:
        def alloc(line):
            return thread.alloc(line, keep=False)

        link = vm.heap.write_ref
    call = thread.call
    with thread.entry("Store", "put"):
        for i in range(requests):
            row = alloc(10)
            link(row, alloc(11))
            link(row, alloc(11))
            link(row, alloc(12))
            with call(20, "Util", "clone"):
                link(row, alloc(30))
            if i % 16 == 0:
                link(holder, row)
    return vm


def pause_series(vm):
    return [
        (p.kind, p.start_ms, p.duration_ms, sorted(p.stats.items()))
        for p in vm.collector.pauses
    ]


def time_run(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_alloc_front():
    # -- allocation storm: parity, then timing -----------------------------
    vm_s, site_s, thread_s, _ = build_vm()
    with thread_s.entry("Bench", "run"):
        alloc_scalar(vm_s, site_s, thread_s, STORM_OBJECTS)
    scalar_state = placement_state(vm_s)
    vm_b, site_b, thread_b, _ = build_vm()
    with thread_b.entry("Bench", "run"):
        alloc_batched(vm_b, site_b, thread_b, STORM_OBJECTS)
    assert placement_state(vm_b) == scalar_state, (
        "batched storm diverged from the scalar path"
    )
    vm_b.heap.verify()

    def scalar_storm():
        vm, site, thread, _ = build_vm()
        with thread.entry("Bench", "run"):
            alloc_scalar(vm, site, thread, STORM_OBJECTS)

    def batched_storm():
        vm, site, thread, _ = build_vm()
        with thread.entry("Bench", "run"):
            alloc_batched(vm, site, thread, STORM_OBJECTS)

    scalar_storm_s = time_run(scalar_storm)
    batched_storm_s = time_run(batched_storm)
    storm_speedup = scalar_storm_s / batched_storm_s
    storm_rate = STORM_OBJECTS / batched_storm_s

    # -- recorded storm: batch events into recorder streams ----------------
    vm_s, site_s, thread_s, rec_s = build_vm(record_hook=True)
    with thread_s.entry("Bench", "run"):
        alloc_scalar(vm_s, site_s, thread_s, STORM_OBJECTS)
    vm_b, site_b, thread_b, rec_b = build_vm(record_hook=True)
    with thread_b.entry("Bench", "run"):
        alloc_batched(vm_b, site_b, thread_b, STORM_OBJECTS)
    assert {
        tid: stream.tolist() for tid, stream in rec_b.records.streams.items()
    } == {
        tid: stream.tolist() for tid, stream in rec_s.records.streams.items()
    }, "batched recording changed the id streams"
    assert rec_b.records.traces == rec_s.records.traces
    assert vm_b.clock.now_us == vm_s.clock.now_us, (
        "batched recording changed the virtual clock"
    )

    def scalar_recorded():
        vm, site, thread, _ = build_vm(record_hook=True)
        with thread.entry("Bench", "run"):
            alloc_scalar(vm, site, thread, STORM_OBJECTS)

    def batched_recorded():
        vm, site, thread, _ = build_vm(record_hook=True)
        with thread.entry("Bench", "run"):
            alloc_batched(vm, site, thread, STORM_OBJECTS)

    scalar_rec_s = time_run(scalar_recorded)
    batched_rec_s = time_run(batched_recorded)
    recorded_speedup = scalar_rec_s / batched_rec_s

    # -- composite: alloc + collect at SCALE x objects ---------------------
    composite_count = COMPOSITE_OBJECTS * SCALE
    vm_check_s = composite_cycle(alloc_scalar, COMPOSITE_OBJECTS)
    check_state_s = placement_state(vm_check_s)
    vm_check_b = composite_cycle(alloc_batched, COMPOSITE_OBJECTS)
    assert placement_state(vm_check_b) == check_state_s, (
        "composite cycle diverged between front-ends"
    )
    composite_rounds = 1 if SMOKE else 2
    scalar_composite_s = time_run(
        lambda: composite_cycle(alloc_scalar, composite_count),
        rounds=composite_rounds,
    )
    batched_composite_s = time_run(
        lambda: composite_cycle(alloc_batched, composite_count),
        rounds=composite_rounds,
    )
    composite_speedup = scalar_composite_s / batched_composite_s

    # -- request loop: credit path vs the frozen scalar chain --------------
    vm_s = request_loop(scalar=True)
    vm_c = request_loop(scalar=False)
    assert placement_state(vm_c) == placement_state(vm_s), (
        "credit-path request loop diverged from the scalar chain"
    )
    assert pause_series(vm_c) == pause_series(vm_s)
    assert vm_s.collector.pauses, "the request loop never collected"
    vm_c.heap.verify()
    scalar_loop_s = time_run(lambda: request_loop(scalar=True))
    credit_loop_s = time_run(lambda: request_loop(scalar=False))
    loop_speedup = scalar_loop_s / credit_loop_s

    payload = {
        "bench": "alloc_front",
        "smoke": SMOKE,
        "allocation_storm": {
            "objects": STORM_OBJECTS,
            "scalar_s": round(scalar_storm_s, 6),
            "batched_s": round(batched_storm_s, 6),
            "speedup": round(storm_speedup, 2),
            "objects_per_s": round(storm_rate),
        },
        "recorded_storm": {
            "objects": STORM_OBJECTS,
            "scalar_s": round(scalar_rec_s, 6),
            "batched_s": round(batched_rec_s, 6),
            "speedup": round(recorded_speedup, 2),
        },
        "composite_scale": {
            "scale": SCALE,
            "objects": composite_count,
            "scalar_s": round(scalar_composite_s, 6),
            "batched_s": round(batched_composite_s, 6),
            "speedup": round(composite_speedup, 2),
        },
        "request_loop": {
            "requests": REQUESTS,
            "objects": 5 * REQUESTS,
            "scalar_s": round(scalar_loop_s, 6),
            "credit_s": round(credit_loop_s, 6),
            "speedup": round(loop_speedup, 2),
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_alloc_front.json"), "w"
    ) as handle:
        json.dump(payload, handle, indent=2)

    lines = [
        "BENCH: batched allocation front-end (scalar vs batch)",
        f"{'path':<24} {'scalar s':>10} {'batched s':>10} {'speedup':>9}",
        f"{'allocation storm':<24} {scalar_storm_s:>10.4f} "
        f"{batched_storm_s:>10.4f} {storm_speedup:>8.2f}x",
        f"{'recorded storm':<24} {scalar_rec_s:>10.4f} "
        f"{batched_rec_s:>10.4f} {recorded_speedup:>8.2f}x",
        f"{'composite ' + str(SCALE) + 'x cycle':<24} "
        f"{scalar_composite_s:>10.4f} "
        f"{batched_composite_s:>10.4f} {composite_speedup:>8.2f}x",
        f"{'request loop (credit)':<24} {scalar_loop_s:>10.4f} "
        f"{credit_loop_s:>10.4f} {loop_speedup:>8.2f}x",
        "",
        f"batched allocation rate: {storm_rate:,.0f} objects/s "
        f"({composite_count:,} objects in the composite cycle)",
    ]
    save_result("BENCH_alloc_front", "\n".join(lines))

    if not SMOKE:
        # Acceptance gates (ISSUE 10): skipped in smoke mode so CI fails
        # on parity violations only, never on a slow shared runner.
        assert storm_speedup >= 5.0, (
            f"allocation storm {storm_speedup:.2f}x < 5x"
        )
        assert composite_speedup >= 3.0, (
            f"composite {SCALE}x cycle {composite_speedup:.2f}x < 3x"
        )
        assert recorded_speedup > 1.0, (
            f"recorded storm slower than scalar: {recorded_speedup:.2f}x"
        )
        assert loop_speedup >= 1.25, (
            f"request loop on the credit {loop_speedup:.2f}x < 1.25x"
        )
