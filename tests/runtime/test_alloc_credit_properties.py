"""Property tests: the allocation credit against the frozen scalar chain.

The credit lets ``SimThread.alloc`` and ``VM.allocate_batch`` skip
``before_allocation`` while collector-proven budgets hold.  That is sound
only if *no* program can tell: hypothesis generates programs mixing
sites, generations (``@Gen`` brackets and ``setGeneration`` call sites),
sizes up to humongous, batches with links, anonymous allocations,
reference writes, dropped roots, generation rotation, and explicit
collections, and runs each under G1, NG2C, C4 and the binary collector
twice: once through the VM and once through
:mod:`tests.runtime.scalar_oracle`.  Everything observable must match —
placements and ids, page flags and occupancy, the virtual clock, the
pause series, collector counters, Recorder streams, and snapshots.
"""

from __future__ import annotations

from typing import List

from hypothesis import example, given, settings, strategies as st

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.recorder import Recorder
from repro.errors import OutOfMemoryError
from repro.gc.binary import BinaryPretenuringCollector
from repro.gc.c4 import C4Collector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.heap.objects import reset_identity_hashes
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM
from tests.runtime.scalar_oracle import (
    oracle_alloc,
    oracle_alloc_batch,
    oracle_allocate_anonymous,
    oracle_write_ref,
)

COLLECTORS = {
    "g1": G1Collector,
    "ng2c": NG2CCollector,
    "c4": C4Collector,
    "binary": BinaryPretenuringCollector,
}

#: Explicit collections each collector offers.
COLLECTIONS = {
    "g1": ("collect_young", "collect_mixed", "full_collect"),
    "binary": ("collect_young", "collect_mixed", "full_collect"),
    "ng2c": ("collect_young", "collect_generations", "full_collect"),
    "c4": ("concurrent_cycle",),
}

#: Sites in ``C.run``: plain, plain, ``@Gen`` bracketed into 1 and 2.
RUN_SITES = (10, 11, 12, 13)
#: Call sites in ``C.run`` into ``C.inner``, setting generation 1 / 2.
CALL_SITES = (20, 21)
#: Sites in ``C.inner``: ``@Gen`` (thread target generation), plain.
INNER_SITES = (30, 31)

#: Not a multiple of the region size, so young triggers fire mid-region.
YOUNG_BYTES = 100_000


def class_model() -> ClassModel:
    model = ClassModel("C")
    run = model.add_method("run")
    run.add_alloc_site(10, "A", 48)
    run.add_alloc_site(11, "B", 128)
    for line, gen in ((12, 1), (13, 2)):
        site = run.add_alloc_site(line, "P", 256)
        site.gen_annotated = True
        site.pre_set_gen = gen
    for line, gen in zip(CALL_SITES, (1, 2)):
        run.add_call_site(line, "C", "inner").target_generation = gen
    inner = model.add_method("inner")
    inner.add_alloc_site(30, "Q", 512).gen_annotated = True
    inner.add_alloc_site(31, "R", 64)
    return model


sizes = st.one_of(
    st.integers(16, 512),
    st.integers(16, 512),
    st.integers(513, 24_000),
    st.integers(60_000, 65_536),
    st.integers(65_537, 140_000),
)
maybe_size = st.one_of(st.none(), sizes)

ops = st.one_of(
    st.tuples(
        st.just("alloc"), st.sampled_from(RUN_SITES), maybe_size,
        st.booleans(), st.booleans(),
    ),
    st.tuples(
        st.just("call"), st.sampled_from(CALL_SITES),
        st.sampled_from(INNER_SITES), maybe_size, st.booleans(),
    ),
    st.tuples(
        st.just("batch"), st.sampled_from(RUN_SITES),
        st.lists(st.one_of(st.integers(16, 600), sizes), min_size=1, max_size=40),
        st.booleans(),
    ),
    st.tuples(st.just("anon"), sizes),
    st.tuples(st.just("chain"), st.integers(0, 50), st.integers(0, 50)),
    st.tuples(st.just("refs"), st.sampled_from(RUN_SITES), sizes),
    st.tuples(st.just("drop")),
    st.tuples(st.just("rotate")),
    st.tuples(st.just("collect"), st.integers(0, 2)),
    # Retained volume: fills the old generation so free-reserve and
    # mixed/full collection triggers fire.
    st.tuples(
        st.just("retain"), st.integers(1, 60), st.integers(1_000, 30_000)
    ),
    # A request loop: Cassandra-write-shaped iterations mixing plain,
    # bracketed, and setGeneration-steered sites, linked together.
    st.tuples(
        st.just("requests"), st.integers(1, 400), st.sampled_from(CALL_SITES),
        st.integers(1, 8),
    ),
)

cases = st.tuples(
    st.sampled_from(sorted(COLLECTORS)),
    st.booleans(),  # recorded (Recorder + Dumper attached)
    st.booleans(),  # remembered sets
    st.sampled_from([None, 0.05]),  # G1 pause goal: shrinks young each pause
    st.lists(ops, min_size=1, max_size=80),
)


class Driver:
    """Runs one program through the VM or through the frozen oracle."""

    def __init__(self, case, oracle: bool) -> None:
        collector, recorded, remsets, pause_goal, _ = case
        reset_identity_hashes()
        config = SimConfig(
            heap_bytes=24 * 64 * 1024,
            young_bytes=YOUNG_BYTES,
            use_remembered_sets=remsets,
            pause_goal_ms=pause_goal,
        )
        self.collector_name = collector
        self.vm = VM(config, collector=COLLECTORS[collector]())
        self.recorder = self.dumper = None
        if recorded:
            self.recorder = Recorder(snapshot_every=1)
            self.dumper = Dumper()
            self.vm.attach_agent(self.recorder)
            self.vm.attach_agent(self.dumper)
        self.vm.classloader.load(class_model())
        self.thread = self.vm.new_thread("t")
        self.oracle = oracle
        self.ids: List[int] = []
        #: Objects known reachable: rooted in the frame or from ``root``.
        self.rooted: List = []
        self.framed: List = []

    # -- the four primitives, routed to the VM or to the oracle ---------------

    def alloc(self, line, size=None, refs=(), keep=True):
        if self.oracle:
            return oracle_alloc(self.thread, line, size, refs, keep)
        return self.thread.alloc(line, size, refs, keep)

    def alloc_batch(self, line, sizes, link_from):
        if self.oracle:
            return oracle_alloc_batch(
                self.thread, line, sizes, link_from=link_from
            )
        return self.thread.alloc_batch(
            line, sizes, link_from=link_from, materialize=True
        )

    def anon(self, size):
        if self.oracle:
            return oracle_allocate_anonymous(self.vm, size)
        return self.vm.allocate_anonymous(size)

    def write_ref(self, parent, child):
        if self.oracle:
            oracle_write_ref(self.vm.heap, parent, child)
        else:
            self.vm.heap.write_ref(parent, child)

    # -- program execution ------------------------------------------------------

    def run(self, program) -> object:
        vm = self.vm
        try:
            self.root = self.anon(64)
            vm.roots.pin("root", self.root)
            with self.thread.entry("C", "run"):
                for op in program:
                    self.step(op)
        except OutOfMemoryError as exc:
            return ("oom", len(self.ids), str(exc))
        return None

    def step(self, op) -> None:
        kind = op[0]
        vm = self.vm
        if kind == "alloc":
            _, line, size, keep, link = op
            obj = self.alloc(line, size, keep=keep)
            self.note(obj, keep, link)
        elif kind == "call":
            _, call_line, line, size, link = op
            with self.thread.call(call_line, "C", "inner"):
                obj = self.alloc(line, size, keep=False)
                self.note(obj, False, link)
        elif kind == "batch":
            _, line, batch_sizes, link = op
            objs = self.alloc_batch(line, batch_sizes, self.root if link else None)
            self.ids.extend(obj.object_id for obj in objs)
            if link:
                self.rooted.extend(objs)
        elif kind == "anon":
            self.note(self.anon(op[1]), False, True)
        elif kind == "chain":
            if self.rooted:
                parent = self.rooted[op[1] % len(self.rooted)]
                child = self.rooted[op[2] % len(self.rooted)]
                self.write_ref(parent, child)
        elif kind == "refs":
            _, line, size = op
            refs = self.rooted[-2:]
            self.note(self.alloc(line, size, refs=refs, keep=False), False, True)
        elif kind == "drop":
            vm.heap.clear_refs(self.root)
            self.rooted = list(self.framed)
        elif kind == "rotate":
            if self.collector_name == "ng2c":
                vm.collector.rotate_generation(1)
        elif kind == "requests":
            _, count, call_line, link_every = op
            for i in range(count):
                row = self.alloc(10, keep=False)
                self.write_ref(row, self.alloc(11, keep=False))
                self.write_ref(row, self.alloc(12 + i % 2, keep=False))
                with self.thread.call(call_line, "C", "inner"):
                    self.write_ref(row, self.alloc(30, keep=False))
                    self.alloc(31, keep=False)
                self.note(row, False, i % link_every == 0)
        elif kind == "retain":
            _, count, size = op
            for _ in range(count):
                self.note(self.alloc(11, size, keep=False), False, True)
        elif kind == "collect":
            names = COLLECTIONS[self.collector_name]
            getattr(vm.collector, names[op[1] % len(names)])()

    def note(self, obj, kept: bool, link: bool) -> None:
        self.ids.append(obj.object_id)
        if kept:
            self.framed.append(obj)
            self.rooted.append(obj)
        elif link:
            self.write_ref(self.root, obj)
            self.rooted.append(obj)

    # -- observable state --------------------------------------------------------

    def state(self) -> dict:
        vm = self.vm
        heap = vm.heap
        collector = vm.collector
        regions = [
            (
                region.index, region.gen_id, region.top,
                region._ids.tolist(), region._sizes.tolist(),
                region._sites.tolist(), region._offsets.tolist(),
                region._ages.tolist(), region._id_breaks.tolist(),
            )
            for region in heap._regions
        ]
        generations = {
            gen_id: (
                gen.name, gen.used_bytes, [r.index for r in gen.regions],
                gen._alloc_region.index if gen._alloc_region else None,
            )
            for gen_id, gen in heap.generations.items()
        }
        pauses = [
            (p.cycle, p.kind, p.start_ms, p.duration_ms, sorted(p.stats.items()))
            for p in collector.pauses
        ]
        out = {
            "ids": self.ids,
            "regions": regions,
            "free": sorted(r.index for r in heap._free_regions),
            "humongous": sorted(heap._humongous),
            "generations": generations,
            "flags": bytes(heap.page_table._flags),
            "occupancy": heap.page_table.occupancy_snapshot(),
            "clock_us": vm.clock.now_us,
            "pauses": pauses,
            "cycles": collector.cycles,
            "totals": (
                heap.total_allocated_bytes, heap.total_allocated_objects,
                heap.peak_committed_bytes, vm.set_generation_calls,
            ),
            "remset": sorted(heap.old_to_young_remset),
            "collector": {
                key: value
                for key, value in vars(collector).items()
                if key in ("_pretenured_since_gc", "_gen_map", "_rotated_out",
                           "_young_target", "created_generation_count")
            },
        }
        if self.recorder is not None:
            records = self.recorder.records
            out["traces"] = dict(records.traces)
            out["streams"] = {
                tid: stream.tolist() for tid, stream in records.streams.items()
            }
            out["snapshots"] = [
                (s.seq, s.pages_written, s.size_bytes, s.duration_us,
                 sorted(s.live_object_ids))
                for s in self.dumper.store
            ]
        return out


def run_both(case):
    program = case[-1]
    results = []
    for oracle in (True, False):
        driver = Driver(case, oracle)
        outcome = driver.run(program)
        if outcome is None:
            driver.vm.heap.verify()
        results.append((outcome, driver.state()))
    return results


#: The NG2C trap: pretenured allocations push the pretenured-byte counter
#: to the young budget without touching young occupancy; the *young*
#: allocation that follows must still run ``before_allocation`` (its
#: ``elif`` branch collects the generations).  A credit gating only
#: pretenured allocations on the pretenured budget skips that collection.
NG2C_TRAP = (
    "ng2c", False, False, None,
    [("call", 20, 30, 4096, False)] * (YOUNG_BYTES // 4096 + 1)
    + [("alloc", 10, 64, False, False)] * 4,
)


#: Live data near the free-region reserve: every allocation's real
#: ``before_allocation`` runs the free-reserve collections, so no credit
#: may exist (random programs rarely land in this narrow band).
def pressure(collector):
    return (collector, False, False, None,
            [("retain", 40, 24_000), ("requests", 60, 20, 8)])


#: An explicit collection between allocations leaves survivors in a young
#: region the next allocation bumps into, under reserve pressure: a
#: credit taken before the collection must be void after it.
STALE_AFTER_COLLECTION = (
    "g1", False, False, None,
    [("retain", 40, 24_000), ("alloc", 10, 3_000, False, True),
     ("collect", 0), ("alloc", 10, 3_000, False, True),
     ("alloc", 10, 3_000, False, True), ("requests", 20, 20, 2)],
)


#: A collection moves G1's young target when a pause goal is set, so a
#: credit taken before it must not survive it, even without a later
#: young-trigger crossing.
STALE_AFTER_PAUSE_GOAL = (
    "binary", False, False, 0.05, [("collect", 0), ("retain", 17, 4703)],
)

#: Humongous objects take whole free regions outside any generation's
#: region claims: each one runs the real check (here the last ones fire
#: C4's free-region floor).
HUMONGOUS_RUN = (
    "c4", False, False, None,
    [("alloc", 10, None, False, False)]
    + [("alloc", 10, 140_000, True, False)] * 7
    + [("requests", 20, 20, 8)],
)

#: Anonymous allocations fill the young generation outside any site: the
#: credit must be retaken after each one.
ANONYMOUS_THEN_LOOP = (
    "g1", False, False, None,
    [("alloc", 10, None, False, False)] + [("anon", 24_000)] * 4
    + [("requests", 20, 20, 8)],
)


#: Batch runs spend the same credit as single allocations: a young run
#: followed by a request loop crossing the young trigger mid-region, and
#: a pretenured run followed by pretenured allocations crossing NG2C's
#: pretenured-byte budget.
BATCH_THEN_LOOP = (
    "g1", False, False, None,
    [("requests", 60, 20, 8), ("batch", 10, [500] * 40, False),
     ("requests", 200, 20, 8)],
)
PRETENURED_BATCH_THEN_LOOP = (
    "ng2c", False, False, None,
    [("batch", 12, [2_000] * 40, False)]
    + [("call", 20, 30, 1_000, False)] * 30
    + [("alloc", 10, 64, False, False)] * 4,
)

#: A pretenured batch is gated by the young trigger too: its 60 000-byte
#: object does not fit the young budget two young allocations left.
PRETENURED_BATCH_OVER_YOUNG = (
    "binary", False, False, None,
    [("alloc", 10, 24_000, False, False)] * 2
    + [("batch", 12, [500, 500, 60_000, 500], False), ("requests", 10, 20, 8)],
)
#: Region claims inside batch runs spend the spare-region budget; at 28
#: retained objects the second batch needs exactly one claim more than
#: the credit's spare regions, so its real ``before_allocation`` collects.
BATCHES_NEAR_RESERVE = (
    "binary", False, False, None,
    [("retain", 28, 24_000), ("batch", 12, [20_000] * 10, False),
     ("batch", 12, [20_000] * 10, False), ("requests", 10, 20, 8)],
)


class TestCreditMatchesScalarChain:
    @given(case=cases)
    @example(case=NG2C_TRAP)
    @example(case=NG2C_TRAP[:1] + (True,) + NG2C_TRAP[2:])
    @example(case=pressure("g1"))
    @example(case=pressure("ng2c"))
    @example(case=pressure("c4"))
    @example(case=STALE_AFTER_COLLECTION)
    @example(case=STALE_AFTER_PAUSE_GOAL)
    @example(case=HUMONGOUS_RUN)
    @example(case=ANONYMOUS_THEN_LOOP)
    @example(case=BATCH_THEN_LOOP)
    @example(case=PRETENURED_BATCH_THEN_LOOP)
    @example(case=PRETENURED_BATCH_OVER_YOUNG)
    @example(case=BATCHES_NEAR_RESERVE)
    @settings(max_examples=150, deadline=None)
    def test_programs_match_oracle(self, case):
        oracle, credit = run_both(case)
        assert credit[0] == oracle[0]
        assert credit[1] == oracle[1]

    def test_trap_program_collects_generations(self):
        from repro.gc.events import GEN

        (_, oracle_state), (_, credit_state) = run_both(NG2C_TRAP)
        kinds = [pause[1] for pause in credit_state["pauses"]]
        assert GEN in kinds
        assert credit_state["pauses"] == oracle_state["pauses"]

    def test_credit_path_is_taken(self):
        """Most request-loop allocations skip ``before_allocation``."""
        case = ("g1", False, False, None,
                [("alloc", 10, None, False, False)] * 200)
        driver = Driver(case, oracle=False)
        calls = []
        collector = driver.vm.collector
        real = collector.before_allocation
        collector.before_allocation = lambda size: (calls.append(size), real(size))
        assert driver.run(case[-1]) is None
        assert 0 < len(calls) < 10
