"""Outside-in tracing of the ``repro`` layers for the traced benchmark run.

:func:`install` replaces selected methods on ``repro`` classes with timing
wrappers.  It is only ever called inside the traced worker process, so the
untraced timings never pay for it.  Nothing under ``src/`` changes.

Two kinds of boundary:

* **coarse** boundaries (phase, tick, collect, snapshot, analyze) are kept
  as spans -- name, start, end, parent span, phase id -- and written out
  by :meth:`Ledger.dump` when the worker exits;
* **per-object** boundaries (allocation, ``before_allocation``, the
  Recorder hooks, ...) make hundreds of thousands of calls per virtual
  second, so they are kept only as per-phase, per-name aggregates:
  calls, total time, self time, and an optional work count.

Self time is a span's duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Aggregate slots: [calls, total_s, self_s, extra].
CALLS, TOTAL, SELF, EXTRA = range(4)


class Ledger:
    """Per-phase aggregates plus the coarse span list of one process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        # One frame per open wrapped call: [time covered by children].
        # The bottom frame absorbs top-level durations.
        self.stack: List[List[float]] = [[0.0]]
        self.by_phase: Dict[str, Dict[str, List[float]]] = {}
        self.current: Dict[str, List[float]] = {}
        self.spans: List[list] = []
        self.coarse_stack: List[int] = []
        self.phase_id = -1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute every wrapped call inside the block to phase ``name``."""
        self.current = self.by_phase.setdefault(name, {})
        self.phase_id += 1
        span = self._open("phase." + name)
        frame = [0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(span, end)
            agg = self.current.setdefault("phase", [0, 0.0, 0.0, 0])
            agg[CALLS] += 1
            agg[TOTAL] += end - start
            agg[SELF] += end - start - frame[0]
            self.current = {}

    def _open(self, name: str) -> int:
        parent = self.coarse_stack[-1] if self.coarse_stack else -1
        span_id = len(self.spans)
        self.spans.append(
            [span_id, parent, self.phase_id, name,
             time.perf_counter() - self.origin, None]
        )
        self.coarse_stack.append(span_id)
        return span_id

    def _close(self, span_id: int, end: float) -> None:
        self.coarse_stack.pop()
        self.spans[span_id][5] = end - self.origin

    def _aggregate(self, name: str) -> List[float]:
        agg = self.current.get(name)
        if agg is None:
            agg = self.current[name] = [0, 0.0, 0.0, 0]
        return agg

    def wrap(
        self,
        fn: Callable,
        name: str,
        span: Optional[str] = None,
        extra: Optional[Callable] = None,
        counted: bool = True,
    ) -> Callable:
        """A timing wrapper for ``fn`` aggregated under ``name``.

        ``span`` names a coarse span to record per call; ``extra(args,
        kwargs)`` returns a work count added to the aggregate.  With
        ``counted`` false the call adds time but not to ``calls``, which
        another wrapper (:meth:`counter`) counts where the work happens.
        """
        perf = time.perf_counter
        stack = self.stack
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = ledger._open(span) if span is not None else -1
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                if span_id >= 0:
                    ledger._close(span_id, end)
                agg = ledger._aggregate(name)
                if counted:
                    agg[CALLS] += 1
                agg[TOTAL] += duration
                agg[SELF] += duration - frame[0]
                if extra is not None:
                    agg[EXTRA] += extra(args, kwargs)

        return wrapper

    def counter(self, fn: Callable, name: str) -> Callable:
        """A wrapper adding each call of ``fn`` to ``calls`` of ``name``.

        It opens no frame, so the call's time stays with its caller.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger._aggregate(name)[CALLS] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap`, timing each step of a generator function.

        The consumer's work between steps is not the generator's, so only
        the time inside each ``next`` is attributed to ``name``.
        """
        inner_wrap = self.wrap

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            step = inner_wrap(lambda: next(iterator, _DONE), name)
            while True:
                item = step()
                if item is _DONE:
                    return
                yield item

        return wrapper

    def aggregates(self) -> Dict[str, Dict[str, list]]:
        return {phase: dict(aggs) for phase, aggs in self.by_phase.items()}

    def dump(self, path: str) -> None:
        """Write the coarse spans and the aggregates as one JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "span_fields": ["id", "parent", "phase_id", "name",
                                    "start_s", "end_s"],
                    "spans": self.spans,
                    "aggregate_fields": ["calls", "total_s", "self_s", "extra"],
                    "aggregates": self.aggregates(),
                },
                handle,
            )


_DONE = object()


def _batch_objects(args, kwargs) -> int:
    # VM.allocate_batch(self, thread, site, sizes, ...)
    sizes = args[3] if len(args) > 3 else kwargs["sizes"]
    return len(sizes)


def _heap_batch_objects(args, kwargs) -> int:
    # SimHeap.allocate_batch(self, sizes, starts, start, stop, ...)
    start = args[3] if len(args) > 3 else kwargs["start"]
    stop = args[4] if len(args) > 4 else kwargs["stop"]
    return stop - start


def _saved_bytes(args, kwargs) -> int:
    # SnapshotStore.save(self, path, format=None)
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def install(ledger: Ledger) -> None:
    """Wrap the benchmark's layer boundaries on the ``repro`` classes."""
    import repro.core.offline as offline
    from repro.core.dumper import Dumper
    from repro.core.instrumenter import Instrumenter
    from repro.core.recorder import AllocationRecords, Recorder
    from repro.core.stages import LiveVMSource, ProfileBuilder
    from repro.gc.base import GenerationalCollector
    from repro.gc.g1 import G1Collector
    from repro.gc.ng2c import NG2CCollector
    from repro.heap.heap import SimHeap
    from repro.runtime.vm import VM
    from repro.snapshot.criu import CRIUEngine
    from repro.snapshot.snapshot import SnapshotStore
    from repro.workloads.cassandra.store import CassandraStore
    from repro.workloads.cassandra.workload import CassandraWorkload
    from repro.workloads.lucene.index import InMemoryIndex
    from repro.workloads.lucene.workload import LuceneWorkload

    def patch(cls, attr, name, span=None, extra=None, counted=True):
        # Only a class's own definition is wrapped, so an inherited method
        # is never wrapped twice.
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = ledger.wrap(raw.__func__, name, span, extra, counted)
            setattr(cls, attr, classmethod(wrapped))
        else:
            setattr(cls, attr, ledger.wrap(raw, name, span, extra, counted))

    for cls in (CassandraWorkload, LuceneWorkload):
        patch(cls, "tick", "workloads.tick", span="tick")
    patch(CassandraStore, "write", "workloads.cassandra.write")
    patch(CassandraStore, "read", "workloads.cassandra.read")
    patch(InMemoryIndex, "add_document", "workloads.lucene.add_document")

    patch(VM, "allocate_at_site", "runtime.allocate_at_site")
    patch(VM, "allocate_batch", "runtime.allocate_batch", extra=_batch_objects)
    patch(VM, "safepoint", "runtime.safepoint")

    patch(SimHeap, "allocate", "heap.allocate")
    patch(SimHeap, "allocate_batch", "heap.allocate_batch", extra=_heap_batch_objects)
    patch(SimHeap, "evacuate", "heap.evacuate")
    patch(SimHeap, "trace_live", "heap.trace_live")
    patch(SimHeap, "mark_unused_pages_no_need", "heap.mark_unused_pages_no_need")

    # A collect_* call may return without collecting (G1's collect_mixed
    # when no old region has enough garbage), so collections are counted
    # where a pause is recorded and the collect_* wrappers add time only.
    for cls in (G1Collector, NG2CCollector):
        patch(cls, "before_allocation", "gc.before_allocation")
        patch(cls, "collect_young", "gc.collect", span="collect", counted=False)
        patch(cls, "full_collect", "gc.collect", span="collect", counted=False)
    patch(G1Collector, "collect_mixed", "gc.collect", span="collect", counted=False)
    patch(NG2CCollector, "collect_generations", "gc.collect", span="collect",
          counted=False)
    GenerationalCollector.record_pause = ledger.counter(
        GenerationalCollector.__dict__["record_pause"], "gc.collect"
    )

    patch(Recorder, "on_allocation", "core.recorder.on_allocation")
    patch(Recorder, "on_allocation_batch", "core.recorder.on_allocation_batch")
    patch(Recorder, "on_gc_end", "core.recorder.on_gc_end")
    patch(Dumper, "take_snapshot", "core.dumper.take_snapshot", span="snapshot")
    patch(LiveVMSource, "on_snapshot_point", "core.stages.on_snapshot_point")
    patch(ProfileBuilder, "build", "core.stages.build")
    patch(AllocationRecords, "flush_to_dir", "core.records.flush_to_dir")
    patch(AllocationRecords, "load_from_dir", "core.records.load_from_dir")
    patch(Instrumenter, "transform", "core.instrumenter.transform")
    offline.analyze_recording = ledger.wrap(
        offline.analyze_recording, "core.offline.analyze_recording", span="analyze"
    )

    patch(CRIUEngine, "checkpoint", "snapshot.checkpoint")
    patch(SnapshotStore, "save", "snapshot.store.save", extra=_saved_bytes)
    raw = SnapshotStore.__dict__["iter_file"].__func__
    SnapshotStore.iter_file = classmethod(
        ledger.wrap_generator(raw, "snapshot.store.load")
    )
