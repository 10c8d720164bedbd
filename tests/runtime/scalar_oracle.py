"""The scalar allocation chain, frozen as a reference oracle.

Before the allocation credit, every allocation ran the full per-object
chain: ``before_allocation`` → ``resolve_allocation_gen`` →
``SimHeap.allocate`` → ``Generation.allocate`` → ``Region.bump_allocate``
→ page dirtying and occupancy tracking → ``after_allocation`` → Recorder
dispatch; a batch was observably that chain once per object.  This
module keeps that chain, written against the heap's primitive state
(region columns, generation byte counters, the page table), so the credit
path and the batch front-end can be checked against it however the
``src/`` code is reworked.

Use the ``oracle_*`` functions on a VM in place of ``SimThread.alloc``,
``SimThread.alloc_batch``, ``VM.allocate_anonymous`` and
``SimHeap.write_ref``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config import YOUNG_GEN
from repro.errors import NoActiveFrameError, OutOfMemoryError
from repro.heap.objects import HeapObject
from repro.runtime.events import ALLOCATION


def _place(gen, obj: HeapObject) -> int:
    """``Generation.allocate`` + ``Region.bump_allocate``, frozen."""
    region = gen._alloc_region
    if region is None or region.top + obj.size > region.size:
        region = gen._claim_region(obj.size)
    top = region.top
    address = region.base + top
    region.top = top + obj.size
    obj.address = address
    obj._region = region
    obj._slot = len(region.objects)
    ids = region._ids
    if ids and obj.object_id != ids[-1] + 1:
        region._id_breaks.append(len(ids))
    ids.append(obj.object_id)
    region._sizes.append(obj.size)
    region._sites.append(obj.site_id)
    region._offsets.append(top)
    region._ages.append(obj._age)
    region.objects.append(obj)
    obj.gen_id = gen.gen_id
    gen._used_bytes += obj.size
    return address


def oracle_heap_allocate(
    heap,
    size: int,
    gen_id: int,
    site_id: int,
    trace_id: int,
    birth_cycle: int,
    refs: Sequence[HeapObject] = (),
) -> HeapObject:
    """``SimHeap.allocate``, frozen."""
    gen = heap.generation(gen_id)
    obj = HeapObject(
        size=size, site_id=site_id, trace_id=trace_id, birth_cycle=birth_cycle
    )
    if size > heap.region_size:
        address = heap._allocate_humongous(obj, gen_id)
    else:
        address = _place(gen, obj)
    heap.page_table.mark_written_range(address, size)
    heap.page_table.track_object(address, size)
    if refs and gen_id != YOUNG_GEN:
        if any(child.gen_id == YOUNG_GEN for child in refs):
            heap.old_to_young_remset[obj.object_id] = obj
    if refs:
        obj._replace_refs(refs)
    heap.total_allocated_bytes += size
    heap.total_allocated_objects += 1
    return obj


def _heap_alloc(vm, size, gen_id, site_id, trace_id, refs) -> HeapObject:
    collector = vm.collector
    try:
        return oracle_heap_allocate(
            vm.heap, size, gen_id, site_id, trace_id, collector.cycles, refs
        )
    except OutOfMemoryError:
        collector.handle_oom()
        return oracle_heap_allocate(
            vm.heap, size, gen_id, site_id, trace_id, collector.cycles, refs
        )


def oracle_allocate_at_site(
    vm, thread, site, size: int, pretenure_index: int = 0, refs=()
) -> HeapObject:
    """``VM.allocate_at_site`` before the credit: the whole chain per object."""
    collector = vm.collector
    if collector is None:
        raise OutOfMemoryError("no collector attached to the VM")
    collector.before_allocation(size)
    gen_id = collector.resolve_allocation_gen(pretenure_index)
    site_id = site.cached_site_id
    if site_id == 0:
        site_id = vm.sites.site_id(site.location)
        site.cached_site_id = site_id
    trace: tuple = ()
    trace_id = 0
    listeners = vm.events.listener_list(ALLOCATION)
    if site.record_hook and listeners:
        trace = thread.current_stack_trace()
        trace_id = vm.sites.trace_id(trace)
    obj = _heap_alloc(vm, size, gen_id, site_id, trace_id, refs)
    if gen_id != 0:
        vm.clock.advance_us(vm.config.costs.pretenure_alloc_kib_us * (size / 1024.0))
    collector.after_allocation(size, gen_id)
    if site.record_hook:
        for listener in listeners:
            listener(obj, site, trace)
    return obj


def oracle_allocate_anonymous(vm, size: int, refs=()) -> HeapObject:
    """``VM.allocate_anonymous``, frozen."""
    collector = vm.collector
    if collector is None:
        raise OutOfMemoryError("no collector attached to the VM")
    collector.before_allocation(size)
    gen_id = collector.resolve_allocation_gen(0)
    obj = _heap_alloc(vm, size, gen_id, 0, 0, refs)
    if gen_id != 0:
        vm.clock.advance_us(vm.config.costs.pretenure_alloc_kib_us * (size / 1024.0))
    collector.after_allocation(size, gen_id)
    return obj


def oracle_write_ref(heap, parent: HeapObject, child: HeapObject) -> None:
    """``SimHeap.write_ref``, frozen."""
    parent._append_ref(child)
    if parent.address >= 0:
        heap.page_table.mark_dirty_range(parent.address, parent.size)
    if parent.gen_id != YOUNG_GEN and child.gen_id == YOUNG_GEN:
        heap.old_to_young_remset[parent.object_id] = parent
    for listener in heap.ref_write_listeners:
        listener(parent, child)


def _site_and_index(thread, line: int):
    if not thread.frames:
        raise NoActiveFrameError(f"thread {thread.name!r} has no active frame")
    frame = thread.frames[-1]
    frame.current_line = line
    site = frame.method.alloc_sites.get(line)
    if site is None:
        raise NoActiveFrameError(f"no allocation site at line {line}")
    if site.gen_annotated:
        if site.pre_set_gen is not None:
            return frame, site, site.pre_set_gen, True
        return frame, site, thread.target_gen, False
    return frame, site, 0, False


def oracle_alloc(
    thread, line: int, size: Optional[int] = None, refs=(), keep: bool = True
) -> HeapObject:
    """``SimThread.alloc`` on the scalar chain."""
    frame, site, pretenure_index, bracketed = _site_and_index(thread, line)
    if bracketed:
        thread.vm.set_generation_calls += 2
    obj = oracle_allocate_at_site(
        thread.vm,
        thread,
        site,
        size if size is not None else site.size_hint,
        pretenure_index,
        refs,
    )
    if keep:
        frame.keep(obj)
    return obj


def oracle_alloc_batch(
    thread,
    line: int,
    sizes: Optional[Sequence[int]] = None,
    count: Optional[int] = None,
    link_from: Optional[HeapObject] = None,
    keep: bool = False,
) -> List[HeapObject]:
    """``SimThread.alloc_batch`` as the scalar loop it must equal."""
    frame, site, pretenure_index, bracketed = _site_and_index(thread, line)
    if sizes is None:
        sizes = [site.size_hint] * count
    if bracketed:
        thread.vm.set_generation_calls += 2 * len(sizes)
    out = []
    for size in sizes:
        obj = oracle_allocate_at_site(thread.vm, thread, site, size, pretenure_index)
        if link_from is not None:
            oracle_write_ref(thread.vm.heap, link_from, obj)
        if keep:
            frame.keep(obj)
        out.append(obj)
    return out
