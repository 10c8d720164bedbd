"""Per-object evacuation, frozen as a reference oracle.

Before evacuation plans, ``SimHeap.evacuate`` took a per-object callable
``destination_for(obj) -> Generation`` and moved survivors one at a
time: untrack the old copy's pages, test liveness, ask the callable for
a destination, bump-allocate there, track the new copy, and note any
old->young edge a promotion creates.  The columnar plan engine must
place every object exactly as this loop does.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.config import YOUNG_GEN
from repro.heap.heap import SimHeap
from repro.heap.region import Region
from repro.heap.space import Generation


def oracle_evacuate(
    heap: SimHeap,
    regions: Sequence[Region],
    live,
    source_gen: Generation,
    destination_for: Callable,
) -> Tuple[int, int, int]:
    """``SimHeap.evacuate`` with a per-object destination callable.

    ``live`` is a mark epoch (``int``) or a container of live ids.
    Returns ``(survivor_bytes, promoted_bytes, scanned_objects)``.
    """
    use_epoch = isinstance(live, int)
    survivor_bytes = 0
    promoted_bytes = 0
    scanned = 0
    page_table = heap.page_table
    for region in regions:
        source_gen.release_region(region)
    for region in regions:
        for obj in region.objects:
            scanned += 1
            # The old copy disappears whether or not the object survives;
            # untrack before allocation rewrites the address.
            page_table.untrack_object(obj.address, obj.size)
            if use_epoch:
                if obj.mark_epoch != live:
                    continue
            elif obj.object_id not in live:
                continue
            dest = destination_for(obj)
            address = dest.allocate(obj)
            page_table.place_object(address, obj.size)
            if dest.gen_id != region.gen_id:
                promoted_bytes += obj.size
            else:
                survivor_bytes += obj.size
            if dest.gen_id != YOUNG_GEN and any(
                child.gen_id == YOUNG_GEN for child in obj._refs
            ):
                heap.old_to_young_remset[obj.object_id] = obj
        region.wipe_contents()
        heap.free_region(region)
    return survivor_bytes, promoted_bytes, scanned
