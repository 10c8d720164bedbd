"""Guard: ``vm.attach_agent`` stays the only allocation seam into the VM.

Every profiler reaches the VM as an agent.  An allocation listener
subscribed straight onto the bus (``vm.events.subscribe(ALLOCATION,
...)``) bypasses the agent bookkeeping that makes ``allocate_batch``
fall back to scalar dispatch for subscribers without a batch hook, so it
would silently miss batched allocations.  No module outside
``repro/runtime`` may do that — new observers must be agents.
"""

from __future__ import annotations

import os

import repro

#: Modules allowed to subscribe allocation listeners directly: the
#: runtime itself (where ``attach_agent`` lives).
_ALLOWED_PREFIX = os.path.join("repro", "runtime") + os.sep


def _package_sources():
    root = os.path.dirname(os.path.abspath(repro.__file__))
    parent = os.path.dirname(root)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                yield os.path.relpath(path, parent), path


def test_no_direct_alloc_listener_calls_outside_runtime():
    offenders = []
    for rel, path in _package_sources():
        if rel.startswith(_ALLOWED_PREFIX):
            continue
        with open(path) as handle:
            source = handle.read()
        if "subscribe(ALLOCATION" in source:
            offenders.append(rel)
    assert offenders == [], (
        "these modules bypass the agent seam with direct ALLOCATION "
        f"subscriptions: {offenders}; attach a VMAgent via "
        "vm.attach_agent(...) instead"
    )
