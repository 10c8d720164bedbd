"""Binary snapshot store vs the JSON-lines reference format, on the
golden scenarios.

The binary store must hold exactly what the historical one-JSON-object-
per-line file held: both are written from the same fixed-seed runs (the
gc-loop parity scenarios), read back, and compared snapshot-for-snapshot
and digest-for-digest through the streaming analyzer.
"""

import hashlib
import json
import os

import pytest

from repro.core.stages import ProfileBuilder
from repro.snapshot.snapshot import Snapshot, SnapshotStore

from tests.integration.parity_harness import SCENARIOS, _record_scenario

# The two quick scenarios run per-test; the full matrix is covered by the
# module-level round-trip below.
_FAST = [s for s in SCENARIOS if s[4] <= 1500.0]


def _record(workload_name, collector_name, use_remsets, seed, duration_ms):
    _vm, recorder, dumper = _record_scenario(
        workload_name, collector_name, use_remsets, seed, duration_ms
    )
    return recorder, dumper


# -- the JSON-lines snapshot file, frozen as the reference format: one
# -- ``Snapshot.to_dict`` payload per line, deltas chained on read.


def save_jsonl(store, path):
    with open(path, "w") as handle:
        for snapshot in store:
            handle.write(json.dumps(snapshot.to_dict()) + "\n")


def iter_jsonl(path):
    previous = None
    with open(path) as handle:
        for line in handle:
            if line.strip():
                previous = Snapshot.from_dict(json.loads(line), predecessor=previous)
                yield previous


def _digest_snapshots(snapshots):
    payload = [
        {
            "seq": snap.seq,
            "time_ms": snap.time_ms,
            "engine": snap.engine,
            "pages_written": snap.pages_written,
            "size_bytes": snap.size_bytes,
            "duration_us": snap.duration_us,
            "incremental": snap.incremental,
            "live": snap.live_object_ids.to_list(),
        }
        for snap in snapshots
    ]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=["-".join(map(str, s[:2])) for s in SCENARIOS]
)
def test_jsonl_binary_round_trip_identical(scenario, tmp_path):
    _, dumper = _record(*scenario[:4], min(scenario[4], 900.0))
    jsonl = str(tmp_path / "snapshots.jsonl")
    binary = str(tmp_path / "snapshots.bin")
    save_jsonl(dumper.store, jsonl)
    dumper.store.save(binary)
    original = _digest_snapshots(dumper.store)
    assert _digest_snapshots(iter_jsonl(jsonl)) == original
    assert _digest_snapshots(SnapshotStore.load(binary)) == original


@pytest.mark.parametrize(
    "scenario", _FAST, ids=["-".join(map(str, s[:2])) for s in _FAST]
)
def test_profiles_identical_across_formats(scenario, tmp_path):
    recorder, dumper = _record(*scenario[:4], min(scenario[4], 900.0))
    jsonl = str(tmp_path / "snapshots.jsonl")
    binary = str(tmp_path / "snapshots.bin")
    save_jsonl(dumper.store, jsonl)
    dumper.store.save(binary)
    digests = {}
    for fmt, snapshots in (
        ("jsonl", iter_jsonl(jsonl)),
        ("binary", SnapshotStore.iter_file(binary)),
    ):
        builder = ProfileBuilder()
        for snapshot in snapshots:
            builder.feed_snapshot(snapshot)
        builder.feed_trace_flush(recorder.records)
        digests[fmt] = builder.analyzer.finish().digest()
    assert digests["jsonl"] == digests["binary"]


def test_binary_is_smaller_on_disk(tmp_path):
    _, dumper = _record(*SCENARIOS[0][:4], 900.0)
    jsonl = str(tmp_path / "snapshots.jsonl")
    binary = str(tmp_path / "snapshots.bin")
    save_jsonl(dumper.store, jsonl)
    dumper.store.save(binary)
    assert os.path.getsize(binary) < os.path.getsize(jsonl)
