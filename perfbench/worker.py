"""One benchmark process: set up one workload, then run timed rounds.

Run by ``perfbench/run.py`` in a fresh interpreter, with the checkout's
``src`` on ``PYTHONPATH``.  Protocol on standard output:

* the line ``ready <cpu_s>`` once imports and ``make_workload`` are done,
  with the CPU seconds this process has used since it started (the
  parent reports them as ``setup_s``);
* with ``--setup-only`` nothing else; otherwise, as the last line, one
  JSON object with every round's per-phase host times (wall and CPU
  seconds, see :func:`cpu_seconds`) and simulated
  outputs, the process's ``ru_maxrss``, and with ``--trace 1`` the
  per-phase layer aggregates.

A round runs the four phases of :data:`spec.PHASES` back to back.  Rounds
repeat while the next one is expected to end within ``--seconds``; at
least one always runs.  The program receives only ``make_workload(name,
seed=...)`` and the phase durations.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

import repro.core.offline as offline
from repro.core.pipeline import POLM2Pipeline
from repro.workloads import make_workload

from spec import PHASES, WORKLOADS

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def cpu_seconds() -> float:
    """CPU seconds used by this process and the children it waited for.

    The phases are single-threaded and compute-bound, so on an idle host
    this equals their wall time.  Unlike wall time it leaves out the time
    the process waits for a CPU: while other processes of the machine run,
    and the steal time a hypervisor reports.  Children are counted so that
    work moved into subprocesses still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _pause_digest(pauses) -> str:
    series = ";".join(f"{p.kind}:{p.start_ms!r}:{p.duration_ms!r}" for p in pauses)
    return hashlib.sha256(series.encode()).hexdigest()[:16]


def _phase_outputs(result) -> dict:
    durations = [p.duration_ms for p in result.pauses]
    return {
        "ops_completed": result.ops_completed,
        "duration_ms": result.duration_ms,
        "pauses_ms": durations,
        "pause_digest": _pause_digest(result.pauses),
    }


def run_round(name: str, seed: int, profile_ms: float, run_ms: float, ledger) -> list:
    """Run the four phases once; return one record per phase."""
    pipeline = POLM2Pipeline(lambda: make_workload(name, seed=seed))
    records = []
    state = {}

    def profile():
        kept = []
        state["profile"] = pipeline.run_profiling_phase(
            duration_ms=profile_ms, keep_result=kept
        )
        out = _phase_outputs(kept[0])
        out["sttree_digest"] = state["profile"].sttree.digest()
        out["sites"] = state["profile"].instrumented_site_count
        return out

    def run():
        if "profile" not in state:
            raise RuntimeError("no profile: the profiling phase failed")
        return _phase_outputs(
            pipeline.run("polm2", duration_ms=run_ms, profile=state["profile"])
        )

    def g1_run():
        return _phase_outputs(pipeline.run("g1", duration_ms=run_ms))

    def offline_profile():
        recording = tempfile.mkdtemp(prefix="rec-", dir=OUT_DIR)
        try:
            offline.record_to_dir(name, recording, duration_ms=profile_ms, seed=seed)
            analyzed = offline.analyze_recording(recording)
        finally:
            shutil.rmtree(recording, ignore_errors=True)
        return {"sttree_digest": analyzed.sttree.digest()}

    bodies = {
        "profile": profile,
        "run": run,
        "g1_run": g1_run,
        "offline_profile": offline_profile,
    }
    for phase in PHASES:
        scope = ledger.phase(phase) if ledger is not None else nullcontext()
        error = None
        outputs = None
        # Free the previous phase's VM object graph (reference cycles) before
        # timing, as a fresh ``repro`` command would start without it.  This
        # also keeps the peak RSS that of one phase whatever the round count.
        gc.collect()
        start = time.perf_counter()
        cpu_start = cpu_seconds()
        try:
            with scope:
                outputs = bodies[phase]()
        except Exception:  # one failed phase is counted, not fatal
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        records.append(
            {"phase": phase, "elapsed_s": elapsed, "cpu_s": cpu,
             "outputs": outputs, "error": error}
        )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    # Setup as a user pays it: imports above plus building the workload.
    make_workload(spec.repro_workload, seed=args.seed)
    print(f"ready {cpu_seconds()!r}", flush=True)
    if args.setup_only:
        return 0

    ledger = None
    if args.trace:
        import tracer

        ledger = tracer.Ledger()
        tracer.install(ledger)

    profile_ms, run_ms = spec.smoke_ms if args.smoke else (spec.profile_ms, spec.run_ms)
    os.makedirs(OUT_DIR, exist_ok=True)
    rounds = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(
            run_round(spec.repro_workload, args.seed, profile_ms, run_ms, ledger)
        )
        now = time.perf_counter()
        if now - started + (now - round_start) > args.seconds:
            break

    report = {
        "rounds": rounds,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if ledger is not None:
        report["aggregates"] = ledger.aggregates()
        ledger.dump(
            os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
        )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
