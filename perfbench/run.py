#!/usr/bin/env python3
"""Benchmark of the POLM2 reproduction: host time of its real commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process this starts is a fresh
``perfbench/worker.py`` interpreter with the checkout's ``src`` on
``PYTHONPATH``:

* ``--trace 0``: one workload process that sets up and runs rounds of the
  four phases (profile, polm2 run, g1 run, offline profile) for
  ``--seconds``, with ``SETUP_SAMPLES - 1`` set-up-only processes split
  between before and after it.  Prints every ``end_to_end`` metric of
  ``BENCHMARK.json``.  Host times are CPU seconds of the single-threaded
  worker (see ``worker.cpu_seconds``): each phase's is the mean over
  rounds, ``setup_s`` the median over all set-up samples.
* ``--trace 1``: one untraced round, then one round in a second process
  whose ``repro`` classes are wrapped by :mod:`tracer`.  Prints every
  ``per_layer`` metric of ``BENCHMARK.json``.

Output checks, each failure counted against its phase in ``failed`` and
making the command exit 1:

* no phase raises; every phase completes operations;
* the in-VM profile's STTree digest equals the offline record->analyze one;
* polm2's total GC pause is below g1's (the paper's §5 shape);
* every round repeats the first round's simulated outputs exactly;
* traced and untraced rounds give identical simulated outputs (ops,
  pause series, STTree digests), so the wrappers do not perturb the
  simulation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from spec import (
    EXPECTED_SPLIT,
    GROUPS,
    PHASES,
    SETUP_SAMPLES,
    WORKLOADS,
    load_benchmark,
    metric_units,
)
from tracer import CALLS, EXTRA, SELF, TOTAL

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

#: Wall-clock limit for all processes of one invocation, seconds.
TOTAL_LIMIT_S = 170.0

#: Simulated outputs that must repeat exactly across rounds and processes.
COMPARED = ("ops_completed", "pause_digest", "sttree_digest")


class Deadline:
    """Kills a child that would outlive the invocation's time limit."""

    def __init__(self, limit_s: float) -> None:
        self.end = time.monotonic() + limit_s

    def spawn(self, args):
        """Run a worker; return (its set-up CPU seconds, its last line)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # The same string hashing in every process, so dict and set layouts
        # (and so their cost) do not differ from one run to the next.
        env["PYTHONHASHSEED"] = "0"
        proc = subprocess.Popen(
            [sys.executable, WORKER] + args,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        killer = threading.Timer(max(0.0, self.end - time.monotonic()), proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline().split()
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if len(first) != 2 or first[0] != "ready" or code != 0:
            raise RuntimeError(f"worker {' '.join(args)} exited with code {code}")
        return float(first[1]), (lines[-1] if lines else "")


# -- output checks ---------------------------------------------------------------


def check_round(records, reference):
    """Failures of one round: list of (phase, message)."""
    failures = []
    by_phase = {r["phase"]: r for r in records}
    for rec in records:
        if rec["error"] is not None:
            last = rec["error"].strip().splitlines()[-1]
            failures.append((rec["phase"], f"raised: {last}"))
    ok = {p: r["outputs"] for p, r in by_phase.items() if r["error"] is None}
    for phase in ("profile", "run", "g1_run"):
        if phase in ok and ok[phase]["ops_completed"] <= 0:
            failures.append((phase, "completed no operations"))
    if "run" in ok and not ok["run"]["pauses_ms"]:
        failures.append(("run", "polm2 phase made no GC pause"))
    if "profile" in ok and ok["profile"]["sites"] <= 0:
        failures.append(("profile", "profile instruments no allocation site"))
    if "profile" in ok and "offline_profile" in ok:
        if ok["profile"]["sttree_digest"] != ok["offline_profile"]["sttree_digest"]:
            failures.append(
                ("offline_profile", "offline STTree digest differs from in-VM profile")
            )
    if "run" in ok and "g1_run" in ok:
        polm2 = sum(ok["run"]["pauses_ms"])
        g1 = sum(ok["g1_run"]["pauses_ms"])
        if not polm2 < g1:
            failures.append(
                ("run", f"polm2 pause total {polm2:.3f} ms is not below g1's {g1:.3f} ms")
            )
    if reference is not None:
        for phase, outputs in ok.items():
            expected = reference.get(phase)
            if expected is None:
                continue
            for key in COMPARED:
                if outputs.get(key) != expected.get(key):
                    failures.append(
                        (phase, f"{key} differs from the reference round")
                    )
    return failures


def outputs_of(records):
    return {r["phase"]: r["outputs"] for r in records if r["error"] is None}


# -- metrics ---------------------------------------------------------------------


def end_to_end_metrics(setup_samples, report):
    """End-to-end metrics of one untraced workload process.

    Host times, in CPU seconds: ``setup_s`` (process start to ready, median
    over fresh processes) and ``<phase>_s``, the mean over rounds.  Every
    round does the same work, and a shared host's speed swings within
    fractions of a second, so the mean, which uses every measured second,
    varies less from run to run than the median or the least of the rounds.
    ``peak_rss_mib`` is the worker's ``ru_maxrss``.  Simulated, from the virtual clock, which
    repeat exactly for a seed: the polm2 and g1 pause totals and polm2's
    ops per virtual second.  The median polm2 pause is printed as a note,
    not a metric: pause durations are quantized, so it reads the same for
    nearly every seed.
    """
    rounds = report["rounds"]
    metrics = {"setup_s": statistics.median(setup_samples)}
    for phase in PHASES:
        times = [r["cpu_s"] for rec in rounds for r in rec
                 if r["phase"] == phase and r["error"] is None]
        if times:
            metrics[f"{phase}_s"] = statistics.mean(times)
    metrics["peak_rss_mib"] = report["maxrss_kib"] / 1024.0
    first = outputs_of(rounds[0])
    notes = {}
    if "run" in first and first["run"]["pauses_ms"]:
        run = first["run"]
        metrics["pause_total_ms"] = sum(run["pauses_ms"])
        metrics["sim_throughput_ops_s"] = run["ops_completed"] / (
            run["duration_ms"] / 1000.0
        )
        notes["pause_total_ms"] = (
            f"{len(run['pauses_ms'])} pauses, "
            f"p50 {statistics.median(run['pauses_ms']):.4f} ms"
        )
    if "g1_run" in first:
        metrics["g1_pause_total_ms"] = sum(first["g1_run"]["pauses_ms"])
        notes["g1_pause_total_ms"] = f"{len(first['g1_run']['pauses_ms'])} pauses"
    notes.update({f"{p}_s": f"mean of {len(rounds)} rounds" for p in PHASES})
    return metrics, notes


#: Aggregate slot read for each field of a ``<boundary>.<field>`` metric.
SLOTS = {"calls": CALLS, "self_s": SELF, "objects": EXTRA, "bytes": EXTRA}


def per_layer_values(names, aggs, traced_elapsed, untraced_elapsed):
    """The per-layer metrics ``names`` from the traced round's aggregates.

    ``aggs`` maps phase -> name -> [calls, total_s, self_s, extra]; the
    name ``phase`` holds the phase span itself.  A metric is either
    ``<boundary>.<field>`` summed over phases, or one of the ratios below;
    a name matching neither is left out, so it reads as missing.
    """

    def get(phase, name, slot):
        return aggs.get(phase, {}).get(name, (0, 0.0, 0.0, 0))[slot]

    def total(name, slot):
        return sum(get(phase, name, slot) for phase in aggs)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    batch_objects = total("heap.allocate_batch", EXTRA)
    derived = {
        "runtime.batch_share": ratio(
            batch_objects, batch_objects + total("heap.allocate", CALLS)
        ),
        "gc.trigger_ratio": ratio(
            total("gc.collect", CALLS), total("gc.before_allocation", CALLS)
        ),
    }
    for phase in PHASES:
        derived[f"trace.overhead.{phase}"] = ratio(
            traced_elapsed.get(phase, 0.0), untraced_elapsed.get(phase, 0.0)
        )
        # The phase span's self time: phase time no wrapped span explains.
        derived[f"trace.unattributed_s.{phase}"] = get(phase, "phase", SELF)
        elapsed = get(phase, "phase", TOTAL)
        for group, members in GROUPS.items():
            busy = sum(get(phase, name, SELF) for name in members)
            derived[f"share.{phase}.{group}"] = ratio(busy, elapsed)

    metrics = {}
    for name in names:
        boundary, _, field = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif field in SLOTS:
            metrics[name] = total(boundary, SLOTS[field])
    return metrics


def split_report(workload, metrics):
    """One line saying whether the expected layer group owns the phase."""
    phase, expected = EXPECTED_SPLIT[workload]
    shares = {g: metrics.get(f"share.{phase}.{g}", 0.0) for g in GROUPS}
    largest = max(shares, key=shares.get)
    verdict = "matches" if largest == expected else "DOES NOT MATCH"
    listed = ", ".join(f"{g} {s:.1%}" for g, s in sorted(shares.items(), key=lambda kv: -kv[1]))
    return (f"split {verdict}: expected {expected} to own the largest share of "
            f"{phase}_s on {workload}; traced self-time shares: {listed}")


# -- command line --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time repro profile / run / offline profile on one workload."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shorten every virtual duration (self-test only)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    units = metric_units(load_benchmark(), args.trace)
    deadline = Deadline(TOTAL_LIMIT_S)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    if args.trace == 0:
        def setup_only(count):
            return [deadline.spawn(common + ["--setup-only"])[0] for _ in range(count)]

        # Set-up samples on both sides of the long run, so that a slow spell
        # of the host at either end does not decide their median.
        before = (SETUP_SAMPLES - 1) // 2
        setup_samples = setup_only(before)
        ready_s, line = deadline.spawn(common + ["--seconds", str(args.seconds)])
        setup_samples.append(ready_s)
        setup_samples += setup_only(SETUP_SAMPLES - 1 - before)
        report = json.loads(line)
        rounds = report["rounds"]
        reference = outputs_of(rounds[0])
        failures = []
        for index, records in enumerate(rounds):
            for phase, message in check_round(
                records, reference if index else None
            ):
                failures.append((index, phase, message))
        metrics, notes = end_to_end_metrics(setup_samples, report)
    else:
        # Without --seconds a worker runs exactly one round.
        _, plain_line = deadline.spawn(common)
        _, traced_line = deadline.spawn(common + ["--trace", "1"])
        plain = json.loads(plain_line)["rounds"][0]
        traced_report = json.loads(traced_line)
        traced = traced_report["rounds"][0]
        rounds = [plain, traced]
        failures = [(0, p, m) for p, m in check_round(plain, None)]
        failures += [(1, p, m) for p, m in check_round(traced, outputs_of(plain))]
        metrics = per_layer_values(
            units,
            traced_report["aggregates"],
            {r["phase"]: r["elapsed_s"] for r in traced if r["error"] is None},
            {r["phase"]: r["elapsed_s"] for r in plain if r["error"] is None},
        )
        notes = {}

    attempted = sum(len(records) for records in rounds)
    failed = len({(index, phase) for index, phase, _ in failures})
    for index, phase, message in failures:
        print(f"CHECK FAILED round {index} {phase}: {message}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} phases attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4f}")
    for name in units:
        if name in metrics:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:36s} {metrics[name]:>14.6g} {units[name]}{note}")
        else:
            print(f"  {name:36s} {'missing':>14s} {units[name]}")
    if args.trace == 1:
        print(split_report(args.workload, metrics))

    correct = failed == 0 and all(name in metrics for name in units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
