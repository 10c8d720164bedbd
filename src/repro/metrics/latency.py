"""Client-observed operation latency and SLA compliance.

The paper's motivation (§1) is not GC pauses per se but their effect on
request latency: "credit-card fraud detection or targeted website
advertisement systems … can easily fail to comply with Service Level
Agreements due to long GC cycles (during which the application is
stopped)".  This module computes that client-side view from a
:class:`~repro.core.pipeline.PhaseResult`: an operation in flight when a
stop-the-world pause begins observes its base service time *plus* the
pause; every other operation observes the base time.

The distribution is assembled analytically (ops are uniform in mutator
time, pauses are point events), which keeps it exact and free.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, TYPE_CHECKING

from repro.metrics.percentiles import percentile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import PhaseResult


@dataclasses.dataclass
class LatencyProfile:
    """Client-observed latency distribution for one run."""

    strategy: str
    workload: str
    total_ops: int
    base_latency_ms: float
    #: Latencies of the ops that absorbed a pause (base + pause), ms.
    impacted_latencies_ms: List[float]

    @property
    def impacted_ops(self) -> int:
        return len(self.impacted_latencies_ms)

    def percentile_ms(self, pct: float) -> float:
        """Nearest-rank percentile over the full op population."""
        if self.total_ops == 0:
            return 0.0
        clean_ops = self.total_ops - self.impacted_ops
        rank = max(1, -(-pct * self.total_ops // 100))  # ceil
        if rank <= clean_ops:
            return self.base_latency_ms
        ordered = sorted(self.impacted_latencies_ms)
        index = int(rank - clean_ops - 1)
        index = min(index, len(ordered) - 1)
        return self.base_latency_ms + ordered[index]

    def worst_ms(self) -> float:
        if not self.impacted_latencies_ms:
            return self.base_latency_ms
        return self.base_latency_ms + max(self.impacted_latencies_ms)

    def sla_violations(self, sla_ms: float) -> int:
        """Operations whose observed latency exceeded the SLA."""
        count = 0
        if self.base_latency_ms > sla_ms:
            return self.total_ops
        for latency in self.impacted_latencies_ms:
            if self.base_latency_ms + latency > sla_ms:
                count += 1
        return count

    def sla_compliance(self, sla_ms: float) -> float:
        """Fraction of operations meeting the SLA."""
        if self.total_ops == 0:
            return 1.0
        return 1.0 - self.sla_violations(sla_ms) / self.total_ops


def latency_profile(result: "PhaseResult") -> LatencyProfile:
    """Derive the client-observed latency profile from a phase result.

    Each recorded pause delays exactly the operation in flight when it
    hit (single-server model, one op at a time); the remaining ops see
    the base service time.
    """
    if result.duration_ms <= 0 or result.ops_completed <= 0:
        return LatencyProfile(
            strategy=result.strategy,
            workload=result.workload,
            total_ops=0,
            base_latency_ms=0.0,
            impacted_latencies_ms=[],
        )
    total_pause_ms = sum(p.duration_ms for p in result.pauses)
    mutator_ms = max(1e-9, result.duration_ms - total_pause_ms)
    base_latency_ms = mutator_ms / result.ops_completed
    impacted = [p.duration_ms for p in result.pauses]
    return LatencyProfile(
        strategy=result.strategy,
        workload=result.workload,
        total_ops=result.ops_completed,
        base_latency_ms=base_latency_ms,
        impacted_latencies_ms=impacted,
    )


def sla_table(
    profiles: Sequence[LatencyProfile],
    sla_ms: float,
    percentiles: Sequence[float] = (99.0, 99.9, 99.99),
) -> str:
    """Render an SLA-compliance comparison across strategies."""
    lines = [
        f"client-observed latency, SLA = {sla_ms:g} ms",
        f"{'strategy':>10} {'ops':>9} "
        + " ".join(f"P{p:g}".rjust(9) for p in percentiles)
        + f" {'worst':>9} {'SLA ok':>8}",
    ]
    for profile in profiles:
        cells = " ".join(
            f"{profile.percentile_ms(p):>9.2f}" for p in percentiles
        )
        lines.append(
            f"{profile.strategy:>10} {profile.total_ops:>9} {cells} "
            f"{profile.worst_ms():>9.2f} "
            f"{profile.sla_compliance(sla_ms):>8.4%}"
        )
    return "\n".join(lines)
