"""A YCSB-style operation generator (Yahoo! Cloud Serving Benchmark).

The paper drives Cassandra with YCSB mixes (§5.2.1).  This module
provides the generator properly: request distributions (zipfian, uniform,
latest), read/write mixes, and the standard workload letters, so the
Cassandra driver and any future workload share one tested implementation.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator, Tuple

READ = "read"
WRITE = "write"

#: Standard YCSB workload letters -> (read fraction, distribution).
STANDARD_WORKLOADS = {
    "a": (0.5, "zipfian"),  # update heavy
    "b": (0.95, "zipfian"),  # read mostly
    "c": (1.0, "zipfian"),  # read only
    "d": (0.95, "latest"),  # read latest
    "f": (0.5, "zipfian"),  # read-modify-write
}


class ZipfianGenerator:
    """Zipfian-distributed integers in [0, item_count).

    Implements the Gray et al. rejection-inversion approximation YCSB
    itself uses, with the default theta of 0.99.
    """

    def __init__(
        self, item_count: int, theta: float = 0.99, seed: int = 42
    ) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.item_count = item_count
        self.theta = theta
        self.rng = random.Random(seed)
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / item_count) ** (1 - theta)) / (
            1 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; the Euler-Maclaurin approximation keeps
        # construction O(1) for large key spaces.
        if n <= 10_000:
            return sum(1.0 / (i ** theta) for i in range(1, n + 1))
        head = sum(1.0 / (i ** theta) for i in range(1, 10_001))
        tail = ((n ** (1 - theta)) - (10_000 ** (1 - theta))) / (1 - theta)
        return head + tail

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(
            self.item_count * ((self._eta * u - self._eta + 1) ** self._alpha)
        )


@dataclasses.dataclass
class YCSBConfig:
    """One YCSB run configuration."""

    item_count: int = 200_000
    read_fraction: float = 0.5
    distribution: str = "zipfian"  # zipfian | uniform | latest
    theta: float = 0.99
    seed: int = 42

    @classmethod
    def standard(cls, letter: str, item_count: int = 200_000, seed: int = 42):
        try:
            read_fraction, distribution = STANDARD_WORKLOADS[letter.lower()]
        except KeyError:
            raise ValueError(
                f"unknown YCSB workload {letter!r}; "
                f"choose from {sorted(STANDARD_WORKLOADS)}"
            ) from None
        return cls(
            item_count=item_count,
            read_fraction=read_fraction,
            distribution=distribution,
            seed=seed,
        )


class YCSBGenerator:
    """Yields ``(operation, key)`` pairs per the configured mix."""

    def __init__(self, config: YCSBConfig) -> None:
        if config.distribution not in ("zipfian", "uniform", "latest"):
            raise ValueError(f"unknown distribution {config.distribution!r}")
        if not 0.0 <= config.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.config = config
        self.rng = random.Random(config.seed)
        self._zipf = ZipfianGenerator(
            config.item_count, config.theta, seed=config.seed ^ 0x5EED
        )
        #: Highest key written so far (drives the "latest" distribution).
        self.insert_cursor = config.item_count

    def next_key(self) -> int:
        distribution = self.config.distribution
        if distribution == "uniform":
            return self.rng.randrange(self.config.item_count)
        if distribution == "latest":
            # Skew toward recently inserted keys.
            offset = self._zipf.next()
            return max(0, self.insert_cursor - 1 - offset) % max(
                1, self.insert_cursor
            )
        key = self._zipf.next()
        return min(key, self.config.item_count - 1)

    def next_op(self) -> Tuple[str, int]:
        if self.rng.random() < self.config.read_fraction:
            return READ, self.next_key()
        self.insert_cursor += 1
        return WRITE, self.next_key()

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        while True:
            yield self.next_op()
