"""Cache geometry and miss-rate models for the many-core machine.

The paper's cores have private 32 KB 8-way L1 caches and share a 4 MB
16-way last-level cache (Section 8.1).  Simulating individual cache lines
for billions of accesses is neither feasible in Python nor necessary to
reproduce the paper's results, so this module models the two effects that
matter for the reported speedups:

* **Capacity** — a workload whose working set fits comfortably in a cache
  level misses less in that level; as the working set grows past the
  capacity, the miss rate approaches the workload's intrinsic streaming miss
  rate.  The transition follows the widely used square-root-of-capacity
  rule of thumb for set-associative caches.
* **Sharing** — when ``n`` cores run the parallel phase, they share the
  last-level cache, so each core effectively owns ``1/n`` of it, raising the
  L2 miss rate; conversely the L1s are private so per-core working sets
  shrink as the data is partitioned, lowering the L1 miss rate slightly.

Both effects saturate so that miss rates always remain in ``[floor, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.line_bytes <= 0:
            raise ValueError("line size must be positive")
        if self.size_bytes % self.line_bytes != 0:
            raise ValueError("cache size must be a multiple of the line size")
        if self.hit_latency_cycles < 0:
            raise ValueError("hit latency must be non-negative")

    @property
    def lines(self) -> int:
        """Number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def sets(self) -> int:
        """Number of sets."""
        if self.lines % self.associativity != 0:
            raise ValueError("line count must be divisible by associativity")
        return self.lines // self.associativity

    def fits(self, working_set_bytes: float) -> bool:
        """True when the working set fits entirely in this cache."""
        return working_set_bytes <= self.size_bytes


#: Private L1 data cache of the paper's cores: 32 KB, 8-way.
PAPER_L1 = CacheConfig(size_bytes=32 * 1024, associativity=8, hit_latency_cycles=1)

#: Shared last-level cache: 4 MB, 16-way, 20-cycle hit latency.
PAPER_L2 = CacheConfig(
    size_bytes=4 * 1024 * 1024, associativity=16, hit_latency_cycles=20
)


@dataclass(frozen=True)
class MissRates:
    """Effective per-memory-instruction miss rates for one execution phase."""

    l1_miss_rate: float
    l2_miss_rate: float

    def __post_init__(self) -> None:
        for name in ("l1_miss_rate", "l2_miss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def dram_rate(self) -> float:
        """Fraction of memory instructions that reach DRAM."""
        return self.l1_miss_rate * self.l2_miss_rate


def capacity_miss_scale(working_set_bytes: float, capacity_bytes: float) -> float:
    """Scale factor applied to a workload's intrinsic miss rate.

    Returns a value in ``(0, 1]``: near zero when the working set fits with
    lots of room to spare, 1 when the working set greatly exceeds capacity.
    The square-root form reflects the classic observation that miss rate
    falls roughly with the square root of cache size for a fixed workload.
    """
    if not 0.0 < working_set_bytes < math.inf:
        raise ValueError(
            f"working set must be positive and finite, got {working_set_bytes!r}"
        )
    if not 0.0 < capacity_bytes < math.inf:
        raise ValueError(f"capacity must be positive and finite, got {capacity_bytes!r}")
    ratio = working_set_bytes / capacity_bytes
    if ratio >= 1.0:
        return 1.0
    # Below capacity the miss rate decays with sqrt of the occupancy ratio.
    return math.sqrt(ratio)


@dataclass(frozen=True)
class CacheHierarchy:
    """The private-L1 / shared-L2 hierarchy of the paper's machine."""

    l1: CacheConfig = PAPER_L1
    l2: CacheConfig = PAPER_L2
    #: Miss rates never drop below this floor (cold misses, conflict misses).
    miss_rate_floor: float = 0.002

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_rate_floor < 1.0:
            raise ValueError("miss rate floor must be in [0, 1)")
        if self.l2.size_bytes < self.l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1")

    def effective_miss_rates(
        self,
        intrinsic_l1_miss: float,
        intrinsic_l2_miss: float,
        working_set_bytes: float,
        sharers: int = 1,
    ) -> MissRates:
        """Miss rates of one core given working set and L2 sharers.

        ``intrinsic_*`` are the workload's miss rates measured (or estimated)
        for a single core touching its full working set — the values stored
        in a :class:`~repro.workloads.descriptor.MemoryBehaviour`.  When the
        data is partitioned across ``sharers`` cores, each core touches
        roughly ``1/sharers`` of the working set but owns only
        ``1/sharers`` of the shared L2.
        """
        if not 0.0 <= intrinsic_l1_miss <= 1.0:
            raise ValueError("intrinsic L1 miss rate must be in [0, 1]")
        if not 0.0 <= intrinsic_l2_miss <= 1.0:
            raise ValueError("intrinsic L2 miss rate must be in [0, 1]")
        if not 0.0 < working_set_bytes < math.inf:
            raise ValueError(
                f"working set must be positive and finite, got {working_set_bytes!r}"
            )
        if sharers < 1:
            raise ValueError("sharers must be at least 1")

        per_core_ws = working_set_bytes / sharers

        # L1 is private: the per-core share of the data determines locality.
        l1_scale = capacity_miss_scale(per_core_ws, self.l1.size_bytes)
        l1_miss = max(self.miss_rate_floor, intrinsic_l1_miss * l1_scale)

        # L2 is shared: per-core slice of capacity versus per-core working set.
        l2_slice = self.l2.size_bytes / sharers
        l2_scale = capacity_miss_scale(per_core_ws, l2_slice)
        l2_miss = max(self.miss_rate_floor, intrinsic_l2_miss * l2_scale)

        return MissRates(l1_miss_rate=min(1.0, l1_miss), l2_miss_rate=min(1.0, l2_miss))

    def l1_miss_penalty_cycles(self) -> int:
        """Latency of an L1 miss that hits in the shared L2."""
        return self.l2.hit_latency_cycles

    def cold_start_misses(self, working_set_bytes: float) -> float:
        """Extra L1 misses incurred because L1s start empty at sprint begin.

        Section 8.1: "When sprinting begins, the L1 caches are initially
        empty".  Filling a working set (capped at the L1 capacity) costs one
        miss per line.
        """
        if working_set_bytes < 0:
            raise ValueError("working set must be non-negative")
        bytes_to_fill = min(working_set_bytes, float(self.l1.size_bytes))
        return bytes_to_fill / self.l1.line_bytes


#: Hierarchy with the paper's parameters.
PAPER_HIERARCHY = CacheHierarchy()
