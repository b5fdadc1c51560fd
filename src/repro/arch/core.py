"""In-order core timing model: CPI of one plus cache miss penalties.

Section 8.1: "we model in-order x86 cores with a CPI of one plus cache miss
penalties".  Given a workload's instruction mix and effective miss rates,
this module computes the average cycles per instruction and hence the
instruction throughput of one core, along with a breakdown of where the
cycles go (base pipeline, L2 hits, DRAM accesses, coherence misses).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cache import CacheHierarchy, MissRates, PAPER_HIERARCHY
from repro.energy.instruction import InstructionMix


@dataclass(frozen=True)
class CyclesBreakdown:
    """Average cycles per instruction broken down by source."""

    base_cpi: float
    l2_hit_cpi: float
    dram_cpi: float
    coherence_cpi: float

    def __post_init__(self) -> None:
        for name in ("base_cpi", "l2_hit_cpi", "dram_cpi", "coherence_cpi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_cpi(self) -> float:
        """Total average cycles per instruction."""
        return self.base_cpi + self.l2_hit_cpi + self.dram_cpi + self.coherence_cpi

    @property
    def memory_stall_fraction(self) -> float:
        """Fraction of cycles spent stalled on the memory hierarchy."""
        stalls = self.l2_hit_cpi + self.dram_cpi + self.coherence_cpi
        return stalls / self.total_cpi


@dataclass(frozen=True)
class CoreTimingModel:
    """Computes per-core instruction throughput for the in-order pipeline."""

    hierarchy: CacheHierarchy = PAPER_HIERARCHY
    base_cpi: float = 1.0

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ValueError("base CPI must be positive")

    def cycles_breakdown(
        self,
        mix: InstructionMix,
        miss_rates: MissRates,
        dram_latency_cycles: float,
        coherence_fraction: float = 0.0,
        coherence_latency_cycles: float = 0.0,
    ) -> CyclesBreakdown:
        """Average CPI with miss penalties for the given behaviour.

        ``coherence_fraction`` is the share of L1 misses served by another
        core's cache instead of the L2/DRAM path; those misses pay
        ``coherence_latency_cycles`` instead.
        """
        if dram_latency_cycles < 0:
            raise ValueError("DRAM latency must be non-negative")
        if not 0.0 <= coherence_fraction <= 1.0:
            raise ValueError("coherence fraction must be in [0, 1]")
        if coherence_latency_cycles < 0:
            raise ValueError("coherence latency must be non-negative")

        memory_per_instruction = mix.memory_fraction
        l1_misses = memory_per_instruction * miss_rates.l1_miss_rate
        demand_misses = l1_misses * (1.0 - coherence_fraction)
        coherence_misses = l1_misses * coherence_fraction

        l2_hit_latency = self.hierarchy.l1_miss_penalty_cycles()
        # Every demand L1 miss at least reaches the L2; the fraction that also
        # misses there additionally pays the DRAM round trip.
        l2_hit_cpi = demand_misses * l2_hit_latency
        dram_cpi = demand_misses * miss_rates.l2_miss_rate * dram_latency_cycles
        coherence_cpi = coherence_misses * coherence_latency_cycles

        return CyclesBreakdown(
            base_cpi=self.base_cpi,
            l2_hit_cpi=l2_hit_cpi,
            dram_cpi=dram_cpi,
            coherence_cpi=coherence_cpi,
        )

    def instructions_per_second(
        self, frequency_hz: float, breakdown: CyclesBreakdown
    ) -> float:
        """Throughput of one core at the given frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return frequency_hz / breakdown.total_cpi
