"""Tests for the in-order core timing model."""

import pytest

from repro.arch.cache import MissRates
from repro.arch.core import CoreTimingModel, CyclesBreakdown
from repro.energy.instruction import DEFAULT_MIX, InstructionMix


class TestCyclesBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = CyclesBreakdown(base_cpi=1.0, l2_hit_cpi=0.2, dram_cpi=0.5, coherence_cpi=0.1)
        assert breakdown.total_cpi == pytest.approx(1.8)

    def test_memory_stall_fraction(self):
        breakdown = CyclesBreakdown(base_cpi=1.0, l2_hit_cpi=0.5, dram_cpi=0.5, coherence_cpi=0.0)
        assert breakdown.memory_stall_fraction == pytest.approx(0.5)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            CyclesBreakdown(base_cpi=1.0, l2_hit_cpi=-0.1, dram_cpi=0.0, coherence_cpi=0.0)


class TestCoreTimingModel:
    def setup_method(self):
        self.model = CoreTimingModel()

    def test_no_misses_gives_base_cpi(self):
        breakdown = self.model.cycles_breakdown(
            DEFAULT_MIX, MissRates(0.0, 0.0), dram_latency_cycles=60.0
        )
        assert breakdown.total_cpi == pytest.approx(1.0)

    def test_cpi_is_one_plus_miss_penalties(self):
        # The paper's formulation: CPI = 1 + (miss penalties).
        miss_rates = MissRates(l1_miss_rate=0.1, l2_miss_rate=0.5)
        breakdown = self.model.cycles_breakdown(
            DEFAULT_MIX, miss_rates, dram_latency_cycles=60.0
        )
        memory_fraction = DEFAULT_MIX.memory_fraction
        expected = (
            1.0
            + memory_fraction * 0.1 * 20.0
            + memory_fraction * 0.1 * 0.5 * 60.0
        )
        assert breakdown.total_cpi == pytest.approx(expected)

    def test_coherence_misses_replace_demand_misses(self):
        miss_rates = MissRates(l1_miss_rate=0.1, l2_miss_rate=0.5)
        without = self.model.cycles_breakdown(
            DEFAULT_MIX, miss_rates, dram_latency_cycles=60.0
        )
        with_coherence = self.model.cycles_breakdown(
            DEFAULT_MIX,
            miss_rates,
            dram_latency_cycles=60.0,
            coherence_fraction=0.5,
            coherence_latency_cycles=45.0,
        )
        assert with_coherence.coherence_cpi > 0
        assert with_coherence.dram_cpi < without.dram_cpi

    def test_memory_heavy_mix_stalls_more(self):
        compute_mix = InstructionMix(int_alu=0.7, int_mul=0.05, fp=0.1, load=0.08, store=0.02, branch=0.05)
        memory_mix = InstructionMix(int_alu=0.3, int_mul=0.05, fp=0.1, load=0.35, store=0.15, branch=0.05)
        miss_rates = MissRates(l1_miss_rate=0.1, l2_miss_rate=0.5)
        compute = self.model.cycles_breakdown(compute_mix, miss_rates, 60.0)
        memory = self.model.cycles_breakdown(memory_mix, miss_rates, 60.0)
        assert memory.total_cpi > compute.total_cpi

    def test_instructions_per_second(self):
        breakdown = CyclesBreakdown(base_cpi=2.0, l2_hit_cpi=0.0, dram_cpi=0.0, coherence_cpi=0.0)
        assert self.model.instructions_per_second(1e9, breakdown) == pytest.approx(5e8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CoreTimingModel(base_cpi=0.0)
        with pytest.raises(ValueError):
            self.model.cycles_breakdown(DEFAULT_MIX, MissRates(0.1, 0.1), -1.0)
        with pytest.raises(ValueError):
            self.model.instructions_per_second(
                0.0, CyclesBreakdown(1.0, 0.0, 0.0, 0.0)
            )
