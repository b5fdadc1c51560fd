"""Tests for the cache geometry and miss-rate models."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.cache import (
    CacheConfig,
    CacheHierarchy,
    MissRates,
    PAPER_L1,
    PAPER_L2,
    capacity_miss_scale,
)


class TestCacheConfig:
    def test_paper_l1_geometry(self):
        assert PAPER_L1.size_bytes == 32 * 1024
        assert PAPER_L1.associativity == 8
        assert PAPER_L1.lines == 512
        assert PAPER_L1.sets == 64

    def test_paper_l2_geometry(self):
        assert PAPER_L2.size_bytes == 4 * 1024 * 1024
        assert PAPER_L2.associativity == 16
        assert PAPER_L2.hit_latency_cycles == 20

    def test_fits(self):
        assert PAPER_L1.fits(16 * 1024)
        assert not PAPER_L1.fits(64 * 1024)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, associativity=4)

    def test_rejects_size_not_multiple_of_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=4, line_bytes=64)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=2, hit_latency_cycles=-1)


class TestCapacityMissScale:
    def test_equal_to_capacity_is_one(self):
        assert capacity_miss_scale(1024, 1024) == 1.0

    def test_above_capacity_is_one(self):
        assert capacity_miss_scale(10 * 1024, 1024) == 1.0

    def test_below_capacity_reduces_misses(self):
        assert capacity_miss_scale(256, 1024) == pytest.approx(0.5)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ValueError):
            capacity_miss_scale(0, 1024)
        with pytest.raises(ValueError):
            capacity_miss_scale(1024, 0)

    @given(
        working_set=st.floats(min_value=1.0, max_value=1e9),
        capacity=st.floats(min_value=1.0, max_value=1e9),
    )
    def test_scale_always_in_unit_interval(self, working_set, capacity):
        scale = capacity_miss_scale(working_set, capacity)
        assert 0.0 < scale <= 1.0

    @given(
        smaller=st.floats(min_value=1.0, max_value=1e6),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_scale_monotonic_in_working_set(self, smaller, factor):
        capacity = 1e6
        assert capacity_miss_scale(smaller, capacity) <= capacity_miss_scale(
            smaller * factor, capacity
        ) + 1e-12


class TestMissRates:
    def test_dram_rate_is_product(self):
        rates = MissRates(l1_miss_rate=0.1, l2_miss_rate=0.5)
        assert rates.dram_rate == pytest.approx(0.05)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MissRates(l1_miss_rate=1.5, l2_miss_rate=0.5)


class TestCacheHierarchy:
    def setup_method(self):
        self.hierarchy = CacheHierarchy()

    def test_small_working_set_reduces_misses(self):
        small = self.hierarchy.effective_miss_rates(0.05, 0.5, 16 * 1024, sharers=1)
        large = self.hierarchy.effective_miss_rates(0.05, 0.5, 64 * 1024 * 1024, sharers=1)
        assert small.l1_miss_rate < large.l1_miss_rate
        assert small.l2_miss_rate < large.l2_miss_rate

    def test_sharing_l2_increases_l2_misses(self):
        alone = self.hierarchy.effective_miss_rates(0.05, 0.5, 32 * 1024 * 1024, sharers=1)
        shared = self.hierarchy.effective_miss_rates(0.05, 0.5, 32 * 1024 * 1024, sharers=16)
        assert shared.l2_miss_rate >= alone.l2_miss_rate * 0.99

    def test_partitioning_reduces_per_core_l1_misses(self):
        alone = self.hierarchy.effective_miss_rates(0.2, 0.5, 8 * 1024 * 1024, sharers=1)
        shared = self.hierarchy.effective_miss_rates(0.2, 0.5, 8 * 1024 * 1024, sharers=64)
        assert shared.l1_miss_rate <= alone.l1_miss_rate

    def test_floor_applies(self):
        rates = self.hierarchy.effective_miss_rates(0.001, 0.001, 1024, sharers=1)
        assert rates.l1_miss_rate >= self.hierarchy.miss_rate_floor
        assert rates.l2_miss_rate >= self.hierarchy.miss_rate_floor

    def test_l1_miss_penalty_is_l2_hit_latency(self):
        assert self.hierarchy.l1_miss_penalty_cycles() == PAPER_L2.hit_latency_cycles

    def test_cold_start_misses_capped_at_l1(self):
        assert self.hierarchy.cold_start_misses(1e9) == pytest.approx(
            PAPER_L1.size_bytes / PAPER_L1.line_bytes
        )
        assert self.hierarchy.cold_start_misses(6400) == pytest.approx(100.0)

    def test_rejects_invalid_sharers(self):
        with pytest.raises(ValueError):
            self.hierarchy.effective_miss_rates(0.05, 0.5, 1024, sharers=0)

    @pytest.mark.parametrize("working_set", [float("nan"), float("inf")])
    def test_rejects_non_finite_working_set(self, working_set):
        # NaN used to slip through every comparison and return the floor rates.
        with pytest.raises(ValueError, match="finite"):
            self.hierarchy.effective_miss_rates(0.05, 0.5, working_set, sharers=1)

    @given(
        l1=st.floats(min_value=0.0, max_value=1.0),
        l2=st.floats(min_value=0.0, max_value=1.0),
        ws=st.floats(min_value=1.0, max_value=1e9),
        sharers=st.integers(min_value=1, max_value=128),
    )
    def test_rates_always_valid(self, l1, l2, ws, sharers):
        rates = self.hierarchy.effective_miss_rates(l1, l2, ws, sharers)
        assert 0.0 <= rates.l1_miss_rate <= 1.0
        assert 0.0 <= rates.l2_miss_rate <= 1.0
