"""Tests for the quantum-based execution engine and many-core simulator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import PAPER_MACHINE
from repro.arch.simulator import ExecutionEngine, ExecutionTrace, ManyCoreSimulator
from repro.energy.dvfs import PAPER_DVFS
from repro.energy.instruction import DEFAULT_MIX
from repro.workloads.descriptor import (
    MemoryBehaviour,
    ParallelBehaviour,
    WorkloadDescriptor,
)


def make_workload(
    instructions: float = 5e8,
    parallel_fraction: float = 0.98,
    max_parallelism: int = 1024,
    l1_miss: float = 0.02,
    l2_miss: float = 0.3,
) -> WorkloadDescriptor:
    return WorkloadDescriptor(
        name="synthetic",
        total_instructions=instructions,
        memory=MemoryBehaviour(
            working_set_bytes=8e6, l1_miss_rate=l1_miss, l2_miss_rate=l2_miss
        ),
        parallel=ParallelBehaviour(
            parallel_fraction=parallel_fraction,
            max_parallelism=max_parallelism,
            imbalance=1.05,
            sync_instructions_per_core=10_000,
        ),
    )


class TestExecutionEngine:
    def test_advance_retires_work_and_energy(self):
        engine = ExecutionEngine(make_workload(), n_threads=1)
        engine.set_active_cores(1)
        sample = engine.advance(1e-3)
        assert sample.instructions_retired > 0
        assert sample.energy_j > 0
        assert sample.dt_s == pytest.approx(1e-3)
        assert not sample.finished

    def test_runs_to_completion(self):
        engine = ExecutionEngine(make_workload(instructions=1e7), n_threads=1)
        engine.set_active_cores(1)
        while not engine.done:
            engine.advance(1e-3)
        assert engine.progress_fraction == pytest.approx(1.0, abs=1e-6)
        assert engine.trace.total_instructions >= 1e7

    def test_single_core_power_near_one_watt(self):
        # Paper calibration: an active 1 GHz core dissipates about 1 W.
        engine = ExecutionEngine(make_workload(l1_miss=0.005), n_threads=1)
        engine.set_active_cores(1)
        sample = engine.advance(1e-3)
        assert 0.6 <= sample.chip_power_w <= 1.3

    def test_sixteen_cores_retire_more_per_quantum(self):
        workload = make_workload()
        single = ExecutionEngine(workload, n_threads=1)
        single.set_active_cores(1)
        many = ExecutionEngine(workload, n_threads=16)
        many.set_active_cores(16)
        # Burn through the serial prefix first so both are in the parallel phase.
        serial = workload.total_instructions * (1 - workload.parallel.parallel_fraction)
        serial_time = 1.2 * serial / 1e9
        single.advance(serial_time + 1e-3)
        many.advance(serial_time + 1e-3)
        s_single = single.advance(1e-3)
        s_many = many.advance(1e-3)
        assert s_many.instructions_retired > 5 * s_single.instructions_retired

    def test_shrinking_cores_mid_run(self):
        engine = ExecutionEngine(make_workload(), n_threads=16)
        engine.set_active_cores(16)
        engine.advance(5e-3)
        cost = engine.set_active_cores(1)
        assert cost > 0
        sample = engine.advance(1e-3)
        assert sample.active_cores == 1

    def test_finished_engine_refuses_to_advance(self):
        engine = ExecutionEngine(make_workload(instructions=1e6), n_threads=1)
        engine.set_active_cores(1)
        while not engine.done:
            engine.advance(1e-2)
        with pytest.raises(RuntimeError):
            engine.advance(1e-3)

    def test_rejects_bad_arguments(self):
        engine = ExecutionEngine(make_workload(), n_threads=1)
        with pytest.raises(ValueError):
            engine.advance(0.0)
        with pytest.raises(ValueError):
            engine.set_active_cores(0)

    def test_dvfs_point_scales_energy_per_instruction(self):
        workload = make_workload(parallel_fraction=0.0, l1_miss=0.0)
        nominal = ExecutionEngine(workload, n_threads=1)
        nominal.set_active_cores(1)
        boosted_engine = ExecutionEngine(workload, n_threads=1)
        boosted_engine.set_active_cores(1)
        boosted_point = PAPER_DVFS.boosted_point_for_headroom(16.0)
        a = nominal.advance(1e-3)
        b = boosted_engine.advance(1e-3, operating_point=boosted_point)
        energy_per_instruction_nominal = a.energy_j / a.instructions_retired
        energy_per_instruction_boosted = b.energy_j / b.instructions_retired
        ratio = energy_per_instruction_boosted / energy_per_instruction_nominal
        assert ratio == pytest.approx(
            boosted_point.energy_per_work_scale(PAPER_MACHINE.nominal), rel=0.05
        )
        # And the boosted core retires more work per unit time.
        assert b.instructions_retired > 1.5 * a.instructions_retired


class TestNonFiniteInput:
    """Every public entry point of the engine rejects NaN and infinity."""

    def test_advance_rejects_nan(self):
        engine = ExecutionEngine(make_workload(), n_threads=1)
        with pytest.raises(ValueError, match="finite"):
            engine.advance(float("nan"))
        assert engine.time_s == 0.0 and engine.trace.empty

    def test_advance_rejects_infinity(self):
        engine = ExecutionEngine(make_workload(), n_threads=1)
        with pytest.raises(ValueError, match="finite"):
            engine.advance(float("inf"))
        assert engine.time_s == 0.0 and engine.trace.empty

    def test_run_rejects_nan_quantum(self):
        with pytest.raises(ValueError, match="finite"):
            ManyCoreSimulator().run(make_workload(), cores=1, quantum_s=float("nan"))

    def test_run_rejects_nan_max_time(self):
        with pytest.raises(ValueError, match="finite"):
            ManyCoreSimulator().run(make_workload(), cores=1, max_time_s=float("nan"))

    def test_set_active_cores_rejects_fractional_count(self):
        engine = ExecutionEngine(make_workload(), n_threads=4)
        with pytest.raises(TypeError, match="integer"):
            engine.set_active_cores(2.5)
        assert engine.active_cores == 1


class TestClosedFormOracle:
    """Below the queueing knee the engine's run time has a closed form.

    The expected CPI is written out by hand from the descriptor and the
    paper machine (L2 hit 20 cycles, 60 ns DRAM, directory lookup 20 +
    forward 25 + 2 cycles per extra sharer), not taken from the engine's
    own models.  A working set of 64 MB overflows every cache slice, so the
    effective miss rates equal the intrinsic ones.
    """

    L1_MISS = 0.02
    L2_MISS = 0.3
    COHERENCE = 0.05
    FREQUENCY = PAPER_MACHINE.nominal.frequency_hz

    def workload(self, parallel_fraction: float) -> WorkloadDescriptor:
        return WorkloadDescriptor(
            name="oracle",
            total_instructions=4e8,
            memory=MemoryBehaviour(
                working_set_bytes=64 * 1024 * 1024,
                l1_miss_rate=self.L1_MISS,
                l2_miss_rate=self.L2_MISS,
                coherence_miss_fraction=self.COHERENCE,
            ),
            parallel=ParallelBehaviour(
                parallel_fraction=parallel_fraction,
                imbalance=1.05,
                sync_instructions_per_core=10_000,
            ),
        )

    def cpi(self, sharers: int) -> float:
        memory_fraction = DEFAULT_MIX.load + DEFAULT_MIX.store
        l1_misses = memory_fraction * self.L1_MISS
        if sharers == 1:
            coherence, coherence_cycles = 0.0, 0.0
        else:
            coherence = self.COHERENCE * (1.0 + math.log2(sharers) / 4.0)
            coherence_cycles = 20.0 + 25.0 + 2.0 * (sharers - 1)
        dram_cycles = 60e-9 * self.FREQUENCY
        demand = l1_misses * (1.0 - coherence)
        return (
            1.0
            + demand * 20.0
            + demand * self.L2_MISS * dram_cycles
            + l1_misses * coherence * coherence_cycles
        )

    def test_serial_workload_on_one_core(self):
        workload = self.workload(parallel_fraction=0.0)
        # Four threads multiplexed on a one-core machine (so no migration
        # stall) pay 3 x 0.5% context switching.
        engine = ExecutionEngine(workload, machine=PAPER_MACHINE.with_cores(1), n_threads=4)
        assert engine.set_active_cores(1) == 0.0
        slowdown = 1.0 + 3 * 0.005
        while not engine.done:
            sample = engine.advance(1e-3)
            assert sample.bandwidth_utilization < PAPER_MACHINE.memory.queueing_knee
        expected = workload.total_instructions * self.cpi(1) * slowdown / self.FREQUENCY
        assert engine.time_s == pytest.approx(expected, rel=1e-9)
        assert engine.trace.duration_s == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("cores", [2, 8, 16])
    def test_parallel_workload_on_n_cores(self, cores):
        workload = self.workload(parallel_fraction=1.0)
        result = ManyCoreSimulator().run(workload, cores=cores)
        assert max(s.bandwidth_utilization for s in result.trace) < (
            PAPER_MACHINE.memory.queueing_knee
        )
        parallel = workload.parallel
        work = workload.total_instructions + cores * parallel.sync_instructions_per_core
        expected = work * parallel.imbalance * self.cpi(cores) / (cores * self.FREQUENCY)
        assert result.total_time_s == pytest.approx(expected, rel=1e-9)


class TestExecutionTrace:
    def test_empty_trace(self):
        trace = ExecutionTrace()
        assert trace.empty
        assert trace.total_energy_j == 0.0
        assert trace.duration_s == 0.0

    def test_cumulative_instructions_monotonic(self):
        engine = ExecutionEngine(make_workload(instructions=5e7), n_threads=4)
        engine.set_active_cores(4)
        while not engine.done:
            engine.advance(1e-3)
        cumulative = engine.trace.cumulative_instructions()
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert len(engine.trace) == len(cumulative)


class TestManyCoreSimulator:
    def setup_method(self):
        self.simulator = ManyCoreSimulator()
        self.workload = make_workload(instructions=2e8)

    def test_single_core_baseline_time(self):
        result = self.simulator.single_core_baseline(self.workload)
        # 2e8 instructions at ~1 GHz and CPI slightly above 1.
        assert 0.15 <= result.total_time_s <= 0.6
        assert result.cores == 1

    def test_parallel_speedup_and_work_conservation(self):
        baseline = self.simulator.single_core_baseline(self.workload)
        parallel = self.simulator.run(self.workload, cores=16)
        speedup = parallel.speedup_over(baseline)
        assert 6.0 <= speedup <= 16.5
        # Both runs retire (at least) the workload's instructions, up to
        # floating-point rounding of the per-quantum work accounting.
        assert baseline.total_instructions >= self.workload.total_instructions * (1 - 1e-9)
        assert parallel.total_instructions >= self.workload.total_instructions * (1 - 1e-9)

    def test_speedup_monotonic_in_cores(self):
        baseline = self.simulator.single_core_baseline(self.workload)
        previous = 0.0
        for cores in (2, 4, 8, 16):
            result = self.simulator.run(self.workload, cores=cores)
            speedup = result.speedup_over(baseline)
            assert speedup >= previous * 0.98
            previous = speedup

    def test_max_parallelism_caps_speedup(self):
        limited = make_workload(instructions=2e8, max_parallelism=4)
        baseline = self.simulator.single_core_baseline(limited)
        result = self.simulator.run(limited, cores=16)
        assert result.speedup_over(baseline) <= 4.6

    def test_amdahl_limit(self):
        serial_heavy = make_workload(instructions=2e8, parallel_fraction=0.5)
        baseline = self.simulator.single_core_baseline(serial_heavy)
        result = self.simulator.run(serial_heavy, cores=16)
        assert result.speedup_over(baseline) < 2.2

    def test_parallel_energy_close_to_serial(self):
        baseline = self.simulator.single_core_baseline(self.workload)
        parallel = self.simulator.run(self.workload, cores=16)
        assert parallel.energy_ratio_over(baseline) <= 1.4

    def test_requesting_more_cores_than_machine_grows_machine(self):
        result = self.simulator.run(self.workload, cores=64, quantum_s=5e-4)
        assert result.cores == 64

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            self.simulator.run(self.workload, cores=0)
        with pytest.raises(ValueError):
            self.simulator.run(self.workload, cores=4, quantum_s=0.0)

    def test_unfinishable_workload_raises(self):
        huge = make_workload(instructions=1e13)
        with pytest.raises(RuntimeError):
            self.simulator.run(huge, cores=1, quantum_s=1e-2, max_time_s=0.05)


class TestEngineProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        cores=st.integers(min_value=1, max_value=32),
        parallel_fraction=st.floats(min_value=0.5, max_value=1.0),
        l1_miss=st.floats(min_value=0.0, max_value=0.2),
    )
    def test_energy_and_time_always_positive(self, cores, parallel_fraction, l1_miss):
        workload = make_workload(
            instructions=2e7, parallel_fraction=parallel_fraction, l1_miss=l1_miss
        )
        simulator = ManyCoreSimulator()
        result = simulator.run(workload, cores=cores, quantum_s=2e-3)
        assert result.total_time_s > 0
        assert result.total_energy_j > 0
        assert result.total_instructions >= workload.total_instructions * 0.999

    @settings(max_examples=10, deadline=None)
    @given(cores=st.integers(min_value=1, max_value=64))
    def test_speedup_never_exceeds_core_count(self, cores):
        workload = make_workload(instructions=3e7)
        simulator = ManyCoreSimulator()
        baseline = simulator.single_core_baseline(workload)
        result = simulator.run(workload, cores=cores, quantum_s=2e-3)
        assert result.speedup_over(baseline) <= cores * 1.05 + 0.05
