"""Integration tests for the end-to-end sprint simulation (Section 8)."""

import numpy as np
import pytest

from repro.core.budget import OracleBudgetEstimator
from repro.core.config import SystemConfig
from repro.core.modes import ExecutionMode, SprintMode
from repro.core.simulation import SprintSimulation
from repro.workloads.descriptor import (
    MemoryBehaviour,
    ParallelBehaviour,
    WorkloadDescriptor,
)
from repro.workloads.suite import kernel_suite


def small_workload(instructions: float = 3e8) -> WorkloadDescriptor:
    """A compute-dense workload that simulates quickly."""
    return WorkloadDescriptor(
        name="toy",
        total_instructions=instructions,
        memory=MemoryBehaviour(working_set_bytes=4e6, l1_miss_rate=0.01, l2_miss_rate=0.3),
        parallel=ParallelBehaviour(
            parallel_fraction=0.99, max_parallelism=256, imbalance=1.03,
            sync_instructions_per_core=20_000,
        ),
    )


@pytest.fixture(scope="module")
def paper_sim():
    return SprintSimulation(SystemConfig.paper_default())


@pytest.fixture(scope="module")
def small_pcm_sim():
    return SprintSimulation(SystemConfig.small_pcm())


@pytest.fixture(scope="module")
def toy():
    return small_workload()


@pytest.fixture(scope="module")
def toy_results(paper_sim, toy):
    baseline = paper_sim.run_baseline(toy)
    sprint = paper_sim.run(toy)
    dvfs = paper_sim.run_dvfs_sprint(toy)
    return baseline, sprint, dvfs


class TestSprintSimulationBasics:
    def test_baseline_uses_one_core_and_stays_cool(self, toy_results):
        baseline, _, _ = toy_results
        assert baseline.execution_mode is ExecutionMode.SUSTAINED_SINGLE_CORE
        assert baseline.metrics.time_in(SprintMode.SPRINT) == 0.0
        # A ~1 W core on a package that sustains ~1 W stays below the limit.
        assert baseline.peak_junction_c < 70.0
        assert baseline.completed

    def test_parallel_sprint_is_much_faster(self, toy_results):
        baseline, sprint, _ = toy_results
        speedup = sprint.speedup_over(baseline)
        assert 8.0 <= speedup <= 16.5
        assert sprint.sprint_completion_fraction > 0.9
        assert not sprint.sprint_was_truncated

    def test_sprint_power_exceeds_tdp(self, toy_results, paper_sim):
        _, sprint, _ = toy_results
        sprint_energy = sprint.metrics.energy_in(SprintMode.SPRINT)
        sprint_time = sprint.metrics.time_in(SprintMode.SPRINT)
        assert sprint_energy / sprint_time > 5 * paper_sim.config.sustainable_power_w

    def test_junction_never_exceeds_limit_materially(self, toy_results):
        for result in toy_results:
            assert result.peak_junction_c <= 71.0

    def test_dvfs_sprint_is_slower_than_parallel_but_faster_than_baseline(
        self, toy_results
    ):
        baseline, sprint, dvfs = toy_results
        assert dvfs.total_time_s < baseline.total_time_s
        assert dvfs.total_time_s > sprint.total_time_s
        # DVFS pays roughly the V^2 energy penalty.
        assert dvfs.energy_ratio_over(baseline) > 3.0

    def test_parallel_sprint_energy_near_baseline(self, toy_results):
        baseline, sprint, _ = toy_results
        assert sprint.energy_ratio_over(baseline) < 1.35

    def test_mode_timeline_covers_run(self, toy_results):
        _, sprint, _ = toy_results
        assert sprint.mode_timeline[0].mode is SprintMode.SPRINT
        total = sum(interval.duration_s for interval in sprint.mode_timeline)
        assert total == pytest.approx(sprint.total_time_s, rel=1e-6)

    def test_traces_are_consistent(self, toy_results):
        _, sprint, _ = toy_results
        assert len(sprint.junction_trace_c) == len(sprint.trace_times_s)
        assert np.all(np.diff(sprint.trace_times_s) > 0)
        assert sprint.junction_trace_c[0] == pytest.approx(25.0, abs=1.0)


class TestSprintTruncation:
    def test_small_pcm_truncates_long_sprint(self, small_pcm_sim, paper_sim):
        workload = small_workload(instructions=4e9)
        truncated = small_pcm_sim.run(workload)
        assert truncated.sprint_was_truncated
        assert truncated.sprint_exhausted_at_s is not None
        # After exhaustion the run continues in sustained mode on one core.
        assert truncated.metrics.time_in(SprintMode.SUSTAINED) > 0.0
        assert truncated.completed
        full = paper_sim.run(workload)
        assert full.total_time_s < truncated.total_time_s

    def test_oracle_budget_allows_at_least_as_long_a_sprint(self, small_pcm_sim):
        workload = small_workload(instructions=4e9)
        config = small_pcm_sim.config
        energy_run = small_pcm_sim.run(workload)
        oracle_run = small_pcm_sim.run(
            workload, budget=OracleBudgetEstimator(config.package)
        )
        assert oracle_run.sprint_duration_s >= 0.6 * energy_run.sprint_duration_s
        assert oracle_run.peak_junction_c <= 71.0


class TestSimulationUtilities:
    def test_compare_modes_returns_all_three(self, paper_sim):
        results = paper_sim.compare_modes(small_workload(instructions=1e8))
        assert set(results) == set(ExecutionMode)

    def test_cooldown_after_sprint(self, paper_sim):
        # A long sprint deposits enough heat that the package needs a
        # multi-second cooldown before it is back near ambient.
        sprint = paper_sim.run(small_workload(instructions=6e9))
        cooldown = paper_sim.cooldown_after(sprint, duration_s=60.0)
        assert cooldown.time_to_near_ambient_s is not None
        assert cooldown.time_to_near_ambient_s > 0.5
        # The rule of thumb: cooling takes far longer than the sprint itself.
        assert cooldown.time_to_near_ambient_s > 2 * sprint.sprint_duration_s

    def test_quantum_override_changes_resolution_not_result(self, paper_sim):
        workload = small_workload(instructions=2e8)
        fine = paper_sim.run(workload, quantum_s=5e-4)
        coarse = paper_sim.run(workload, quantum_s=4e-3)
        assert fine.total_time_s == pytest.approx(coarse.total_time_s, rel=0.05)

    def test_explicit_thread_count(self, paper_sim):
        result = paper_sim.run(small_workload(instructions=1e8), n_threads=4)
        # Only four threads exist, so at most four cores ever run.
        assert max(i.active_cores for i in result.mode_timeline) <= 4

    def test_invalid_arguments(self, paper_sim, toy):
        with pytest.raises(ValueError):
            paper_sim.run(toy, max_time_s=0.0)
        with pytest.raises(ValueError):
            paper_sim.run(toy, n_threads=0)
        with pytest.raises(RuntimeError):
            paper_sim.run(small_workload(instructions=1e12), max_time_s=0.01)

    def test_nan_max_time_is_rejected(self, paper_sim, toy):
        # A NaN guard compares False forever and would disable the runaway check.
        with pytest.raises(ValueError, match="finite"):
            paper_sim.run(toy, max_time_s=float("nan"))


class TestPaperWorkloadsEndToEnd:
    def test_sobel_sprint_matches_paper_shape(self, paper_sim):
        workload = kernel_suite()["sobel"].workload("A")
        baseline = paper_sim.run_baseline(workload, quantum_s=2e-3)
        sprint = paper_sim.run(workload)
        speedup = sprint.speedup_over(baseline)
        assert speedup > 8.0
        assert sprint.peak_junction_c < 70.5

    def test_segment_limited_by_parallelism(self, paper_sim):
        workload = kernel_suite()["segment"].workload("A")
        baseline = paper_sim.run_baseline(workload, quantum_s=2e-3)
        sprint = paper_sim.run(workload)
        assert 3.0 <= sprint.speedup_over(baseline) <= 9.0
