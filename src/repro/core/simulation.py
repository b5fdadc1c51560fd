"""End-to-end sprint simulation: architecture + energy + thermal + runtime.

:class:`SprintSimulation` reproduces the coupled evaluation of Section 8:
the execution engine retires a workload quantum by quantum, its per-quantum
dynamic energy drives the RC thermal network (the paper samples energy every
1000 cycles for the same purpose), and the sprint controller watches the
thermal budget, terminating the sprint when it runs out by migrating all
threads onto a single core (or throttling, for the ablation).

Typical use::

    from repro import SprintSimulation, SystemConfig
    from repro.workloads import kernel_suite

    sim = SprintSimulation(SystemConfig.paper_default())
    sprint = sim.run(kernel_suite()["sobel"].workload("B"))
    baseline = sim.run_baseline(kernel_suite()["sobel"].workload("B"))
    print(sprint.speedup_over(baseline))
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.simulator import ExecutionEngine
from repro.core.budget import ThermalBudgetEstimator
from repro.core.config import SystemConfig
from repro.core.controller import SprintController
from repro.core.metrics import ModeInterval, SprintMetrics, SprintResult
from repro.core.modes import ExecutionMode, SprintMode
from repro.thermal.package import JUNCTION
from repro.thermal.transient import CooldownResult, simulate_cooldown
from repro.workloads.descriptor import WorkloadDescriptor


class SprintSimulation:
    """Runs workloads on a sprint-enabled system configuration."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig.paper_default()

    # -- public API ---------------------------------------------------------------

    def run(
        self,
        workload: WorkloadDescriptor,
        execution_mode: ExecutionMode = ExecutionMode.PARALLEL_SPRINT,
        n_threads: int | None = None,
        budget: ThermalBudgetEstimator | None = None,
        max_time_s: float = 600.0,
        quantum_s: float | None = None,
    ) -> SprintResult:
        """Execute one workload under the given mode and return the result."""
        if not 0.0 < max_time_s < math.inf:
            raise ValueError(
                f"maximum simulated time must be positive and finite, got {max_time_s!r}"
            )
        config = self.config
        if quantum_s is not None:
            config = config.with_quantum(quantum_s)
        threads = self._thread_count(execution_mode, n_threads)

        network = config.package.build()
        engine = ExecutionEngine(
            workload,
            machine=config.machine,
            n_threads=threads,
            power_model=config.core_power,
        )
        controller = SprintController(config, budget=budget)
        decision = controller.begin_task(threads, execution_mode)
        engine.set_active_cores(decision.cores)
        operating_point = decision.operating_point

        metrics = SprintMetrics()
        junction_trace: list[float] = [network.temperature(JUNCTION)]
        trace_times: list[float] = [0.0]
        mode_timeline: list[ModeInterval] = []
        mode_started_at = 0.0
        current_mode = decision.mode
        current_cores = decision.cores
        elapsed = 0.0
        sprint_instructions = 0.0

        # Gradual core activation (Section 5.3): cores may not execute until
        # the supply has ramped; they idle at sleep power meanwhile.
        if decision.activation_delay_s > 0:
            elapsed = self._simulate_activation_ramp(
                network, metrics, decision, controller, junction_trace, trace_times
            )

        while not engine.done:
            if elapsed >= max_time_s:
                raise RuntimeError(
                    f"workload {workload.name!r} did not finish within {max_time_s}s"
                )
            sample = engine.advance(config.quantum_s, operating_point=operating_point)
            dt = sample.dt_s
            power = sample.chip_power_w
            network.step(dt, {JUNCTION: power})
            junction_c = network.temperature(JUNCTION)
            elapsed += dt

            metrics.record_quantum(
                mode=current_mode,
                dt_s=dt,
                energy_j=sample.energy_j,
                junction_c=junction_c,
                instructions=sample.instructions_retired,
                dram_bytes=sample.dram_bytes,
            )
            if current_mode is SprintMode.SPRINT:
                sprint_instructions += sample.instructions_retired
            junction_trace.append(junction_c)
            trace_times.append(elapsed)

            new_decision = controller.on_quantum(sample.energy_j, dt, junction_c)
            if new_decision is not None:
                mode_timeline.append(
                    ModeInterval(current_mode, mode_started_at, elapsed, current_cores)
                )
                mode_started_at = elapsed
                current_mode = new_decision.mode
                current_cores = new_decision.cores
                engine.set_active_cores(new_decision.cores)
                operating_point = new_decision.operating_point

        mode_timeline.append(
            ModeInterval(current_mode, mode_started_at, elapsed, current_cores)
        )
        controller.finish_task()

        return SprintResult(
            workload_name=workload.name,
            input_label=workload.input_label,
            execution_mode=execution_mode,
            completed=True,
            total_time_s=elapsed,
            metrics=metrics,
            mode_timeline=mode_timeline,
            sprint_completion_fraction=(
                sprint_instructions / workload.total_instructions
            ),
            sprint_exhausted_at_s=controller.sprint_exhausted_at_s,
            junction_trace_c=np.array(junction_trace),
            trace_times_s=np.array(trace_times),
            execution_trace=engine.trace,
        )

    def run_baseline(
        self,
        workload: WorkloadDescriptor,
        max_time_s: float = 600.0,
        quantum_s: float | None = None,
    ) -> SprintResult:
        """The paper's non-sprinting baseline: a single core at nominal V/f."""
        return self.run(
            workload,
            execution_mode=ExecutionMode.SUSTAINED_SINGLE_CORE,
            max_time_s=max_time_s,
            quantum_s=quantum_s,
        )

    def run_dvfs_sprint(
        self,
        workload: WorkloadDescriptor,
        max_time_s: float = 600.0,
        quantum_s: float | None = None,
    ) -> SprintResult:
        """Idealised single-core DVFS sprint with the same power headroom."""
        return self.run(
            workload,
            execution_mode=ExecutionMode.DVFS_SPRINT,
            max_time_s=max_time_s,
            quantum_s=quantum_s,
        )

    def compare_modes(
        self, workload: WorkloadDescriptor
    ) -> dict[ExecutionMode, SprintResult]:
        """Run all three Section 8 execution modes on one workload."""
        return {mode: self.run(workload, execution_mode=mode) for mode in ExecutionMode}

    def cooldown_after(
        self, result: SprintResult, duration_s: float = 30.0
    ) -> CooldownResult:
        """Post-task cooldown transient (Figure 4(b)) for a completed result.

        Rebuilds the thermal state by replaying the result's average sprint
        power for its sprint duration, then lets the package cool.
        """
        network = self.config.package.build()
        sprint_time = result.metrics.time_in(SprintMode.SPRINT)
        if sprint_time > 0:
            sprint_energy = result.metrics.energy_in(SprintMode.SPRINT)
            network.step(sprint_time, {JUNCTION: sprint_energy / sprint_time})
        return simulate_cooldown(network, self.config.package, duration_s=duration_s)

    # -- internals ------------------------------------------------------------------

    def _thread_count(self, mode: ExecutionMode, n_threads: int | None) -> int:
        if n_threads is not None:
            if n_threads < 1:
                raise ValueError("thread count must be positive")
            return n_threads
        if mode is ExecutionMode.PARALLEL_SPRINT:
            return self.config.policy.sprint_cores
        return 1

    def _simulate_activation_ramp(
        self,
        network,
        metrics: SprintMetrics,
        decision,
        controller: SprintController,
        junction_trace: list[float],
        trace_times: list[float],
    ) -> float:
        """Cores idle at sleep power while the supply ramps; returns elapsed time."""
        config = self.config
        delay = decision.activation_delay_s
        idle_power = (
            decision.cores * config.core_power.sleep_power_w(decision.operating_point)
        )
        network.step(delay, {JUNCTION: idle_power})
        junction_c = network.temperature(JUNCTION)
        metrics.record_quantum(
            mode=decision.mode,
            dt_s=delay,
            energy_j=idle_power * delay,
            junction_c=junction_c,
            instructions=0.0,
            dram_bytes=0.0,
        )
        controller.on_quantum(idle_power * delay, delay, junction_c)
        junction_trace.append(junction_c)
        trace_times.append(delay)
        return delay
