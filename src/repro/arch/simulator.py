"""Quantum-based many-core execution engine.

This is the reproduction of the paper's instruction-level simulator
(Section 8.1).  Rather than interpreting x86 instructions, the engine
advances a :class:`~repro.workloads.descriptor.WorkloadDescriptor` in time
quanta, applying the same arithmetic the paper's simulator applies per
instruction:

* in-order cores retire one instruction per cycle plus cache miss penalties,
* private L1s and a shared L2 determine those penalties (with capacity and
  sharing effects),
* a dual-channel memory interface caps aggregate DRAM bandwidth and adds
  queueing latency as it saturates,
* load imbalance and barrier overhead blunt parallel efficiency, and cores
  that run out of work PAUSE-sleep at 10% power,
* per-quantum dynamic energy is reported so the sprint runtime can drive
  the thermal model (the paper samples energy every 1000 cycles; the engine
  reports exact per-quantum energy instead).

The engine supports changing the number of powered cores and the operating
point between quanta, which is how the sprint runtime terminates a sprint
(migrate to one core) or sprints via DVFS instead of parallelism.

Every rate the models above produce — miss rates, CPI, bandwidth
utilisation, throughput, bytes per instruction, sleep power and the
dynamic-energy coefficients — is constant for a given (phase, powered
cores, operating point).  The engine evaluates the models once per such
configuration, keeps the result in a per-engine rate table, and advances
each quantum with a few multiplications on the cached record.  The
per-quantum arithmetic is evaluated in the same order as a direct
evaluation would, so caching changes no output bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from repro.arch.coherence import DirectoryProtocol
from repro.arch.machine import MachineConfig, PAPER_MACHINE
from repro.arch.memory import MemorySystem
from repro.arch.scheduler import ThreadScheduler
from repro.energy.core import CorePowerModel, CoreState
from repro.energy.dvfs import OperatingPoint
from repro.energy.instruction import InstructionEnergyModel
from repro.workloads.descriptor import WorkloadDescriptor

#: Smallest quantum the engine will simulate (guards against zero-size steps).
_MIN_DT_S = 1e-12


@dataclass(frozen=True)
class QuantumSample:
    """Everything that happened during one simulated quantum."""

    time_s: float
    dt_s: float
    phase: str
    active_cores: int
    usable_cores: int
    instructions_retired: float
    energy_j: float
    dram_bytes: float
    bandwidth_utilization: float
    cpi: float
    executing_core_seconds: float
    sleeping_core_seconds: float
    finished: bool

    @property
    def chip_power_w(self) -> float:
        """Average chip power over the quantum."""
        if self.dt_s <= 0:
            return 0.0
        return self.energy_j / self.dt_s

    @property
    def throughput_ips(self) -> float:
        """Aggregate instructions per second retired during the quantum."""
        if self.dt_s <= 0:
            return 0.0
        return self.instructions_retired / self.dt_s


@dataclass
class ExecutionTrace:
    """Ordered list of quantum samples with array accessors."""

    samples: list[QuantumSample] = field(default_factory=list)

    def append(self, sample: QuantumSample) -> None:
        """Record one quantum."""
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def empty(self) -> bool:
        """True when nothing has been recorded."""
        return not self.samples

    def times_s(self) -> np.ndarray:
        """End-of-quantum timestamps."""
        return np.array([s.time_s + s.dt_s for s in self.samples])

    def power_w(self) -> np.ndarray:
        """Chip power per quantum."""
        return np.array([s.chip_power_w for s in self.samples])

    def active_cores(self) -> np.ndarray:
        """Powered core count per quantum."""
        return np.array([s.active_cores for s in self.samples])

    def cumulative_instructions(self) -> np.ndarray:
        """Cumulative instructions retired (the paper's "cumulative computation")."""
        return np.cumsum([s.instructions_retired for s in self.samples])

    @property
    def total_energy_j(self) -> float:
        """Total dynamic energy over the trace."""
        return float(sum(s.energy_j for s in self.samples))

    @property
    def total_instructions(self) -> float:
        """Total instructions retired over the trace."""
        return float(sum(s.instructions_retired for s in self.samples))

    @property
    def duration_s(self) -> float:
        """Total simulated time covered by the trace."""
        return float(sum(s.dt_s for s in self.samples))


@dataclass(frozen=True)
class RunResult:
    """Summary of running one workload to completion on a fixed configuration."""

    workload_name: str
    cores: int
    operating_point: OperatingPoint
    total_time_s: float
    total_energy_j: float
    total_instructions: float
    trace: ExecutionTrace

    @property
    def average_power_w(self) -> float:
        """Average chip power over the run."""
        if self.total_time_s == 0:
            return 0.0
        return self.total_energy_j / self.total_time_s

    def speedup_over(self, baseline: "RunResult") -> float:
        """Wall-clock speedup relative to another run of the same workload."""
        if self.total_time_s == 0:
            raise ZeroDivisionError("run completed in zero time")
        return baseline.total_time_s / self.total_time_s

    def energy_ratio_over(self, baseline: "RunResult") -> float:
        """Dynamic energy relative to another run (Figure 11's normalisation)."""
        if baseline.total_energy_j == 0:
            raise ZeroDivisionError("baseline consumed zero energy")
        return self.total_energy_j / baseline.total_energy_j


@dataclass
class _PhaseProgress:
    """Mutable record of how much of each phase remains."""

    serial_remaining: float
    parallel_remaining: float
    sync_remaining: float = 0.0
    #: Core count the current sync overhead was charged for.
    sync_charged_for: int = 0

    @property
    def total_remaining(self) -> float:
        return self.serial_remaining + self.parallel_remaining + self.sync_remaining

    @property
    def done(self) -> bool:
        return self.total_remaining <= 1e-6


@dataclass(frozen=True, slots=True)
class _Rates:
    """Execution rates of one (phase, active cores, operating point).

    Miss rates, CPI, bandwidth contention and the energy coefficients are
    constant while the phase, the powered cores and the operating point
    stay fixed, so the engine evaluates the models once per configuration
    and each quantum is arithmetic on this record.
    """

    #: Cores executing the phase: the usable cores in parallel, one in serial.
    cores: int
    throughput_ips: float
    utilization: float
    cpi: float
    bytes_per_instruction: float
    #: One core's retirement rate (floored away from zero for division).
    per_core_ips: float
    sleep_power_w: float
    #: Dynamic energy per unit of work relative to the nominal point.
    energy_scale: float
    #: Average per-instruction energy of the mix, excluding caches (pJ).
    instruction_pj: float
    memory_fraction: float
    l1_miss_rate: float
    l2_miss_rate: float
    #: Fraction of L1 misses that are not coherence misses.
    coherence_complement: float


class ExecutionEngine:
    """Advances one workload through time on the simulated many-core chip.

    The workload, machine, memory, protocol, scheduler and energy models
    are fixed for the engine's lifetime; only the phase, the powered cores
    and the operating point change between quanta.
    """

    def __init__(
        self,
        workload: WorkloadDescriptor,
        machine: MachineConfig | None = None,
        n_threads: int | None = None,
        energy_model: InstructionEnergyModel | None = None,
        power_model: CorePowerModel | None = None,
    ) -> None:
        self.workload = workload
        self.machine = machine or PAPER_MACHINE
        self.energy_model = energy_model or InstructionEnergyModel()
        self.power_model = power_model or CorePowerModel(nominal=self.machine.nominal)
        self.timing = self.machine.timing_model()
        self.memory = MemorySystem(self.machine.memory)
        self.protocol = DirectoryProtocol(self.machine.coherence)

        threads = self.machine.n_cores if n_threads is None else n_threads
        self.scheduler = ThreadScheduler(n_threads=threads, n_cores=self.machine.n_cores)

        parallel_fraction = workload.parallel.parallel_fraction
        self._progress = _PhaseProgress(
            serial_remaining=workload.total_instructions * (1.0 - parallel_fraction),
            parallel_remaining=workload.total_instructions * parallel_fraction,
        )
        self._time_s = 0.0
        self._active_cores = 1
        #: (parallel phase, active cores, operating point) -> rates.  The
        #: usable cores and the multiplexing slowdown follow from the first two.
        self._rate_table: dict[tuple[bool, int, OperatingPoint], _Rates] = {}
        self.trace = ExecutionTrace()

    # -- queries ---------------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated time elapsed so far."""
        return self._time_s

    @property
    def done(self) -> bool:
        """True when every instruction of the workload has been retired."""
        return self._progress.done

    @property
    def active_cores(self) -> int:
        """Number of currently powered cores."""
        return self._active_cores

    @property
    def remaining_instructions(self) -> float:
        """Instructions (including sync overhead) not yet retired."""
        return self._progress.total_remaining

    @property
    def progress_fraction(self) -> float:
        """Fraction of the original workload completed (sync overhead excluded)."""
        original = self.workload.total_instructions
        remaining = self._progress.serial_remaining + self._progress.parallel_remaining
        return 1.0 - remaining / original

    # -- control ----------------------------------------------------------------

    def set_active_cores(self, cores: int) -> float:
        """Power ``cores`` cores; returns the thread-migration stall incurred (s)."""
        try:
            cores = operator.index(cores)
        except TypeError:
            raise TypeError(f"core count must be an integer, got {cores!r}") from None
        if cores < 1:
            raise ValueError("at least one core must stay powered")
        cores = min(cores, self.machine.n_cores)
        cost = self.scheduler.set_active_cores(cores)
        self._active_cores = cores
        return cost

    # -- execution ----------------------------------------------------------------

    def advance(
        self,
        dt_s: float,
        operating_point: OperatingPoint | None = None,
    ) -> QuantumSample:
        """Simulate ``dt_s`` seconds of execution and return what happened.

        The quantum may span a phase boundary (serial work finishing and
        parallel work starting); the engine handles that internally so the
        returned sample always covers exactly ``dt_s`` of wall-clock time
        (less if the workload finishes within the quantum).
        """
        if not 0.0 < dt_s < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt_s!r}")
        progress = self._progress
        if progress.done:
            raise RuntimeError("workload already finished")
        op = operating_point or self.machine.nominal

        remaining_dt = dt_s
        instructions = 0.0
        energy = 0.0
        dram_bytes = 0.0
        executing_core_seconds = 0.0
        utilization_peak = 0.0
        cpi_weighted = 0.0
        start_time = self._time_s
        phase_label = self._current_phase()

        # Migration stall: cores sit idle (sleep power) until threads arrive.
        stall = self.scheduler.consume_migration(remaining_dt)
        if stall > 0:
            sleep_w = self.power_model.power_w(CoreState.SLEEP, op)
            energy += sleep_w * (stall * self._active_cores)
            remaining_dt -= stall

        done = False
        while remaining_dt > _MIN_DT_S and not done:
            step_dt, work, step_energy, executing, rates = self._advance_phase(
                remaining_dt, op
            )
            instructions += work
            energy += step_energy
            dram_bytes += work * rates.bytes_per_instruction
            executing_core_seconds += executing
            utilization_peak = max(utilization_peak, rates.utilization)
            cpi_weighted += rates.cpi * work
            remaining_dt -= step_dt
            done = progress.done

        consumed = dt_s - remaining_dt if done else dt_s
        # If the workload finished early the idle tail is not simulated: the
        # caller decides what happens next (cool down, next task, ...).
        self._time_s += consumed
        total_core_seconds = self._active_cores * consumed
        sleeping = max(0.0, total_core_seconds - executing_core_seconds)
        if done:
            self.scheduler.finish_all()

        sample = QuantumSample(
            time_s=start_time,
            dt_s=consumed,
            phase=phase_label,
            active_cores=self._active_cores,
            usable_cores=self._usable_cores(),
            instructions_retired=instructions,
            energy_j=energy,
            dram_bytes=dram_bytes,
            bandwidth_utilization=utilization_peak,
            cpi=(cpi_weighted / instructions) if instructions > 0 else 0.0,
            executing_core_seconds=executing_core_seconds,
            sleeping_core_seconds=sleeping,
            finished=done,
        )
        self.trace.append(sample)
        return sample

    # -- internals ----------------------------------------------------------------

    def _current_phase(self) -> str:
        if self._progress.serial_remaining > 1e-6:
            return "serial"
        return "parallel"

    def _usable_cores(self) -> int:
        if self._current_phase() == "serial":
            return 1
        return self.workload.parallel.usable_cores(self._active_cores)

    def _advance_phase(
        self, dt_s: float, op: OperatingPoint
    ) -> tuple[float, float, float, float, _Rates]:
        """Advance within the current phase for at most ``dt_s`` seconds.

        Returns the time covered, the instructions retired, the energy, the
        busy core-seconds and the rates the step ran at.
        """
        progress = self._progress
        parallel_phase = progress.serial_remaining <= 1e-6
        key = (parallel_phase, self._active_cores, op)
        rates = self._rate_table.get(key)
        if rates is None:
            rates = self._rate_table[key] = self._rates(parallel_phase, op)

        if parallel_phase:
            if rates.cores > 1:
                self._charge_sync_overhead(rates.cores)
            remaining_work = progress.parallel_remaining + progress.sync_remaining
        else:
            remaining_work = progress.serial_remaining

        throughput = rates.throughput_ips
        time_to_finish = remaining_work / throughput
        step_dt = min(dt_s, time_to_finish)
        work_done = throughput * step_dt
        work_done = min(work_done, remaining_work)

        self._retire(work_done, parallel_phase)

        # Busy core-seconds: retiring `work_done` at one core's rate.  Because
        # imbalance and multiplexing lower the aggregate rate below
        # `usable * per_core_rate`, busy time is less than `usable * step_dt`
        # and the difference is spent asleep (PAUSE) at 10% power.
        executing_core_seconds = min(
            work_done / rates.per_core_ips, rates.cores * step_dt
        )

        energy = self._dynamic_energy(work_done, rates)
        idle_core_seconds = self._active_cores * step_dt - executing_core_seconds
        energy += rates.sleep_power_w * max(0.0, idle_core_seconds)
        return step_dt, work_done, energy, executing_core_seconds, rates

    def _charge_sync_overhead(self, usable: int) -> None:
        """Add barrier/task-queue instructions for a new parallel configuration."""
        if self._progress.sync_charged_for == usable:
            return
        per_core = self.workload.parallel.sync_instructions_per_core
        self._progress.sync_remaining += per_core * usable
        self._progress.sync_charged_for = usable

    def _retire(self, work: float, parallel_phase: bool) -> None:
        if not parallel_phase:
            self._progress.serial_remaining = max(
                0.0, self._progress.serial_remaining - work
            )
            return
        # Sync overhead retires alongside the useful parallel work.
        sync = self._progress.sync_remaining
        if sync > 0:
            total = self._progress.parallel_remaining + sync
            sync_share = work * (sync / total)
            self._progress.sync_remaining = max(0.0, sync - sync_share)
            work -= sync_share
        self._progress.parallel_remaining = max(
            0.0, self._progress.parallel_remaining - work
        )

    def _rates(self, parallel_phase: bool, op: OperatingPoint) -> _Rates:
        """Evaluate the cache, memory, timing and energy models for one configuration."""
        workload = self.workload
        mix = workload.instruction_mix
        memory_behaviour = workload.memory
        frequency = op.frequency_hz
        cores = (
            workload.parallel.usable_cores(self._active_cores) if parallel_phase else 1
        )

        miss_rates = self.timing.hierarchy.effective_miss_rates(
            memory_behaviour.l1_miss_rate,
            memory_behaviour.l2_miss_rate,
            memory_behaviour.working_set_bytes,
            sharers=cores,
        )
        coherence_fraction = self.protocol.effective_coherence_fraction(
            memory_behaviour.coherence_miss_fraction, cores
        )
        coherence_latency = self.protocol.coherence_miss_cycles(cores)
        bytes_per_instruction = (
            mix.memory_fraction
            * miss_rates.l1_miss_rate
            * (1.0 - coherence_fraction)
            * miss_rates.l2_miss_rate
            * memory_behaviour.bytes_per_l2_miss
        )

        def cpi_at(utilization: float) -> float:
            return self.timing.cycles_breakdown(
                mix=mix,
                miss_rates=miss_rates,
                dram_latency_cycles=self.memory.effective_latency_cycles(
                    frequency, utilization
                ),
                coherence_fraction=coherence_fraction,
                coherence_latency_cycles=coherence_latency,
            ).total_cpi

        # First pass with uncontended latency, then refine once with the
        # utilisation implied by the first-pass demand (a single fixed-point
        # iteration keeps the model deterministic and fast).
        aggregate = self._aggregate_rate(frequency / cpi_at(0.0), cores, parallel_phase)
        share = self.memory.arbitrate(aggregate * bytes_per_instruction)

        cpi = cpi_at(share.utilization)
        aggregate = self._aggregate_rate(frequency / cpi, cores, parallel_phase)
        if bytes_per_instruction > 0:
            bandwidth_cap = (
                self.memory.config.peak_bandwidth_bytes_s / bytes_per_instruction
            )
            aggregate = min(aggregate, bandwidth_cap)
        if aggregate <= 0:
            raise RuntimeError("execution throughput collapsed to zero")
        final_share = self.memory.arbitrate(aggregate * bytes_per_instruction)

        return _Rates(
            cores=cores,
            throughput_ips=aggregate,
            utilization=final_share.utilization,
            cpi=cpi,
            bytes_per_instruction=bytes_per_instruction,
            per_core_ips=max(frequency / cpi, 1e-30),
            sleep_power_w=self.power_model.power_w(CoreState.SLEEP, op),
            energy_scale=op.energy_per_work_scale(self.machine.nominal),
            instruction_pj=self.energy_model.average_instruction_pj(mix),
            memory_fraction=mix.memory_fraction,
            l1_miss_rate=miss_rates.l1_miss_rate,
            l2_miss_rate=miss_rates.l2_miss_rate,
            coherence_complement=1.0 - memory_behaviour.coherence_miss_fraction,
        )

    def _aggregate_rate(
        self, per_core_rate: float, cores: int, parallel_phase: bool
    ) -> float:
        if not parallel_phase or cores == 1:
            # Post-sprint multiplexing of many threads onto one core pays a
            # small context-switch overhead.
            return per_core_rate / self.scheduler.multiplexing_slowdown()
        imbalance = self.workload.parallel.imbalance
        return per_core_rate * cores / imbalance

    def _dynamic_energy(self, instructions: float, rates: _Rates) -> float:
        """Dynamic energy of retiring ``instructions`` at the given rates."""
        base = instructions * rates.instruction_pj * 1e-12
        memory_instructions = instructions * rates.memory_fraction
        l1_hits = memory_instructions * (1.0 - rates.l1_miss_rate)
        l1_misses = memory_instructions * rates.l1_miss_rate
        dram = l1_misses * rates.l2_miss_rate * rates.coherence_complement
        l2_hits = l1_misses - dram
        hierarchy_energy = self.energy_model.memory_energy_j(l1_hits, l2_hits, dram)
        return (base + hierarchy_energy) * rates.energy_scale


class ManyCoreSimulator:
    """Runs whole workloads to completion on a fixed machine configuration.

    This is the entry point for the thermally-unconstrained studies of
    Figures 10 and 11 (speedup and energy versus core count) and for the
    baselines against which sprints are compared.
    """

    def __init__(self, machine: MachineConfig | None = None) -> None:
        self.machine = machine or PAPER_MACHINE

    def run(
        self,
        workload: WorkloadDescriptor,
        cores: int,
        operating_point: OperatingPoint | None = None,
        quantum_s: float = 1e-3,
        max_time_s: float = 600.0,
    ) -> RunResult:
        """Execute ``workload`` on ``cores`` cores until it completes."""
        if cores < 1:
            raise ValueError("core count must be at least 1")
        if cores > self.machine.n_cores:
            machine = self.machine.with_cores(cores)
        else:
            machine = self.machine
        if not 0.0 < quantum_s < math.inf:
            raise ValueError(f"quantum must be positive and finite, got {quantum_s!r}")
        if not 0.0 < max_time_s < math.inf:
            raise ValueError(
                f"maximum simulated time must be positive and finite, got {max_time_s!r}"
            )
        op = operating_point or machine.nominal

        engine = ExecutionEngine(workload, machine=machine, n_threads=cores)
        engine.set_active_cores(cores)
        elapsed = 0.0
        while not engine.done:
            if elapsed >= max_time_s:
                raise RuntimeError(
                    f"workload {workload.name!r} did not finish within {max_time_s}s"
                )
            sample = engine.advance(quantum_s, operating_point=op)
            elapsed += sample.dt_s

        trace = engine.trace
        return RunResult(
            workload_name=workload.name,
            cores=cores,
            operating_point=op,
            total_time_s=trace.duration_s,
            total_energy_j=trace.total_energy_j,
            total_instructions=trace.total_instructions,
            trace=trace,
        )

    def single_core_baseline(
        self, workload: WorkloadDescriptor, quantum_s: float = 1e-3
    ) -> RunResult:
        """The paper's non-sprinting baseline: one core at the nominal point."""
        return self.run(workload, cores=1, quantum_s=quantum_s)
