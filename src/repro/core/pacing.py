"""Sprint pacing: how often can the system sprint for bursty task streams?

The paper emphasises that sprinting improves responsiveness, not sustained
throughput: "once sprinting capacity is exhausted, the chip must cool in
non-sprint mode before it can sprint again", and approximates the cooldown
as the sprint duration multiplied by the ratio of sprint power to TDP.  The
user-facing question it leaves open (Section 1's "how much do end users
tolerate the delay between sprints") needs a model of repeated sprints under
a stream of bursty tasks — which is what this module provides.

The package is treated as a heat reservoir filled by each sprint's
dissipated energy above the sustainable budget and drained between tasks.
*How* that reservoir drains — and what temperature/enthalpy telemetry it
reports — is a pluggable fidelity choice, selected per
:class:`SprintPacer` by a :class:`~repro.core.thermal_backend.ThermalSpec`:

* ``linear`` (default) drains at the constant sustainable power.  That is
  exactly the arithmetic behind the paper's cooldown rule of thumb, so
  steady-state conclusions (the minimum inter-arrival time that keeps every
  task sprintable, the fraction of tasks that can sprint at a given arrival
  rate) match the detailed simulation while costing microseconds.
* ``rc`` drains with the package's exponential Newtonian cooling, which
  slows as the package approaches ambient.
* ``pcm`` re-runs the enthalpy formulation of :mod:`repro.thermal.pcm` per
  task, reproducing the Figure 4 melt plateau under serving load.

Whether the pacer re-runs the RC network or the PCM enthalpy physics per
task is therefore a configuration choice, not a limitation of the model;
``examples/thermal_fidelity_study.py`` quantifies where the coarse default
mispredicts tail latency against the physics-backed backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SystemConfig
from repro.core.thermal_backend import ThermalBackend, ThermalSpec


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task in a bursty sequence.

    ``response_time_s`` is the task's execution (service) time — between the
    sprinted and sustained extremes; ``queueing_delay_s`` is any additional
    wait behind a still-running earlier task.
    """

    index: int
    arrival_s: float
    sprinted: bool
    response_time_s: float
    stored_heat_before_j: float
    stored_heat_after_j: float
    queueing_delay_s: float = 0.0
    #: Fraction of the task's work covered by the sprint budget: 1.0 for a
    #: full sprint, 0.0 for sustained execution, in between for partial
    #: sprints (``sprinted`` alone cannot tell a barely-partial sprint
    #: from a full one).
    sprint_fullness: float = 0.0
    #: Package temperature reported by the thermal backend after the task
    #: (the linear backend maps fill linearly onto the ambient-to-limit
    #: range; physics backends report their actual temperature state).
    package_temperature_c: float = 0.0
    #: Liquid fraction of the PCM after the task (0 for backends without
    #: phase-change state).
    melt_fraction: float = 0.0

    @property
    def completed_at_s(self) -> float:
        """Absolute completion time of the task."""
        return self.arrival_s + self.queueing_delay_s + self.response_time_s


@dataclass(frozen=True)
class PacingSummary:
    """Aggregate view of a task sequence.

    The percentile fields use the same linear interpolation as the fleet
    serving metrics (:func:`repro.traffic.metrics.latency_percentiles`), so
    single-device pacing studies and fleet runs read on one scale.
    """

    outcomes: tuple[TaskOutcome, ...]
    sprint_fraction: float
    average_response_s: float
    worst_response_s: float
    p95_response_s: float = 0.0
    p99_response_s: float = 0.0

    @property
    def task_count(self) -> int:
        """Number of tasks simulated."""
        return len(self.outcomes)


@dataclass
class SprintPacer:
    """Tracks sprint capacity across a sequence of bursty tasks.

    Parameters
    ----------
    config:
        The platform whose package and policy define the heat reservoir.
    sprint_speedup:
        Responsiveness gain of a (full) sprint over sustained execution for
        the task mix being modelled — e.g. the Figure 7 average of ~10x, or a
        measured :meth:`SprintResult.speedup_over` value.
    refuse_partial_sprints:
        When True, a task only sprints if the whole sprint's heat fits in the
        remaining reservoir; otherwise it runs sustained.  When False, the
        task sprints for whatever budget remains and finishes sustained
        (mirroring the runtime's migrate-on-exhaustion behaviour), with the
        response time interpolated between the two extremes.
    thermal:
        Reservoir fidelity: a backend name from
        :data:`~repro.core.thermal_backend.THERMAL_BACKENDS`, a
        :class:`~repro.core.thermal_backend.ThermalSpec`, or a prebuilt
        :class:`~repro.core.thermal_backend.ThermalBackend` instance (which
        the pacer then owns — do not share one across pacers).
    """

    config: SystemConfig
    sprint_speedup: float = 10.0
    refuse_partial_sprints: bool = False
    thermal: str | ThermalSpec | ThermalBackend = "linear"
    _backend: ThermalBackend = field(init=False, repr=False)
    #: Sprint power above the sustainable budget, read once from the
    #: (frozen) config: every task's deposit is this times its sprint time.
    _excess_power_w: float = field(init=False, repr=False, compare=False)
    _clock_s: float = field(default=0.0, init=False)
    _last_arrival_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.sprint_speedup < 1.0:
            raise ValueError("sprint speedup must be at least 1x")
        if isinstance(self.thermal, str):
            self.thermal = ThermalSpec(backend=self.thermal)
        if isinstance(self.thermal, ThermalSpec):
            self._backend = self.thermal.build(self.config)
        elif isinstance(self.thermal, ThermalBackend):
            self._backend = self.thermal
        else:
            raise TypeError(
                "thermal must be a backend name, a ThermalSpec, or a "
                f"ThermalBackend, not {type(self.thermal).__name__}"
            )
        self._excess_power_w = self.config.sprint_power_w - self.drain_power_w

    # -- reservoir arithmetic --------------------------------------------------------

    @property
    def backend(self) -> ThermalBackend:
        """The thermal backend owning this pacer's reservoir state."""
        return self._backend

    @property
    def capacity_j(self) -> float:
        """Heat the package can absorb above sustained operation."""
        return self._backend.capacity_j

    @property
    def drain_power_w(self) -> float:
        """Nominal rate at which stored heat leaves the package between tasks.

        This is the sustainable power — the exact drain rate of the
        ``linear`` backend and the full-reservoir rate the physics backends
        decay from.  Deposit arithmetic (:meth:`sprint_heat_for`) and the
        cooldown rule of thumb (:meth:`minimum_interarrival_s`) are defined
        against it for every backend.
        """
        return self.config.sustainable_power_w

    @property
    def stored_heat_j(self) -> float:
        """Heat currently stored in the package (0 = fully cooled)."""
        return self._backend.stored_heat_j

    @property
    def busy_until_s(self) -> float:
        """Time at which the last accepted task finishes (0 if idle so far).

        A task arriving before this time queues behind the running one; a
        fleet dispatcher uses it to find the least-loaded device.
        """
        return self._clock_s

    @property
    def available_fraction(self) -> float:
        """Fraction of the sprint budget currently available."""
        if self.capacity_j == 0:
            return 0.0
        return 1.0 - self.stored_heat_j / self.capacity_j

    def stored_heat_at(self, time_s: float) -> float:
        """Projected stored heat at a future instant, without mutating state.

        Heat only drains while the device is idle, so the projection holds
        the reservoir constant until :attr:`busy_until_s` and lets the
        backend cool it afterwards.  Dispatchers use this to rank devices
        by the sprint budget a request would actually find.
        """
        idle = max(0.0, time_s - self._clock_s)
        return self._backend.projected_stored_heat_j(idle)

    def available_fraction_at(self, time_s: float) -> float:
        """Projected :attr:`available_fraction` at a future instant."""
        if self.capacity_j == 0:
            return 0.0
        return 1.0 - self.stored_heat_at(time_s) / self.capacity_j

    def sprint_heat_for(self, sustained_time_s: float) -> float:
        """Heat a full sprint of one task deposits above the sustainable budget.

        A task that takes ``sustained_time_s`` on one core takes
        ``sustained_time_s / speedup`` when sprinting at ``sprint_power_w``;
        only the excess over what the package can dissipate counts against
        the reservoir.
        """
        if sustained_time_s < 0:
            raise ValueError("task time must be non-negative")
        sprint_time = sustained_time_s / self.sprint_speedup
        return max(0.0, self._excess_power_w * sprint_time)

    def minimum_interarrival_s(self, sustained_time_s: float) -> float:
        """Smallest task spacing that lets every task sprint fully.

        This is the paper's cooldown rule of thumb: the sprint's excess heat
        must drain at the sustainable power before the next task arrives.
        It is exact for the ``linear`` backend only.  ``rc`` cools slower
        (the exponential rate decays from the sustainable power), so it
        needs more spacing than this; the ``pcm`` plateau drains slightly
        *faster* than the sustainable power while melting but far slower
        once solid — ``examples/thermal_fidelity_study.py`` quantifies
        both gaps.
        """
        return self.sprint_heat_for(sustained_time_s) / self.drain_power_w

    # -- simulation --------------------------------------------------------------------

    def reset(self) -> None:
        """Forget all stored heat (package back at ambient)."""
        self._backend.reset()
        self._clock_s = 0.0
        self._last_arrival_s = 0.0

    def advance_to(self, clock_s: float, last_arrival_s: float) -> None:
        """Move the pacer's clock forward after externally-applied work.

        The engine's batched fast path executes a run of requests in numpy
        and lands the device exactly where the scalar path would have:
        ``clock_s`` is the completion instant of the last executed task and
        ``last_arrival_s`` the latest arrival handed to this device (the
        in-order guard watermark).  Rewinding is refused — batch execution
        only ever moves time forward.
        """
        if clock_s < self._clock_s:
            raise ValueError("batch execution cannot rewind the pacer clock")
        self._clock_s = clock_s
        self._last_arrival_s = max(self._last_arrival_s, last_arrival_s)

    def task_arrival(
        self,
        arrival_s: float,
        sustained_time_s: float,
        index: int = 0,
        allow_sprint: bool = True,
    ) -> TaskOutcome:
        """Process one task arriving at ``arrival_s``.

        Tasks must arrive in non-decreasing time order.  A task arriving
        while the previous one is still running queues behind it; the wait
        is reported separately in ``queueing_delay_s`` (``response_time_s``
        is execution only, so user-visible latency is their sum).  With
        ``allow_sprint=False`` the task runs sustained regardless of the
        budget (the no-sprint baseline of a fleet comparison), while the
        clock and reservoir drain still advance.
        """
        if arrival_s < self._last_arrival_s:
            raise ValueError("tasks must arrive in time order")
        if sustained_time_s <= 0:
            raise ValueError("task time must be positive")
        self._last_arrival_s = arrival_s
        # The task starts once the previous one has finished.
        start_s = max(arrival_s, self._clock_s)
        return self.execute_at(
            start_s,
            sustained_time_s,
            index=index,
            allow_sprint=allow_sprint,
            arrival_s=arrival_s,
        )

    def execute_at(
        self,
        start_s: float,
        sustained_time_s: float,
        index: int = 0,
        allow_sprint: bool = True,
        arrival_s: float | None = None,
    ) -> TaskOutcome:
        """Run one task starting exactly at ``start_s``; the caller owns queueing.

        This is the primitive under :meth:`task_arrival`: it does not decide
        *when* the task runs, only what happens when it does.  A central-queue
        serving engine holds requests in its own queue and calls this at
        assignment time, so the pacer never re-derives a wait the engine has
        already resolved.  ``start_s`` must not precede the end of the
        previously executed task (the device is still busy then).  ``arrival_s``
        is carried into the outcome for bookkeeping (default: ``start_s``,
        i.e. no reported queueing delay); stored heat drains during any idle
        gap between the previous task's end and ``start_s``.
        """
        if sustained_time_s <= 0:
            raise ValueError("task time must be positive")
        if start_s < self._clock_s:
            raise ValueError("task cannot start while the previous one is running")
        if arrival_s is None:
            arrival_s = start_s
        # Keep task_arrival's in-order guard meaningful when the two entry
        # points are mixed (a no-op on the task_arrival path, which has
        # already advanced the watermark to this arrival).
        self._last_arrival_s = max(self._last_arrival_s, arrival_s)

        # Stored heat drains during any idle gap before the start.
        backend = self._backend
        backend.drain(start_s - self._clock_s)
        before = backend.stored_heat_j
        queueing_delay = start_s - arrival_s

        # sprint_heat_for, inlined: the same float operations.
        sprint_time = sustained_time_s / self.sprint_speedup
        demand = max(0.0, self._excess_power_w * sprint_time)
        headroom = backend.headroom_j

        if not allow_sprint:
            sprinted = False
            fullness = 0.0
            response = sustained_time_s
        elif demand <= headroom:
            sprinted = True
            fullness = 1.0
            response = sprint_time
            backend.deposit(demand)
        elif self.refuse_partial_sprints or headroom <= 0.0:
            sprinted = False
            fullness = 0.0
            response = sustained_time_s
        else:
            # Partial sprint (migrate on exhaustion): the fraction of the work
            # covered by the remaining budget runs at sprint speed, the rest
            # at sustained speed.
            sprinted = True
            fullness = headroom / demand
            response = fullness * sprint_time + (1.0 - fullness) * sustained_time_s
            backend.deposit(headroom)

        self._clock_s = start_s + response
        return TaskOutcome(
            index=index,
            arrival_s=arrival_s,
            sprinted=sprinted,
            response_time_s=response,
            stored_heat_before_j=before,
            stored_heat_after_j=backend.stored_heat_j,
            queueing_delay_s=queueing_delay,
            sprint_fullness=fullness,
            package_temperature_c=backend.temperature_c,
            melt_fraction=backend.melt_fraction,
        )

    def simulate_periodic(
        self,
        interarrival_s: float,
        sustained_time_s: float,
        tasks: int,
        allow_sprint: bool = True,
    ) -> PacingSummary:
        """Run a periodic task stream and summarise responsiveness.

        ``allow_sprint=False`` runs the whole stream sustained — the
        no-sprint baseline of a responsiveness comparison — while the clock
        and reservoir drain still advance.
        """
        if interarrival_s <= 0:
            raise ValueError("inter-arrival time must be positive")
        if tasks < 1:
            raise ValueError("at least one task is required")
        self.reset()
        outcomes = [
            self.task_arrival(
                i * interarrival_s, sustained_time_s, index=i, allow_sprint=allow_sprint
            )
            for i in range(tasks)
        ]
        responses = [o.response_time_s for o in outcomes]
        p95, p99 = (float(p) for p in np.percentile(responses, (95.0, 99.0)))
        return PacingSummary(
            outcomes=tuple(outcomes),
            sprint_fraction=sum(o.sprinted for o in outcomes) / tasks,
            average_response_s=sum(responses) / tasks,
            worst_response_s=max(responses),
            p95_response_s=p95,
            p99_response_s=p99,
        )
