"""Fleet simulator: N sprint-capable devices serving a request stream.

:class:`FleetSimulator` is a thin configuration shell around the
discrete-event core in :mod:`repro.traffic.engine`: it builds the devices,
resolves the dispatch policy, runs the engine, and packages the outcome as
a :class:`FleetResult` with per-device accounting.

Two dispatch modes are available.  *Immediate* mode binds every request to
a device at its arrival instant via a dispatch policy (``round_robin``,
``least_loaded``, ``thermal_aware``, ``random``) and lets the device's own
pacing model resolve queueing and the thermal budget; a run is fully
reproducible — the same requests and seed give bit-identical latencies.
*Central-queue* mode holds requests in a shared FIFO or
earliest-deadline-first queue and assigns them only when a device frees,
optionally bounding the queue (rejecting excess arrivals) and abandoning
queued requests whose deadline expires — the lifecycle a real serving
frontend imposes.

Either mode can be power-governed: a
:class:`~repro.traffic.governor.GovernorSpec` (or prebuilt
:class:`~repro.traffic.governor.SprintGovernor`) makes every sprint
acquire a grant from a shared fleet power budget first, and the run's
grant ledger lands in :attr:`FleetResult.governor_stats`.  The default
``"unlimited"`` governor is bypassed entirely, so ungoverned results stay
bit-identical across versions.

Pacing fidelity is a third swappable axis: a
:class:`~repro.core.thermal_backend.ThermalSpec` selects the reservoir
physics (linear rule-of-thumb, RC cooling, or PCM enthalpy) every device
paces against, and the per-request temperature/melt telemetry it produces
flows through both dispatch modes untouched into the run's
:class:`~repro.traffic.metrics.TrafficSummary`.

A fourth axis is fleet *shape*: passing a
:class:`~repro.traffic.topology.TopologySpec` instead of ``n_devices``
arranges the devices into racks, rows, and a datacenter, each level with
its own power budget, and runs each rack as an independent shard (see
:mod:`repro.traffic.shard`).

Usage — a lightly loaded two-device fleet sprints every request:

>>> from repro.core.config import SystemConfig
>>> from repro.traffic.arrivals import DeterministicArrivals
>>> from repro.traffic.fleet import FleetSimulator
>>> from repro.traffic.request import FixedService, generate_requests
>>> reqs = generate_requests(
...     DeterministicArrivals(30.0), FixedService(5.0), n=4, seed=0
... )
>>> fleet = FleetSimulator(SystemConfig.paper_default(), n_devices=2)
>>> summary = fleet.run(reqs).summary()
>>> summary.request_count, summary.sprint_fraction
(4, 1.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.thermal_backend import ThermalSpec
from repro.traffic.arrivals import DEFAULT_CHUNK, ArrivalProcess
from repro.traffic.device import ServedColumns, ServedRequest, SprintDevice
from repro.traffic.engine import (
    DISPATCH_MODES,
    DISPATCH_POLICIES,
    EXECUTION_MODES,
    QUEUE_DISCIPLINES,
    DispatchFn,
    ServingEngine,
)
from repro.traffic.governor import GovernorSpec, GovernorStats, SprintGovernor
from repro.traffic.metrics import TrafficSummary, summarize
from repro.traffic.request import (
    Request,
    RequestBlock,
    ServiceModel,
    generate_request_blocks,
)
from repro.traffic.telemetry import RunTelemetry, TelemetrySpec
from repro.traffic.topology import TopologySpec, TopologyStats

__all__ = [
    "DISPATCH_MODES",
    "DISPATCH_POLICIES",
    "EXECUTION_MODES",
    "QUEUE_DISCIPLINES",
    "DeviceStats",
    "DispatchFn",
    "FleetResult",
    "FleetSimulator",
]


def resolve_telemetry(
    telemetry: TelemetrySpec | bool | None, keep_samples: bool
) -> TelemetrySpec | None:
    """Resolve the user-facing telemetry knob to a concrete spec.

    ``None`` means "whatever keeps summaries possible": no instruments
    while samples are kept (the legacy zero-overhead default), the default
    sketch when they are not.  ``True``/``False`` force the default spec
    on or everything off, and a :class:`TelemetrySpec` passes through.
    """
    if isinstance(telemetry, TelemetrySpec):
        return telemetry
    if telemetry is None:
        return None if keep_samples else TelemetrySpec()
    if telemetry is True:
        return TelemetrySpec()
    if telemetry is False:
        return None
    raise TypeError(
        "telemetry must be a TelemetrySpec, a bool, or None, "
        f"not {type(telemetry).__name__}"
    )


@dataclass(frozen=True)
class DeviceStats:
    """Per-device accounting at the end of a run."""

    device_id: int
    requests_served: int
    busy_seconds: float
    stored_heat_j: float
    #: Stable hierarchical identity — ``row0/rack2/dev5`` in a topology
    #: fleet, ``dev{device_id}`` in a flat one ("" on results produced
    #: before labels existed).  ``device_id`` stays the flat integer id.
    device_label: str = ""
    #: Requests that sprinted at all on this device (partial sprints included).
    sprints_served: int = 0
    #: Mean realised sprint fullness on this device — low values flag a
    #: thermal hotspot that is nominally sprinting but mostly sustained.
    sprint_fullness_mean: float = 0.0
    #: Package temperature the device's thermal backend reported at the end
    #: of the run.
    package_temperature_c: float = 0.0
    #: Liquid PCM fraction at the end of the run (0 unless the fleet paces
    #: with the ``pcm`` backend).
    melt_fraction: float = 0.0
    #: Running peaks over the whole run (maintained in O(1) on the device,
    #: so hotspot identification survives ``keep_samples=False`` runs).
    peak_temperature_c: float = 0.0
    peak_melt_fraction: float = 0.0
    peak_stored_heat_j: float = 0.0


@dataclass(frozen=True)
class FleetResult:
    """Everything a fleet run produced.

    ``outcomes`` holds the served requests as columns, in request-index
    order; :attr:`served` is the same rows as
    :class:`~repro.traffic.device.ServedRequest` objects, built once on
    first access.
    """

    outcomes: ServedColumns
    device_stats: tuple[DeviceStats, ...]
    policy: str
    #: Arrivals bounced by a full bounded central queue (admission control).
    rejected: tuple[Request, ...] = ()
    #: Queued requests whose deadline expired before a device freed.
    abandoned: tuple[Request, ...] = ()
    #: Grant ledger of a power-governed run (None when the governor was
    #: ``unlimited`` — ungoverned runs have nothing to account).
    governor_stats: GovernorStats | None = None
    #: Last event instant the engine processed (see
    #: :attr:`repro.traffic.engine.EngineResult.final_time_s`).
    final_event_s: float = 0.0
    #: What the run's telemetry instruments produced (None when the run
    #: kept samples and no instruments were requested).
    telemetry: RunTelemetry | None = None
    #: Lifecycle counts, always valid — with ``keep_samples=False`` the
    #: ``served``/``rejected``/``abandoned`` tuples stay empty and these
    #: are the only record of each fate's cardinality.
    served_count: int = 0
    rejected_count: int = 0
    abandoned_count: int = 0
    #: Per-level grant ledgers of a hierarchical (topology) run — None on
    #: flat fleets and on topology runs with nothing governed anywhere.
    topology_stats: TopologyStats | None = None
    #: Whether the run took the batched fast cores (always False under
    #: ``engine="exact"``; on sharded runs, True only when *every* rack
    #: did).  Results are bit-identical either way — this is visibility,
    #: not semantics.
    fast_path: bool = False
    #: Why the fast cores were not engaged (None when they were, or when
    #: nothing asked for them).  On sharded runs, the first rack's reason.
    fast_path_reason: str | None = None
    _summary_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def served(self) -> tuple[ServedRequest, ...]:
        """Every served request in request-index order (empty when the run
        kept no samples)."""
        return self.outcomes.served

    @property
    def latencies_s(self) -> np.ndarray:
        """Per-request latencies in request-index order.

        Empty when the run dropped samples (``keep_samples=False``) — tail
        statistics then live in ``telemetry.stream``.
        """
        return self.outcomes.latency_s

    @property
    def horizon_s(self) -> float:
        """Instant by which every request's fate had resolved.

        The later of the engine's final event and the last served
        completion; at this instant nothing is in flight — arrivals equal
        served + rejected + abandoned, the conservation law the invariant
        suite asserts.
        """
        instants = [self.final_event_s]
        if len(self.outcomes):
            instants.append(float(self.outcomes.completed_at_s.max()))
        if self.telemetry is not None and self.telemetry.stream is not None:
            stream = self.telemetry.stream
            if stream.request_count:
                instants.append(stream.last_completion_s)
        return max(instants)

    def summary(self, slo_s: float | None = None) -> TrafficSummary:
        """Aggregate serving metrics (cached per SLO).

        Computed exactly from the retained samples when the run kept them
        (``telemetry_source == "samples"``, bit-identical to every prior
        version); from the streaming telemetry otherwise
        (``telemetry_source == "sketch"``, percentiles within the sketch's
        rank-error bound).  A run that kept neither cannot be summarised.
        """
        if slo_s not in self._summary_cache:
            stream = self.telemetry.stream if self.telemetry is not None else None
            if len(self.outcomes) or stream is None:
                if not len(self.outcomes) and self.served_count:
                    raise ValueError(
                        "this run kept no samples and no telemetry stream; "
                        "enable keep_samples or a TelemetrySpec with "
                        "sketch=True to summarise it"
                    )
                self._summary_cache[slo_s] = summarize(
                    self.outcomes,
                    slo_s=slo_s,
                    rejected_count=len(self.rejected) or self.rejected_count,
                    abandoned_count=len(self.abandoned) or self.abandoned_count,
                    governor_stats=self.governor_stats,
                )
            else:
                self._summary_cache[slo_s] = stream.summarize(
                    slo_s=slo_s, governor_stats=self.governor_stats
                )
        return self._summary_cache[slo_s]


class FleetSimulator:
    """Discrete-event simulation of a fleet under a dispatch mode and policy.

    Parameters
    ----------
    config:
        Platform description shared by every device in the fleet.
    n_devices:
        Fleet size.
    policy:
        One of :data:`DISPATCH_POLICIES` (or a custom :data:`DispatchFn`).
        Only consulted in ``immediate`` mode; the name ``"least_loaded"``
        runs on the engine's O(log n) index, while passing the policy
        *function* as a custom callable forces the O(n) scan.
    mode:
        ``"immediate"`` (default, the legacy per-arrival binding) or
        ``"central_queue"`` (shared queue, assignment on device-free).
    discipline:
        Central-queue ordering, ``"fifo"`` or ``"edf"``.
    queue_bound:
        Central-queue admission limit (``None`` = unbounded).
    governor:
        Fleet power-budget governance: a policy name (only ``"unlimited"``
        works bare — the other policies need knobs), a
        :class:`~repro.traffic.governor.GovernorSpec`, or a prebuilt
        :class:`~repro.traffic.governor.SprintGovernor` instance.  The
        governor is reset at the start of every :meth:`run`, like the
        devices.
    thermal:
        Reservoir fidelity of every device's package: a backend name from
        :data:`~repro.core.thermal_backend.THERMAL_BACKENDS` or a
        :class:`~repro.core.thermal_backend.ThermalSpec`.  Each device
        builds its own backend instance from the spec, so fleets never
        share thermal state.  The default ``"linear"`` backend is
        bit-identical to the pre-backend fleet (regression-locked).
    sprint_speedup, sprint_enabled, refuse_partial_sprints:
        Forwarded to each :class:`~repro.traffic.device.SprintDevice`.
    keep_samples:
        When True (default) the run retains every served/rejected/
        abandoned request object, the exact legacy behaviour.  When False
        the run's memory stays flat over any horizon: only lifecycle
        counts and the streaming telemetry survive, and
        :meth:`FleetResult.summary` comes from the quantile sketch.
    telemetry:
        What streaming instruments to run
        (:class:`~repro.traffic.telemetry.TelemetrySpec`, a bool for the
        default spec on/off, or ``None`` to auto-enable the sketch exactly
        when ``keep_samples=False`` — see :func:`resolve_telemetry`).
        Fresh instruments are built per :meth:`run`; observers never
        perturb simulation results.
    """

    def __init__(
        self,
        config: SystemConfig,
        n_devices: int | None = None,
        policy: str | DispatchFn = "least_loaded",
        sprint_speedup: float = 10.0,
        sprint_enabled: bool = True,
        refuse_partial_sprints: bool = False,
        mode: str = "immediate",
        discipline: str = "fifo",
        queue_bound: int | None = None,
        governor: str | GovernorSpec | SprintGovernor = "unlimited",
        thermal: str | ThermalSpec = "linear",
        keep_samples: bool = True,
        telemetry: TelemetrySpec | bool | None = None,
        engine: str = "exact",
        topology: TopologySpec | None = None,
        shard_workers: int = 1,
    ) -> None:
        device_labels: list[str] | None = None
        self.topology = topology
        self.shard_workers = shard_workers
        self._sharded = False
        if topology is not None:
            # Budgets live on the topology's nodes; a second fleet-level
            # governor would be ambiguous (which level is it?).
            ungoverned = governor == "unlimited" or (
                isinstance(governor, GovernorSpec) and governor.policy == "unlimited"
            )
            if not ungoverned:
                raise ValueError(
                    "a topology fleet takes its budgets from the topology "
                    "spec; leave governor at 'unlimited'"
                )
            if shard_workers < 1:
                raise ValueError("shard worker count must be at least 1")
            n_devices = topology.validate_devices(n_devices)
            if topology.is_flat:
                # The regression-locked flat path: one rack, ungoverned
                # parents — the rack's governor IS the fleet governor and
                # the single engine runs exactly as without a topology
                # (bit-identity locked by tests); only the hierarchical
                # device labels differ.
                _, _, path, rack = next(topology.iter_racks())
                governor = rack.governor
                if rack.sprint_enabled is not None:
                    sprint_enabled = rack.sprint_enabled
                if rack.sprint_speedup is not None:
                    sprint_speedup = rack.sprint_speedup
                if rack.thermal is not None:
                    thermal = rack.thermal
                device_labels = [f"{path}/dev{i}" for i in range(n_devices)]
            else:
                if not isinstance(policy, str):
                    raise ValueError(
                        "sharded topology runs need a named dispatch policy "
                        "(shard jobs cross process boundaries)"
                    )
                self._sharded = True
        elif n_devices is None:
            raise ValueError("a fleet needs n_devices or a topology")
        if n_devices < 1:
            raise ValueError("a fleet needs at least one device")
        if mode not in DISPATCH_MODES:
            raise ValueError(
                f"unknown fleet mode {mode!r}; available: {DISPATCH_MODES}"
            )
        if engine not in EXECUTION_MODES:
            raise ValueError(
                f"unknown engine execution {engine!r}; "
                f"available: {EXECUTION_MODES}"
            )
        if isinstance(policy, str):
            if policy not in DISPATCH_POLICIES:
                raise ValueError(
                    f"unknown dispatch policy {policy!r}; "
                    f"available: {sorted(DISPATCH_POLICIES)}"
                )
            self.policy_name = policy
            self._dispatch = DISPATCH_POLICIES[policy]
            # Only the *named* policy runs on the engine's index; a custom
            # callable — even one named "least_loaded" — must be called.
            self._indexed = policy == "least_loaded"
        else:
            self.policy_name = getattr(policy, "__name__", "custom")
            self._dispatch = policy
            self._indexed = False
        if isinstance(governor, str):
            governor = GovernorSpec(policy=governor)
        if isinstance(governor, GovernorSpec):
            self.governor_spec: GovernorSpec | None = governor
            self.governor = governor.build(config)
        elif isinstance(governor, SprintGovernor):
            self.governor_spec = None
            self.governor = governor
        else:
            raise TypeError(
                "governor must be a policy name, a GovernorSpec, or a "
                f"SprintGovernor, not {type(governor).__name__}"
            )
        if isinstance(thermal, str):
            thermal = ThermalSpec(backend=thermal)
        if not isinstance(thermal, ThermalSpec):
            raise TypeError(
                "thermal must be a backend name or a ThermalSpec, "
                f"not {type(thermal).__name__}"
            )
        self.thermal_spec = thermal
        self.config = config
        self.mode = mode
        self.discipline = discipline
        self.queue_bound = queue_bound
        self.keep_samples = keep_samples
        self.execution = engine
        self.sprint_speedup = sprint_speedup
        self.sprint_enabled = sprint_enabled
        self.refuse_partial_sprints = refuse_partial_sprints
        self.telemetry_spec = resolve_telemetry(telemetry, keep_samples)
        if self._sharded:
            # Devices live inside each rack's shard job; validate here the
            # queue knobs the engine would have rejected at construction.
            if discipline not in QUEUE_DISCIPLINES:
                raise ValueError(
                    f"unknown queue discipline {discipline!r}; "
                    f"available: {QUEUE_DISCIPLINES}"
                )
            if queue_bound is not None and queue_bound < 0:
                raise ValueError("queue bound must be non-negative (or None)")
            self.devices: list[SprintDevice] = []
            return
        self.devices = [
            SprintDevice(
                config,
                device_id=i,
                sprint_speedup=sprint_speedup,
                sprint_enabled=sprint_enabled,
                refuse_partial_sprints=refuse_partial_sprints,
                thermal=thermal,
                label=None if device_labels is None else device_labels[i],
            )
            for i in range(n_devices)
        ]
        # Validate mode/discipline/bound eagerly (fail at construction, not run).
        self._make_engine()

    def _make_engine(self, stream=None, probe=None, trace=None) -> ServingEngine:
        return ServingEngine(
            self.devices,
            dispatch=self._dispatch,
            policy_name=self.policy_name,
            mode=self.mode,
            discipline=self.discipline,
            queue_bound=self.queue_bound,
            indexed=self._indexed,
            governor=self.governor,
            keep_samples=self.keep_samples,
            telemetry=stream,
            probe=probe,
            trace=trace,
            execution=self.execution,
        )

    def _prepare_observers(self):
        spec = self.telemetry_spec
        stream = probe = trace = None
        if spec is not None:
            stream = spec.build_stream()
            probe = spec.build_probe(excess_power_w=self.governor.excess_power_w)
            trace = spec.build_trace()
        return stream, probe, trace

    def run(
        self,
        requests: Sequence[Request],
        seed: int | np.random.SeedSequence = 0,
    ) -> FleetResult:
        """Serve ``requests`` and collect results.

        ``seed`` only feeds policies that randomise (``random``); the
        deterministic policies ignore it, and two runs with identical
        requests and seed produce identical per-request latencies.  An
        empty request stream is a valid (empty) run, so sweeps over sparse
        arrival processes never crash.  A non-flat ``topology`` fleet runs
        sharded (:func:`repro.traffic.shard.run_sharded`) —
        bit-identical for any ``shard_workers`` value.
        """
        if self._sharded:
            from repro.traffic.shard import run_sharded

            ordered = sorted(requests, key=lambda r: (r.arrival_s, r.index))
            return run_sharded(self, RequestBlock.from_requests(ordered), seed, self.shard_workers)
        for device in self.devices:
            device.reset()
        self.governor.reset()
        rng = np.random.default_rng(seed)
        stream, probe, trace = self._prepare_observers()
        engine = self._make_engine(stream=stream, probe=probe, trace=trace)
        outcome = engine.run(requests, rng)
        return self._package(outcome, stream, probe, trace, engine)

    def run_stream(
        self,
        arrivals: ArrivalProcess,
        service: ServiceModel,
        n_requests: int,
        *,
        request_seed: int | np.random.SeedSequence = 0,
        run_seed: int | np.random.SeedSequence = 0,
        deadline_s: float | None = None,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> FleetResult:
        """Generate and serve a request stream without materialising it.

        The streaming counterpart of :func:`generate_requests` +
        :meth:`run`: arrival and service draws are produced as numpy
        blocks (:func:`repro.traffic.request.generate_request_blocks`,
        bit-identical to the scalar stream) and fed straight to the
        engine.  On a fast-path-eligible fleet
        (:attr:`~repro.traffic.engine.ServingEngine.fast_path_reason` is
        ``None``) with ``keep_samples=False`` the whole run stays in
        columnar block processing with flat memory; otherwise requests
        are materialised chunk by chunk and served exactly.  A non-flat
        ``topology`` fleet joins the blocks into one set of columns and
        runs sharded — rack dispatch plans over the whole stream upfront.
        """
        blocks = generate_request_blocks(
            arrivals,
            service,
            n_requests,
            seed=request_seed,
            deadline_s=deadline_s,
            chunk_size=chunk_size,
        )
        if self._sharded:
            from repro.traffic.shard import run_sharded

            return run_sharded(
                self, RequestBlock.concat(list(blocks)), run_seed, self.shard_workers
            )
        for device in self.devices:
            device.reset()
        self.governor.reset()
        rng = np.random.default_rng(run_seed)
        stream, probe, trace = self._prepare_observers()
        engine = self._make_engine(stream=stream, probe=probe, trace=trace)
        outcome = engine.run_blocks(blocks, rng)
        return self._package(outcome, stream, probe, trace, engine)

    def _package(
        self, outcome, stream, probe, trace, engine: ServingEngine
    ) -> FleetResult:
        served = outcome.outcomes.by_index()
        telemetry = None
        if stream is not None or probe is not None or trace is not None:
            horizon = [outcome.final_time_s]
            if len(served):
                horizon.append(float(served.completed_at_s.max()))
            if stream is not None and stream.request_count:
                horizon.append(stream.last_completion_s)
            telemetry = RunTelemetry(
                stream=stream,
                timeline=None if probe is None else probe.finalize(max(horizon)),
                trace=trace,
            )
        stats = tuple(
            DeviceStats(
                device_id=d.device_id,
                device_label=d.label,
                requests_served=d.requests_served,
                busy_seconds=d.busy_seconds,
                stored_heat_j=d.pacer.stored_heat_j,
                sprints_served=d.sprints_served,
                sprint_fullness_mean=d.sprint_fullness_mean,
                package_temperature_c=d.thermal_backend.temperature_c,
                melt_fraction=d.thermal_backend.melt_fraction,
                peak_temperature_c=d.peak_temperature_c,
                peak_melt_fraction=d.peak_melt_fraction,
                peak_stored_heat_j=d.peak_stored_heat_j,
            )
            for d in self.devices
        )
        return FleetResult(
            outcomes=served,
            device_stats=stats,
            policy=self.policy_name,
            rejected=outcome.rejected,
            abandoned=outcome.abandoned,
            governor_stats=outcome.governor_stats,
            final_event_s=outcome.final_time_s,
            telemetry=telemetry,
            served_count=outcome.served_count,
            rejected_count=outcome.rejected_count,
            abandoned_count=outcome.abandoned_count,
            fast_path=engine.last_run_fast_path,
            fast_path_reason=engine.fast_path_reason,
        )
