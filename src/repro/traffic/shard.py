"""Sharded parallel simulation of a hierarchical fleet, one rack per shard.

A topology run (:mod:`repro.traffic.topology`) simulates each rack on its
own :class:`~repro.traffic.engine.ServingEngine`, fanned across the worker
pool of :func:`repro.traffic.experiments.pool_map`.  The coupling between racks —
shared row/datacenter power budgets and the fleet-level rack dispatch — is
resolved *before* any shard runs, from the arrival stream alone:

1. **Rack dispatch** (:func:`plan_shards`): arrivals are split into
   conservative synchronisation windows of ``topology.window_s`` and
   assigned to racks window by window — per-window rack counts by
   largest-remainder apportionment over the dispatch policy's weights,
   interleaved by weighted-fair-queueing virtual times so each window's
   traffic stripes proportionally rather than in runs.  The
   ``least_loaded_rack`` policy weights racks by estimated free capacity
   (offered work drained at the rack's sustained rate, tracked by a fluid
   backlog recursion) with a preference for sprint-capable racks.
2. **Budget slicing** (:func:`repro.traffic.topology.slice_schedules`):
   each parent budget is carved into per-rack, per-window slices in
   proportion to the racks' assigned sprint demand.  Within a window a
   rack's grants contend only against its own slice, so no mid-run
   cross-shard communication is ever needed.

Because every shard job is then fully independent and results merge in
rack order, a sharded run is **bit-identical for any worker count** —
``workers=1`` and ``workers=8`` produce the same
:class:`~repro.traffic.fleet.FleetResult` (the invariance the topology
test suite locks).  Per-shard telemetry merges losslessly: quantile
sketches, timelines (scoped by rack path), and event traces
(:mod:`repro.traffic.telemetry`), and the per-level grant ledgers merge
into a :class:`~repro.traffic.topology.TopologyStats`.

Usage::

    >>> import numpy as np
    >>> from repro.traffic.shard import plan_shards
    >>> from repro.traffic.topology import TopologySpec
    >>> topo = TopologySpec.uniform(1, 2, 4, window_s=10.0,
    ...                             dispatch="rack_round_robin")
    >>> arrival = np.array([0.0, 1.0, 2.0, 3.0])
    >>> plan = plan_shards(topo, arrival, np.ones(4),
    ...                    sprint_capable=np.array([True, True]))
    >>> plan.rack_of.tolist()   # striped evenly across the two racks
    [0, 1, 0, 1]
    >>> plan.demand.tolist()
    [[2.0, 2.0]]
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.thermal_backend import ThermalSpec
from repro.traffic.arrivals import seed_stream
from repro.traffic.device import ServedColumns, SprintDevice
from repro.traffic.engine import DISPATCH_POLICIES, ServingEngine
from repro.traffic.governor import GovernorSpec, GovernorStats, SprintGovernor
from repro.traffic.request import Request, RequestBlock
from repro.traffic.telemetry import EventTrace, RunTelemetry, TelemetrySpec
from repro.traffic.topology import (
    CascadeGovernor,
    TopologySpec,
    TopologyStats,
    apportion_slots,
    merge_governor_stats,
    slice_schedules,
)

__all__ = ["ShardPlan", "plan_shards", "run_sharded"]

#: Seed-universe domain tag of per-rack dispatch RNG streams (disjoint from
#: the request/dispatch/replication domains 11/13/17/19).
_SHARD_RUN_DOMAIN = 23

#: Dispatch-weight bonus for sprint-capable racks under
#: ``least_loaded_rack`` — all else equal, traffic prefers racks that can
#: still convert it into latency wins.
_SPRINT_PREFERENCE = 1.25

#: Free-capacity floor (as a fraction of a rack's window capacity) so a
#: saturated rack keeps a nonzero weight and apportionment stays defined.
_FLOOR_FRACTION = 0.01


@dataclass(frozen=True)
class ShardPlan:
    """The upfront rack dispatch of one sharded run.

    ``rack_of[i]`` is the rack (tree order) serving arrival ``i``;
    ``demand[w, r]`` is the sprint demand — assigned arrivals at
    sprint-capable racks — that window ``w`` offers rack ``r``, the
    weights :func:`repro.traffic.topology.slice_schedules` divides parent
    budgets by.
    """

    rack_of: np.ndarray
    demand: np.ndarray


def plan_shards(
    topology: TopologySpec,
    arrival_s: np.ndarray,
    sustained_s: np.ndarray,
    sprint_capable: np.ndarray,
) -> ShardPlan:
    """Assign every arrival to a rack, window by window.

    Arrivals must be in time order (request generators emit them so).
    Within each synchronisation window the per-rack counts come from
    largest-remainder apportionment over the dispatch policy's weights and
    the arrivals interleave by WFQ virtual times ``(k + 0.5) / count`` —
    both deterministic, so the plan is a pure function of the stream and
    the spec.
    """
    n = arrival_s.size
    n_racks = topology.n_racks
    rack_devices = np.array(
        [rack.n_devices for _, _, _, rack in topology.iter_racks()], dtype=float
    )
    window_s = topology.window_s
    if n == 0:
        return ShardPlan(
            rack_of=np.zeros(0, dtype=np.int64), demand=np.zeros((1, n_racks))
        )
    windows = np.minimum(
        np.floor(arrival_s / window_s).astype(np.int64), np.iinfo(np.int64).max
    )
    n_windows = int(windows[-1]) + 1
    # Window populations are contiguous runs of the sorted arrival stream.
    starts = np.searchsorted(windows, np.arange(n_windows + 1))
    capacity = rack_devices * window_s
    backlog = np.zeros(n_racks)
    rack_of = np.empty(n, dtype=np.int64)
    demand = np.zeros((n_windows, n_racks))
    static_weights = rack_devices.copy()
    least_loaded = topology.dispatch == "least_loaded_rack"
    for w in range(n_windows):
        lo, hi = int(starts[w]), int(starts[w + 1])
        m = hi - lo
        if m == 0:
            backlog = np.maximum(0.0, backlog - capacity)
            continue
        if least_loaded:
            free = np.maximum(_FLOOR_FRACTION * capacity, capacity - backlog)
            weights = free * np.where(sprint_capable, _SPRINT_PREFERENCE, 1.0)
        else:
            weights = static_weights
        counts = apportion_slots(m, weights)
        racks = np.repeat(np.arange(n_racks), counts)
        offsets = np.arange(m) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        virtual = (offsets + 0.5) / np.repeat(np.maximum(counts, 1), counts)
        order = np.lexsort((racks, virtual))
        assigned = racks[order]
        rack_of[lo:hi] = assigned
        work = np.bincount(assigned, weights=sustained_s[lo:hi], minlength=n_racks)
        backlog = np.maximum(0.0, backlog + work - capacity)
        demand[w] = np.where(sprint_capable, counts, 0)
    return ShardPlan(rack_of=rack_of, demand=demand)


# -- the shard job ---------------------------------------------------------------------


@dataclass(frozen=True)
class _RackJob:
    """One rack's fully self-contained slice of the run (picklable)."""

    config: SystemConfig
    path: str
    first_device_id: int
    n_devices: int
    rack_governor: GovernorSpec
    row_slice: SprintGovernor | None
    dc_slice: SprintGovernor | None
    sprint_enabled: bool
    sprint_speedup: float
    refuse_partial_sprints: bool
    thermal: ThermalSpec
    policy: str
    mode: str
    discipline: str
    queue_bound: int | None
    keep_samples: bool
    telemetry_spec: TelemetrySpec | None
    execution: str
    seed: np.random.SeedSequence
    #: The rack's share of the stream, time-ordered, indices kept.
    requests: RequestBlock


@dataclass(frozen=True)
class _RackOutcome:
    """What one rack shard sends back to the merge."""

    path: str
    served: ServedColumns
    rejected: tuple[Request, ...]
    abandoned: tuple[Request, ...]
    served_count: int
    rejected_count: int
    abandoned_count: int
    final_time_s: float
    device_rows: tuple[tuple, ...]
    overall: GovernorStats | None
    level_stats: dict[str, GovernorStats]
    telemetry: RunTelemetry | None
    leaked_grants: int
    fast_path: bool
    fast_path_reason: str | None


def _run_rack_job(job: _RackJob) -> _RackOutcome:
    """Simulate one rack to completion (module-level: worker-pool picklable)."""
    devices = [
        SprintDevice(
            job.config,
            device_id=job.first_device_id + i,
            sprint_speedup=job.sprint_speedup,
            sprint_enabled=job.sprint_enabled,
            refuse_partial_sprints=job.refuse_partial_sprints,
            thermal=job.thermal,
            label=f"{job.path}/dev{i}",
        )
        for i in range(job.n_devices)
    ]
    levels: list[tuple[str, SprintGovernor]] = [
        ("rack", job.rack_governor.build(job.config))
    ]
    if job.row_slice is not None:
        levels.append(("row", job.row_slice))
    if job.dc_slice is not None:
        levels.append(("datacenter", job.dc_slice))
    cascade = CascadeGovernor(levels)
    spec = job.telemetry_spec
    stream = probe = trace = None
    if spec is not None:
        stream = spec.build_stream()
        probe = spec.build_probe(excess_power_w=cascade.excess_power_w)
        trace = spec.build_trace()
    engine = ServingEngine(
        devices,
        dispatch=DISPATCH_POLICIES[job.policy],
        policy_name=job.policy,
        mode=job.mode,
        discipline=job.discipline,
        queue_bound=job.queue_bound,
        indexed=job.policy == "least_loaded",
        governor=cascade,
        keep_samples=job.keep_samples,
        telemetry=stream,
        probe=probe,
        trace=trace,
        execution=job.execution,
    )
    rng = np.random.default_rng(job.seed)
    outcome = engine.run_blocks([job.requests], rng)
    governed = not cascade.is_unlimited
    level_stats = (
        cascade.finalize_levels(outcome.final_time_s) if governed else {}
    )
    telemetry = None
    if stream is not None or probe is not None or trace is not None:
        horizon = [outcome.final_time_s]
        if len(outcome.outcomes):
            horizon.append(float(outcome.outcomes.completed_at_s.max()))
        if stream is not None and stream.request_count:
            horizon.append(stream.last_completion_s)
        timeline = None
        if probe is not None:
            timeline = replace(probe.finalize(max(horizon)), scope=job.path)
        telemetry = RunTelemetry(stream=stream, timeline=timeline, trace=trace)
    return _RackOutcome(
        path=job.path,
        served=outcome.outcomes,
        rejected=outcome.rejected,
        abandoned=outcome.abandoned,
        served_count=outcome.served_count,
        rejected_count=outcome.rejected_count,
        abandoned_count=outcome.abandoned_count,
        final_time_s=outcome.final_time_s,
        device_rows=tuple(
            (
                d.device_id,
                d.label,
                d.requests_served,
                d.busy_seconds,
                d.pacer.stored_heat_j,
                d.sprints_served,
                d.sprint_fullness_mean,
                d.thermal_backend.temperature_c,
                d.thermal_backend.melt_fraction,
                d.peak_temperature_c,
                d.peak_melt_fraction,
                d.peak_stored_heat_j,
            )
            for d in devices
        ),
        overall=outcome.governor_stats,
        level_stats=level_stats,
        telemetry=telemetry,
        leaked_grants=cascade.active_grants,
        fast_path=engine.last_run_fast_path,
        fast_path_reason=engine.fast_path_reason,
    )


# -- the sharded run -------------------------------------------------------------------


def _rack_seeds(
    seed: int | np.random.SeedSequence, n_racks: int
) -> list[np.random.SeedSequence]:
    """Deterministic per-rack dispatch-RNG streams (worker-count free)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(n_racks)
    return [seed_stream(int(seed), _SHARD_RUN_DOMAIN, r) for r in range(n_racks)]


def run_sharded(
    sim,
    requests: RequestBlock,
    seed: int | np.random.SeedSequence,
    workers: int = 1,
):
    """Run ``sim``'s topology fleet over ``requests`` across ``workers``.

    ``sim`` is a :class:`~repro.traffic.fleet.FleetSimulator` constructed
    with a non-flat ``topology``; ``requests`` is the whole stream as
    columns, ordered by arrival time (then index).  The run plans rack
    dispatch and parent budget slices upfront (module docstring), fans one
    job per rack over :func:`~repro.traffic.experiments.pool_map`, and
    merges the shards' outcome columns into a single
    :class:`~repro.traffic.fleet.FleetResult` whose ``topology_stats``
    carries the per-level grant ledgers.  Results are bit-identical for
    any ``workers`` value.
    """
    from repro.traffic.fleet import FleetResult
    from repro.traffic.experiments import pool_map

    topology: TopologySpec = sim.topology
    racks = list(topology.iter_racks())
    sprint_capable = np.array(
        [
            rack.device_knobs(sim.sprint_enabled, sim.sprint_speedup, sim.thermal_spec)[0]
            for _, _, _, rack in racks
        ]
    )
    plan = plan_shards(topology, requests.arrival_s, requests.sustained_time_s, sprint_capable)
    row_slices, dc_slices = slice_schedules(topology, sim.config, plan.demand)
    seeds = _rack_seeds(seed, topology.n_racks)
    # Each rack's rows in stream order: a stable sort by rack splits the
    # stream without one full-length mask per rack.
    by_rack = np.argsort(plan.rack_of, kind="stable")
    bounds = np.searchsorted(plan.rack_of[by_rack], np.arange(topology.n_racks + 1))

    jobs = []
    first_id = 0
    for r, (_, _, path, rack) in enumerate(racks):
        enabled, speedup, thermal = rack.device_knobs(
            sim.sprint_enabled, sim.sprint_speedup, sim.thermal_spec
        )
        jobs.append(
            _RackJob(
                config=sim.config,
                path=path,
                first_device_id=first_id,
                n_devices=rack.n_devices,
                rack_governor=rack.governor,
                row_slice=row_slices[r],
                dc_slice=dc_slices[r],
                sprint_enabled=enabled,
                sprint_speedup=speedup,
                refuse_partial_sprints=sim.refuse_partial_sprints,
                thermal=thermal,
                policy=sim.policy_name,
                mode=sim.mode,
                discipline=sim.discipline,
                queue_bound=sim.queue_bound,
                keep_samples=sim.keep_samples,
                telemetry_spec=sim.telemetry_spec,
                execution=sim.execution,
                seed=seeds[r],
                requests=requests.take(by_rack[bounds[r] : bounds[r + 1]]),
            )
        )
        first_id += rack.n_devices

    outcomes: list[_RackOutcome] = pool_map(_run_rack_job, jobs, workers)
    leaked = sum(o.leaked_grants for o in outcomes)
    if leaked:  # pragma: no cover - protocol violation guard
        raise RuntimeError(f"{leaked} sprint grants leaked across shard barriers")

    from repro.traffic.fleet import DeviceStats

    served = ServedColumns.concat([o.served for o in outcomes]).by_index()
    rejected = sorted(
        (x for o in outcomes for x in o.rejected), key=lambda x: x.index
    )
    abandoned = sorted(
        (x for o in outcomes for x in o.abandoned), key=lambda x: x.index
    )
    device_stats = tuple(
        DeviceStats(
            device_id=row[0],
            device_label=row[1],
            requests_served=row[2],
            busy_seconds=row[3],
            stored_heat_j=row[4],
            sprints_served=row[5],
            sprint_fullness_mean=row[6],
            package_temperature_c=row[7],
            melt_fraction=row[8],
            peak_temperature_c=row[9],
            peak_melt_fraction=row[10],
            peak_stored_heat_j=row[11],
        )
        for o in outcomes
        for row in o.device_rows
    )
    topology_stats = _merge_topology_stats(topology, outcomes)
    telemetry = _merge_telemetry(sim.telemetry_spec, outcomes)
    return FleetResult(
        outcomes=served,
        device_stats=device_stats,
        policy=f"{topology.dispatch}+{sim.policy_name}",
        rejected=tuple(rejected),
        abandoned=tuple(abandoned),
        governor_stats=None if topology_stats is None else topology_stats.overall,
        final_event_s=max((o.final_time_s for o in outcomes), default=0.0),
        telemetry=telemetry,
        served_count=sum(o.served_count for o in outcomes),
        rejected_count=sum(o.rejected_count for o in outcomes),
        abandoned_count=sum(o.abandoned_count for o in outcomes),
        topology_stats=topology_stats,
        fast_path=all(o.fast_path for o in outcomes) if outcomes else False,
        fast_path_reason=next(
            (o.fast_path_reason for o in outcomes if o.fast_path_reason is not None),
            None,
        ),
    )


def _merge_topology_stats(
    topology: TopologySpec, outcomes: Sequence[_RackOutcome]
) -> TopologyStats | None:
    """Fold per-shard ledgers into the per-level TopologyStats view."""
    governed = [o for o in outcomes if o.overall is not None]
    if not governed:
        return None
    overall = merge_governor_stats(
        [o.overall for o in governed], policy="cascade"
    )
    rack_stats = tuple(o.level_stats.get("rack") for o in outcomes)
    row_of = topology.row_of_rack()
    rows = []
    for r, row in enumerate(topology.rows):
        if row.governor.policy == "unlimited":
            rows.append(None)
            continue
        member_stats = [
            outcomes[j].level_stats["row"]
            for j in range(len(outcomes))
            if row_of[j] == r and "row" in outcomes[j].level_stats
        ]
        rows.append(
            merge_governor_stats(member_stats, policy=row.governor.policy)
            if member_stats
            else None
        )
    datacenter = None
    if topology.governor.policy != "unlimited":
        member_stats = [
            o.level_stats["datacenter"]
            for o in outcomes
            if "datacenter" in o.level_stats
        ]
        if member_stats:
            datacenter = merge_governor_stats(
                member_stats, policy=topology.governor.policy
            )
    return TopologyStats(
        overall=overall,
        racks=rack_stats,
        rows=tuple(rows),
        datacenter=datacenter,
        rack_paths=topology.rack_paths,
    )


def _merge_telemetry(
    spec: TelemetrySpec | None, outcomes: Sequence[_RackOutcome]
) -> RunTelemetry | None:
    """Pool per-shard telemetry: sketches merge, timelines align, traces
    interleave in time order."""
    bundles = [o.telemetry for o in outcomes if o.telemetry is not None]
    if not bundles:
        return None
    stream = None
    streams = [b.stream for b in bundles if b.stream is not None]
    if streams:
        stream = streams[0]
        for other in streams[1:]:
            stream.merge(other)
    timeline = None
    timelines = [b.timeline for b in bundles if b.timeline is not None]
    if timelines:
        timeline = timelines[0]
        for other in timelines[1:]:
            timeline = timeline.merge(other)
    trace = None
    traces = [b.trace for b in bundles if b.trace is not None]
    if traces:
        capacity = spec.trace_capacity or None if spec is not None else None
        trace = EventTrace(capacity=capacity)
        merged = sorted(
            (rec for t in traces for rec in t.records), key=lambda rec: rec.time_s
        )
        for rec in merged:
            trace.add(
                rec.time_s,
                rec.kind,
                request_index=rec.request_index,
                device_id=rec.device_id,
                detail=rec.detail,
                label=rec.label,
            )
        trace.dropped += sum(t.dropped for t in traces)
    return RunTelemetry(stream=stream, timeline=timeline, trace=trace)
