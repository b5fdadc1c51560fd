"""Vectorized and batch-replayed execution: the engine's numpy fast path.

The exact engine (:mod:`repro.traffic.engine`) resolves one heap event per
request in pure Python.  This module is the ``engine="batched"`` execution
strategy: the same runs, bit-identical, at a fraction of the interpreter
work.  Two cores divide the envelope:

* **The lockstep vector core** (ungoverned immediate ``round_robin`` or
  ``random`` dispatch on linear reservoirs) — when the device assignment
  sequence is known up front (``round_robin`` is ``(cursor + i) mod n``;
  ``random`` is one block draw of ``rng.integers``, bit-identical to the
  scalar per-request draws), every device's request chain is
  independent, so all devices advance in lockstep *rounds*: round ``k``
  executes the ``k``-th request of every device that has one, as ~30
  vectorized ops over the active-device axis.  The linear-reservoir
  sprint decision (drain, headroom, full / partial / sustained, deposit)
  is elementwise ``max``/``where`` arithmetic whose float operations are
  exactly the scalar pacer's.
* **The batch-replay event core** (everything else in the envelope:
  governed sprinting, central-queue FIFO, ``least_loaded`` dispatch,
  physics thermal backends) — event *interleaving* matters there, so the
  core keeps the exact loop's event semantics (same event kinds, same
  tie-break order, same float paths) but strips its interpreter
  overhead: arrivals merge from the sorted column stream instead of
  living in the heap, the FIFO queue is a deque of tokens,
  ``least_loaded`` picks from a plain-list mirror of
  :class:`~repro.traffic.engine.LeastLoadedIndex`, linear-reservoir
  execution is inlined on plain floats (RC and PCM devices call their
  real ``SprintPacer.execute_at``), and outcomes are emitted as columns.
  Grant decisions go through the *real* governor object at the exact
  event timestamps, so ``GovernorStats`` ledgers replay exactly — for
  ``greedy``, ``cooperative_threshold``, and any cascade of them.

Streaming observers do not disqualify the fast path: the telemetry
sketch is fed from per-chunk columnar buffers
(:meth:`~repro.traffic.telemetry.TrafficTelemetry.observe_batch`), the
timeline probe from per-window batch counters, and the (ring-bounded)
event trace from a scalar replay in processing order — all bit-identical
to the per-event callbacks.

Configurations still outside the envelope — EDF queue re-sorting,
token-bucket grant refill, the ``thermal_aware`` policy and custom
dispatch callables — keep the exact event loop: ``batched`` execution
falls back honestly rather than approximate.  The
:func:`unsupported_reason` predicate is the single source of truth for
that envelope, and ``ServingEngine.last_run_fast_path`` reports which
path a run actually took.

Requests are consumed as :class:`~repro.traffic.request.RequestBlock`
columns and served requests come back as
:class:`~repro.traffic.device.ServedColumns`; ``Request`` objects are
built only for what keeps them (rejected or abandoned samples, the
timeline probe).  The streaming entry point (``ServingEngine.run_blocks``
under ``keep_samples=False``) holds one chunk in memory regardless of
horizon.

Usage — :func:`unsupported_reason` names exactly what keeps a
configuration on the exact loop:

>>> from repro.core.config import SystemConfig
>>> from repro.traffic.device import SprintDevice
>>> from repro.traffic.engine import DISPATCH_POLICIES, ServingEngine
>>> from repro.traffic.fastpath import unsupported_reason
>>> devices = [
...     SprintDevice(SystemConfig.paper_default(), device_id=i, thermal="rc")
...     for i in range(2)
... ]
>>> unsupported_reason(
...     ServingEngine(devices, DISPATCH_POLICIES["least_loaded"], "least_loaded")
... ) is None
True
>>> unsupported_reason(
...     ServingEngine(devices, DISPATCH_POLICIES["thermal_aware"], "thermal_aware")
... )
"policy 'thermal_aware' depends on per-request fleet state"
>>> unsupported_reason(
...     ServingEngine(
...         devices,
...         DISPATCH_POLICIES["round_robin"],
...         "round_robin",
...         mode="central_queue",
...         discipline="edf",
...     )
... )
"queue discipline 'edf' re-sorts the shared queue on deadlines"
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.thermal_backend import LinearReservoir
from repro.traffic.device import (
    OUTCOME_DTYPES,
    ServedColumns,
    ServedRequest,
    SprintDevice,
)
from repro.traffic.request import Request, RequestBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.traffic.engine import EngineResult, ServingEngine

#: Immediate-mode policies the batched cores reproduce.
BATCHABLE_POLICIES = ("round_robin", "random", "least_loaded")

#: Immediate-mode policies whose assignment sequence is precomputable
#: (the lockstep vector core's precondition).
LOCKSTEP_POLICIES = ("round_robin", "random")


def unsupported_reason(engine: "ServingEngine") -> str | None:
    """Why this engine configuration cannot take the batched cores.

    Returns ``None`` when the fast path applies.  The conditions mirror the
    module docstring: anything whose exact replay cannot be proven —
    deadline-ordered queue re-sorting, budget-projecting or custom
    dispatch, token-bucket refill arithmetic — forces the exact heap loop.
    Streaming observers, power governors that declare
    ``supports_batched_replay``, ``least_loaded`` dispatch and every
    thermal backend are inside the envelope.
    """
    from repro.traffic.engine import DISPATCH_POLICIES

    if engine.mode == "central_queue":
        # Central dispatch never consults the immediate-mode policy; only
        # the queue ordering matters.  FIFO drains in token order, which
        # the batch core reproduces with a deque; EDF re-sorts on absolute
        # deadlines and keeps the exact heap.
        if engine.discipline != "fifo":
            return (
                f"queue discipline {engine.discipline!r} re-sorts the "
                "shared queue on deadlines"
            )
    else:
        if engine.dispatch is not DISPATCH_POLICIES.get(engine.policy_name):
            return "custom dispatch callable must be consulted per request"
        if engine.policy_name not in BATCHABLE_POLICIES:
            return (
                f"policy {engine.policy_name!r} depends on per-request fleet state"
            )
    governor = engine.governor
    if governor is not None and not governor.is_unlimited:
        if not getattr(governor, "supports_batched_replay", False):
            return (
                f"governor {governor.name!r} has no exact batched grant replay"
            )
    return None


class _FleetState:
    """Columnar mirror of per-device pacer/reservoir state for one run.

    Linear-reservoir devices are executed on these columns; devices on a
    physics backend keep their state in their own pacer and only their
    counters and peaks are gathered here.
    """

    def __init__(self, devices: Sequence[SprintDevice]) -> None:
        self.devices = devices
        n = len(devices)
        pacers = [d.pacer for d in devices]
        backends = [p.backend for p in pacers]
        self.linear = [type(b) is LinearReservoir for b in backends]
        self.device_ids = np.array([d.device_id for d in devices], dtype=np.int64)
        self.drain_w = np.array(
            [b.drain_power_w if lin else 0.0 for b, lin in zip(backends, self.linear)]
        )
        self.excess_w = np.array(
            [p.config.sprint_power_w - p.drain_power_w for p in pacers]
        )
        self.speedup = np.array([p.sprint_speedup for p in pacers])
        self.capacity = np.array([b.capacity_j for b in backends])
        self.ambient = np.array([b.limits.ambient_c for b in backends])
        self.headroom_c = np.array([b.limits.headroom_c for b in backends])
        self.allow = np.array([d.sprint_enabled for d in devices], dtype=bool)
        self.refuse = np.array(
            [p.refuse_partial_sprints for p in pacers], dtype=bool
        )
        # Mutable state, synced back at the end.  Request counts carry any
        # serving history, because dispatch keys read them.
        self.clock = np.array([p.busy_until_s for p in pacers])
        self.stored = np.array([b.stored_heat_j for b in backends])
        self.served = np.array([d.requests_served for d in devices], dtype=np.int64)
        self.served_before = self.served.copy()
        self.sprints = np.zeros(n, dtype=np.int64)
        self.busy_seconds = np.zeros(n)
        self.fullness_total = np.zeros(n)
        self.deposited = np.zeros(n)
        self.drained = np.zeros(n)
        self.peak_stored = np.full(n, -np.inf)
        self.peak_temperature = np.full(n, -np.inf)
        self.peak_melt = np.full(n, -np.inf)
        self.last_arrival = np.full(n, -np.inf)

    def sync_back(self) -> tuple[float, float]:
        """Fold the run's aggregates into the live device objects.

        Counters, clock and heat land exactly where the scalar path would
        have left them.  A linear device's peak temperature comes from its
        peak stored heat: the heat-to-temperature map is monotone, so the
        run's hottest instant is the request with the most stored heat.
        Returns the run's peak temperature and melt fraction over every
        device (``-inf`` and 0.0 when nothing was served).
        """
        run_temperature, run_melt = -np.inf, 0.0
        for pos, device in enumerate(self.devices):
            count = int(self.served[pos] - self.served_before[pos])
            if count == 0:
                continue
            peak_stored = float(self.peak_stored[pos])
            if self.linear[pos]:
                device.pacer.advance_to(float(self.clock[pos]), float(self.last_arrival[pos]))
                device.pacer.backend.absorb_batch(
                    float(self.stored[pos]),
                    float(self.deposited[pos]),
                    float(self.drained[pos]),
                )
                capacity = self.capacity[pos]
                peak_temperature = float(
                    self.ambient[pos] + (peak_stored / capacity) * self.headroom_c[pos]
                    if capacity > 0.0
                    else self.ambient[pos]
                )
                peak_melt = 0.0
            else:
                peak_temperature = float(self.peak_temperature[pos])
                peak_melt = float(self.peak_melt[pos])
            device.absorb_batch(
                served=count,
                busy_seconds=float(self.busy_seconds[pos]),
                sprints=int(self.sprints[pos]),
                fullness_total=float(self.fullness_total[pos]),
                peak_stored_heat_j=peak_stored,
                peak_temperature_c=peak_temperature,
                peak_melt_fraction=peak_melt,
            )
            run_temperature = max(run_temperature, peak_temperature)
            run_melt = max(run_melt, peak_melt)
        return run_temperature, run_melt


def _assignments(
    engine: "ServingEngine", count: int, cursor: int, rng: np.random.Generator
) -> np.ndarray:
    """Device position of each request in a chunk, matching the scalar policy."""
    n_devices = len(engine.devices)
    if engine.policy_name == "round_robin":
        return (cursor + np.arange(count, dtype=np.int64)) % n_devices
    # random: one block draw consumes the bit stream exactly like the
    # scalar loop's per-request rng.integers(n) calls.
    return rng.integers(n_devices, size=count)


def _advance_chunk(
    state: _FleetState,
    assign: np.ndarray,
    times: np.ndarray,
    demands: np.ndarray,
    collect: bool,
) -> tuple[np.ndarray, ...] | None:
    """Advance every device through its requests in this chunk.

    Requests for one device execute in arrival order; lockstep round ``k``
    processes the ``k``-th request of every device that has one.  Returns
    per-request output columns (in chunk order) when ``collect`` is set —
    for kept samples or for feeding streaming observers columnarly.
    """
    count = times.size
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=len(state.devices))
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    if collect:
        out_queueing = np.empty(count)
        out_response = np.empty(count)
        out_before = np.empty(count)
        out_after = np.empty(count)
        out_fullness = np.empty(count)
        out_temp = np.empty(count)
        out_sprinted = np.empty(count, dtype=bool)

    rounds = int(counts.max()) if count else 0
    for k in range(rounds):
        active = np.flatnonzero(counts > k)
        idx = order[offsets[active] + k]
        t_k = times[idx]
        s_k = demands[idx]

        clock_a = state.clock[active]
        stored_a = state.stored[active]
        start = np.maximum(t_k, clock_a)
        # Idle-gap drain, then the sprint decision — the exact elementwise
        # float ops of SprintPacer.execute_at over a LinearReservoir.
        after_drain = np.maximum(
            0.0, stored_a - state.drain_w[active] * (start - clock_a)
        )
        headroom = np.maximum(0.0, state.capacity[active] - after_drain)
        sprint_time = s_k / state.speedup[active]
        demand = np.maximum(0.0, state.excess_w[active] * sprint_time)
        allow = state.allow[active]
        full = allow & (demand <= headroom)
        partial = allow & ~full & ~state.refuse[active] & (headroom > 0.0)

        response = s_k.copy()
        fullness = np.zeros(active.size)
        deposit = np.zeros(active.size)
        response[full] = sprint_time[full]
        fullness[full] = 1.0
        deposit[full] = demand[full]
        if partial.any():
            frac = headroom[partial] / demand[partial]
            fullness[partial] = frac
            response[partial] = (
                frac * sprint_time[partial] + (1.0 - frac) * s_k[partial]
            )
            deposit[partial] = headroom[partial]
        stored_new = after_drain + deposit
        sprinted = full | partial

        state.clock[active] = start + response
        state.stored[active] = stored_new
        state.served[active] += 1
        state.sprints[active] += sprinted
        state.busy_seconds[active] += response
        state.fullness_total[active] += fullness
        state.deposited[active] += deposit
        state.drained[active] += stored_a - after_drain
        state.peak_stored[active] = np.maximum(state.peak_stored[active], stored_new)
        state.last_arrival[active] = t_k

        if collect:
            out_queueing[idx] = start - t_k
            out_response[idx] = response
            out_before[idx] = after_drain
            out_after[idx] = stored_new
            out_fullness[idx] = fullness
            out_sprinted[idx] = sprinted
            capacity = state.capacity[active]
            fill = np.divide(
                stored_new,
                capacity,
                out=np.zeros(active.size),
                where=capacity > 0.0,
            )
            out_temp[idx] = state.ambient[active] + fill * state.headroom_c[active]

    if not collect:
        return None
    return (
        out_queueing,
        out_response,
        out_before,
        out_after,
        out_fullness,
        out_temp,
        out_sprinted,
    )


def _check_chunk_order(
    times: np.ndarray, previous_end: float
) -> float:
    """Assert one chunk continues a time-ordered stream; return its end."""
    if times[0] < previous_end or np.any(np.diff(times) < 0):
        raise ValueError("batched execution needs time-ordered arrivals")
    return float(times[-1])


def _run_immediate_core(
    engine: "ServingEngine",
    blocks: Iterable[RequestBlock],
    rng: np.random.Generator,
) -> "EngineResult":
    """The lockstep vector core: ungoverned immediate dispatch.

    Observers are fed per chunk from the same output columns that kept
    samples use: the telemetry sketch through ``observe_batch``, the
    timeline probe through its windowed batch counters (immediate
    ungoverned runs touch no gauges), and the event trace through a scalar
    replay in processing order — each bit-identical to the exact loop's
    per-event callbacks because every one of those instruments is either
    order-free (window counters, peaks) or fed in the exact processing
    order (sketch columns, trace records).
    """
    from repro.traffic.engine import EngineResult

    state = _FleetState(engine.devices)
    keep = engine.keep_samples
    telemetry = engine.telemetry
    probe = engine.probe
    trace = engine.trace
    collect = keep or telemetry is not None or probe is not None or trace is not None
    labels = [d.label for d in engine.devices]
    kept: list[tuple] = []
    served_count = 0
    cursor = 0
    last_s = 0.0
    previous_end = -np.inf

    for block in blocks:
        times = block.arrival_s
        count = times.size
        if count == 0:
            continue
        previous_end = _check_chunk_order(times, previous_end)
        assign = _assignments(engine, count, cursor, rng)
        cursor += count
        outputs = _advance_chunk(state, assign, times, block.sustained_time_s, collect)
        served_count += count
        last_s = previous_end
        if not collect:
            continue
        queueing, response, before, after, fullness, temp, sprinted = outputs
        latency = queueing + response
        completed = times + latency
        device_ids = state.device_ids[assign]
        if probe is not None:
            probe.on_arrival_batch(times)
            probe.on_served_batch(completed, sprinted, temp)
        if telemetry is not None:
            deadline_at = block.deadline_at_s
            missed = 0
            if deadline_at is not None:
                missed = int(np.count_nonzero(completed > deadline_at))
            telemetry.observe_batch(
                latencies=latency.tolist(),
                queueing_delays=queueing.tolist(),
                stored_heats=after.tolist(),
                sprinted_count=int(np.count_nonzero(sprinted)),
                fullness=fullness.tolist(),
                deadline_miss_count=missed,
                peak_temperature_c=float(temp.max()),
                peak_melt_fraction=0.0,
                first_arrival_s=float(times[0]),
                last_completion_s=float(completed.max()),
            )
        if trace is not None:
            t_l = times.tolist()
            c_l = completed.tolist()
            lat_l = latency.tolist()
            pos_l = assign.tolist()
            gid_l = device_ids.tolist()
            idx_l = block.indices.tolist()
            for i in range(count):
                ridx = idx_l[i]
                pos = pos_l[i]
                trace.add(t_l[i], "arrival", request_index=ridx)
                trace.add(
                    t_l[i],
                    "dispatch",
                    request_index=ridx,
                    device_id=pos,
                    label=labels[pos],
                )
                trace.add(
                    c_l[i],
                    "complete",
                    request_index=ridx,
                    device_id=gid_l[i],
                    detail=lat_l[i],
                    label=labels[pos],
                )
        if keep:
            kept.append(
                (block, device_ids, sprinted, queueing, response, before, after, fullness, temp)
            )

    state.sync_back()
    outcomes = ServedColumns.empty()
    if kept:
        kept_blocks, *columns = zip(*kept)
        outcomes = ServedColumns(
            RequestBlock.concat(list(kept_blocks)),
            *map(np.concatenate, columns),
            melt_fraction=np.zeros(served_count),
        )
    return EngineResult(
        outcomes=outcomes,
        rejected=(),
        abandoned=(),
        governor_stats=None,
        final_time_s=last_s,
        served_count=served_count,
        rejected_count=0,
        abandoned_count=0,
    )


def _run_event_core(
    engine: "ServingEngine",
    blocks: Iterable[RequestBlock],
    rng: np.random.Generator,
) -> "EngineResult":
    """The batch-replay event core: everything the lockstep core cannot take.

    The exact loop's semantics with its interpreter overhead stripped.
    Four structural changes, each order-preserving by construction:

    * **Arrivals merge from the sorted column stream** instead of living in
      the heap.  At most one ARRIVAL is ever in the exact heap, and at
      equal timestamps ARRIVAL beats only DEADLINE, so an arrival at ``t``
      is processed exactly after every heap event ``(t', kind)`` with
      ``t' < t`` or ``t' == t and kind < ARRIVAL``.
    * **The FIFO queue is a deque of entries** with lazy deadline
      deletion.  The exact heap keys FIFO entries by their monotonically
      increasing token, so heap order *is* append order; only entries with
      a deadline are also indexed, so that their DEADLINE event can find
      them.
    * **``least_loaded`` picks from plain lists** mirroring
      :class:`~repro.traffic.engine.LeastLoadedIndex`: the same idle heap
      ``(served, pos)``, busy heap ``(busy_until, served, pos)``, version
      stamps and compaction bound, so every pick is the index's.
    * **Device execution is inlined** linear-reservoir arithmetic on plain
      floats — the same operations, in the same order, as
      ``SprintPacer.execute_at`` — while devices on physics backends call
      their real pacer; outcomes are emitted as columns and ``Request``
      objects are only built for what keeps them.

    Grant decisions, releases, and breaker resets go through the *real*
    governor object at the exact event timestamps (the heap carries
    GRANT_RELEASE/BREAKER_RESET/DEVICE_FREE/DEADLINE events with the exact
    loop's tie-break kinds), so ``GovernorStats`` — and every cascade
    level's ledger — replays exactly.
    """
    from repro.traffic.engine import EngineResult, LeastLoadedIndex

    devices = engine.devices
    n = len(devices)
    state = _FleetState(devices)
    linear = state.linear
    pacers = [d.pacer for d in devices]
    # Plain-float mirrors of the columnar state: attribute lookups and
    # numpy scalar boxing are what the exact loop spends its time on.
    clock = state.clock.tolist()
    stored = state.stored.tolist()
    drain_w = state.drain_w.tolist()
    excess_w = state.excess_w.tolist()
    speedup = state.speedup.tolist()
    capacity = state.capacity.tolist()
    ambient = state.ambient.tolist()
    headroom_c = state.headroom_c.tolist()
    dev_allow = state.allow.tolist()
    refuse = state.refuse.tolist()
    device_ids = state.device_ids.tolist()
    labels = [d.label for d in devices]
    served_n = state.served.tolist()
    sprints_n = [0] * n
    busy_sec = [0.0] * n
    full_tot = [0.0] * n
    dep_tot = [0.0] * n
    drn_tot = [0.0] * n
    peak_st = [-np.inf] * n
    peak_t = [-np.inf] * n
    peak_m = [-np.inf] * n
    last_arr = [-np.inf] * n

    keep = engine.keep_samples
    telemetry = engine.telemetry
    probe = engine.probe
    trace = engine.trace

    governor = engine.governor
    governed = governor is not None and not governor.is_unlimited
    central = engine.mode == "central_queue"
    random_policy = engine.policy_name == "random"
    least_loaded = not central and engine.policy_name == "least_loaded"
    queue_bound = engine.queue_bound
    inf = float("inf")

    # Breaker-trip detection only feeds the probe and the trace; a
    # telemetry-only run never reads it, so skip the per-grant ledger reads.
    grant_observing = probe is not None or trace is not None

    # The greedy governor is the common governed configuration and its
    # grant protocol is pure counter arithmetic, so when nothing watches
    # individual grants the core mirrors its ledger in local variables —
    # the same operations as SprintGovernor.acquire/release/_update_cap,
    # in the same order, written back before finalize().  Any other policy
    # (or a probed/traced run) drives the real governor object.
    from repro.traffic.governor import GreedyGovernor

    greedy_inline = governed and type(governor) is GreedyGovernor and not grant_observing
    g_active = g_granted = g_denied = g_released = g_peak = 0
    g_trips: list[float] = []
    g_penalty_until = -inf
    g_cap_since: float | None = None
    g_time_at_cap = 0.0
    g_max = g_excess = g_penalty_s = 0.0
    g_headroom: float | None = None
    if greedy_inline:
        g_active = governor._active
        g_granted = governor._granted
        g_denied = governor._denied
        g_released = governor._released_unused
        g_peak = governor._peak_active
        g_trips = governor._trips
        g_penalty_until = governor._penalty_until
        g_cap_since = governor._cap_since
        g_time_at_cap = governor._time_at_cap
        g_max = governor.max_concurrent_sprints
        g_excess = governor.excess_power_w
        g_penalty_s = governor.penalty_s
        g_headroom = governor.trip_headroom_w

    # LeastLoadedIndex on plain lists: idle entries (served, pos, version),
    # busy entries (busy_until, served, pos, version), one live entry per
    # device, rebuilt from live state once stale entries outnumber it.
    ll_version = [0] * n
    ll_idle: list[tuple[int, int, int]] = []
    ll_busy: list[tuple[float, int, int, int]] = []
    ll_bound = max(2 * n, LeastLoadedIndex._COMPACT_MIN)
    if least_loaded:
        ll_busy = [(clock[pos], served_n[pos], pos, 0) for pos in range(n)]
        heapq.heapify(ll_busy)

    heappush = heapq.heappush
    heappop = heapq.heappop
    ctr = itertools.count()
    # The event heap: (time, kind, seq, payload) with the exact loop's
    # kind codes (0=GRANT_RELEASE, 1=BREAKER_RESET, 2=DEVICE_FREE,
    # 4=DEADLINE).  seq values differ from the exact loop's but preserve
    # the relative push order within every equal (time, kind) class, which
    # is all the tie-break ever uses.
    events: list[tuple[float, int, int, object]] = []
    if central:
        for pos, device in enumerate(devices):
            events.append((device.busy_until_s, 2, next(ctr), pos))
        heapq.heapify(events)
    # Queued entries in arrival order.  An entry is (arrival, demand,
    # deadline_at, position in the stream, request index, source, row),
    # where the source is the request's block, or its Request objects when
    # the probe needs one per served request (either materialises row
    # ``row`` by indexing), or None when nothing reads request objects.
    # The stream position keys the queued entries that have a deadline;
    # an abandoned entry stays in the deque, marked expired, until it
    # reaches the front.
    fifo: deque[tuple] = deque()
    deadlined: dict[int, tuple] = {}
    expired: set[int] = set()
    idle: list[tuple[int, int]] = []

    # Kept samples, in served order: (stream position, device id, sprinted,
    # queueing, service, heat before, heat after, fullness, temperature,
    # melt) rows.
    rows: list[tuple] = []
    kept_blocks: list[RequestBlock] = []
    rejected: list[Request] = []
    abandoned: list[Request] = []
    rejected_count = abandoned_count = 0
    last_s = 0.0
    cursor = 0

    # Telemetry column buffers, flushed in served order; extrema and
    # counters that the stream folds order-free are tracked as scalars.
    # Plain float lists: row tuples would be garbage-collector work.  The
    # stream keeps only the run's peak temperature and melt fraction, which
    # are the per-device peaks' maximum, so they go in with the last flush.
    b_lat: list[float] = []
    b_que: list[float] = []
    b_heat: list[float] = []
    b_full: list[float] = []
    tele_sprints = 0
    tele_missed = 0
    tele_first_a = inf
    tele_last_c = -inf

    def flush_telemetry(peak_temperature_c: float = -inf, peak_melt: float = 0.0) -> None:
        nonlocal tele_sprints, tele_missed, tele_first_a, tele_last_c
        if not b_lat:
            return
        telemetry.observe_batch(
            latencies=b_lat,
            queueing_delays=b_que,
            stored_heats=b_heat,
            sprinted_count=tele_sprints,
            fullness=b_full,
            deadline_miss_count=tele_missed,
            peak_temperature_c=peak_temperature_c,
            peak_melt_fraction=peak_melt,
            first_arrival_s=tele_first_a,
            last_completion_s=tele_last_c,
        )
        # Cleared in place: serve_on binds the buffer objects as defaults.
        del b_lat[:]
        del b_que[:]
        del b_heat[:]
        del b_full[:]
        tele_sprints = 0
        tele_missed = 0
        tele_first_a = inf
        tele_last_c = -inf

    # The hot closures below bind their read-only cell variables as default
    # arguments: LOAD_FAST instead of LOAD_DEREF on every access, which is
    # a measurable share of the per-request budget at fleet scale.
    def serve_on(
        pos: int,
        ent: tuple,
        start: float,
        now: float,
        linear=linear,
        pacers=pacers,
        dev_allow=dev_allow,
        refuse=refuse,
        stored=stored,
        clock=clock,
        drain_w=drain_w,
        excess_w=excess_w,
        speedup=speedup,
        capacity=capacity,
        ambient=ambient,
        headroom_c=headroom_c,
        device_ids=device_ids,
        served_n=served_n,
        sprints_n=sprints_n,
        busy_sec=busy_sec,
        full_tot=full_tot,
        dep_tot=dep_tot,
        drn_tot=drn_tot,
        peak_st=peak_st,
        peak_t=peak_t,
        peak_m=peak_m,
        last_arr=last_arr,
        events=events,
        heappush=heappush,
        rows=rows,
        b_lat=b_lat,
        b_que=b_que,
        b_heat=b_heat,
        b_full=b_full,
        governed=governed,
        greedy_inline=greedy_inline,
        keep=keep,
        telemetry=telemetry,
        emit=keep or probe is not None or trace is not None,
        need_temp=keep or probe is not None,
    ) -> float:
        """Grant handshake + execution + emission; returns busy-until."""
        nonlocal tele_sprints, tele_missed, tele_first_a, tele_last_c
        nonlocal g_active, g_granted, g_denied, g_released, g_peak
        nonlocal g_penalty_until, g_cap_since, g_time_at_cap
        t_arr, s_dem, dl_at, gpos, ridx, src, row = ent
        allowed = dev_allow[pos]
        if governed and allowed:
            if greedy_inline:
                # GreedyGovernor.acquire, mirrored on locals.
                grant = False if now < g_penalty_until else g_active < g_max
                if grant:
                    g_granted += 1
                    g_active += 1
                    if g_active > g_peak:
                        g_peak = g_active
                    if g_headroom is not None and g_active * g_excess > g_headroom:
                        g_trips.append(now)
                        if g_penalty_s > 0.0:
                            g_penalty_until = now + g_penalty_s
                            heappush(events, (g_penalty_until, 1, next(ctr), None))
                else:
                    g_denied += 1
                if now < g_penalty_until or g_active >= g_max:  # _update_cap
                    if g_cap_since is None:
                        g_cap_since = now
                elif g_cap_since is not None:
                    g_time_at_cap += now - g_cap_since
                    g_cap_since = None
            else:
                trips_before = governor.breaker_trips if grant_observing else 0
                grant = governor.acquire(now)
                while True:
                    reset_at = governor.pop_pending_reset()
                    if reset_at is None:
                        break
                    heappush(events, (reset_at, 1, next(ctr), None))
                if probe is not None:
                    probe.on_grant(now, grant)
                    if grant:
                        probe.on_in_flight_sprints(now, governor.active_grants)
                if trace is not None:
                    trace.add(
                        now,
                        "grant" if grant else "deny",
                        request_index=ridx,
                        device_id=device_ids[pos],
                        label=labels[pos],
                    )
                if grant_observing and governor.breaker_trips > trips_before:
                    if probe is not None:
                        probe.on_breaker_trip(now)
                    if trace is not None:
                        trace.add(now, "trip", detail=governor.active_excess_draw_w)
            allow = grant
        else:
            grant = False
            allow = allowed

        if linear[pos]:
            # SprintPacer.execute_at over a LinearReservoir, inlined: the
            # same float operations in the same order (the scalar twins of
            # the vector core's elementwise ops).
            st = stored[pos]
            x = st - drain_w[pos] * (start - clock[pos])
            after = x if x > 0.0 else 0.0
            h = capacity[pos] - after
            headroom = h if h > 0.0 else 0.0
            sp_t = s_dem / speedup[pos]
            d = excess_w[pos] * sp_t
            demand = d if d > 0.0 else 0.0
            if allow and demand <= headroom:
                sprinted = True
                fullness = 1.0
                response = sp_t
                deposit = demand
            elif (not allow) or refuse[pos] or headroom <= 0.0:
                sprinted = False
                fullness = 0.0
                response = s_dem
                deposit = 0.0
            else:
                fullness = headroom / demand
                sprinted = True
                response = fullness * sp_t + (1.0 - fullness) * s_dem
                deposit = headroom
            after2 = after + deposit
            stored[pos] = after2
            dep_tot[pos] += deposit
            drn_tot[pos] += st - after
            if after2 > peak_st[pos]:
                peak_st[pos] = after2
            last_arr[pos] = t_arr
            melt = 0.0
            if need_temp:
                cap = capacity[pos]
                tmp = (
                    ambient[pos] + (after2 / cap) * headroom_c[pos]
                    if cap > 0.0
                    else ambient[pos]
                )
        else:
            # A physics backend: the device's real pacer, then the
            # counters and peaks SprintDevice._record keeps.
            outcome = pacers[pos].execute_at(start, s_dem, ridx, allow, t_arr)
            sprinted = outcome.sprinted
            fullness = outcome.sprint_fullness
            response = outcome.response_time_s
            after = outcome.stored_heat_before_j
            after2 = outcome.stored_heat_after_j
            tmp = outcome.package_temperature_c
            melt = outcome.melt_fraction
            if tmp > peak_t[pos]:
                peak_t[pos] = tmp
            if melt > peak_m[pos]:
                peak_m[pos] = melt
            if after2 > peak_st[pos]:
                peak_st[pos] = after2
        end = start + response
        clock[pos] = end
        served_n[pos] += 1
        if sprinted:
            sprints_n[pos] += 1
        busy_sec[pos] += response
        full_tot[pos] += fullness

        queueing = start - t_arr
        latency = queueing + response
        completed = t_arr + latency

        if grant:
            if sprinted:
                heappush(events, (completed, 0, next(ctr), None))
            elif greedy_inline:
                # GreedyGovernor.release(now, used=False), mirrored.
                g_active -= 1
                g_released += 1
                if now < g_penalty_until or g_active >= g_max:
                    if g_cap_since is None:
                        g_cap_since = now
                elif g_cap_since is not None:
                    g_time_at_cap += now - g_cap_since
                    g_cap_since = None
            else:
                governor.release(now, used=False)
                if probe is not None:
                    probe.on_in_flight_sprints(now, governor.active_grants)
                if trace is not None:
                    trace.add(
                        now,
                        "release",
                        request_index=ridx,
                        device_id=device_ids[pos],
                        detail=0.0,
                        label=labels[pos],
                    )

        if telemetry is not None:
            # Flushed before the append, so the last flush always has rows.
            if len(b_lat) >= 4096:
                flush_telemetry()
            b_lat.append(latency)
            b_que.append(queueing)
            b_heat.append(after2)
            b_full.append(fullness)
            if sprinted:
                tele_sprints += 1
            if completed > dl_at:
                tele_missed += 1
            if t_arr < tele_first_a:
                tele_first_a = t_arr
            if completed > tele_last_c:
                tele_last_c = completed
        if emit:
            if keep:
                rows.append(
                    (
                        gpos,
                        device_ids[pos],
                        sprinted,
                        queueing,
                        response,
                        after,
                        after2,
                        fullness,
                        tmp,
                        melt,
                    )
                )
            if probe is not None:
                probe.on_served(
                    ServedRequest(
                        request=src[row],
                        device_id=device_ids[pos],
                        sprinted=sprinted,
                        queueing_delay_s=queueing,
                        service_time_s=response,
                        stored_heat_before_j=after,
                        stored_heat_after_j=after2,
                        sprint_fullness=fullness,
                        package_temperature_c=tmp,
                        melt_fraction=melt,
                    )
                )
            if trace is not None:
                trace.add(
                    completed,
                    "complete",
                    request_index=ridx,
                    device_id=device_ids[pos],
                    detail=latency,
                    label=labels[pos],
                )
        return end

    def emit_rejected(ent: tuple, now: float) -> None:
        nonlocal rejected_count
        rejected_count += 1
        if keep:
            rejected.append(ent[5][ent[6]])
        if telemetry is not None:
            telemetry.observe_rejected()
        if probe is not None:
            probe.on_rejected(now)
        if trace is not None:
            trace.add(now, "reject", request_index=ent[4])

    def emit_abandoned(ent: tuple, now: float) -> None:
        nonlocal abandoned_count
        abandoned_count += 1
        if keep:
            abandoned.append(ent[5][ent[6]])
        if telemetry is not None:
            telemetry.observe_abandoned()
        if probe is not None:
            probe.on_abandoned(now)
        if trace is not None:
            trace.add(now, "abandon", request_index=ent[4])

    def ll_pick(now: float, ll_idle=ll_idle, ll_busy=ll_busy, ll_version=ll_version) -> int:
        """LeastLoadedIndex.pick: migrate freed devices, then the minimum."""
        while ll_busy:
            top = ll_busy[0]
            if top[3] != ll_version[top[2]]:
                heappop(ll_busy)
                continue
            if top[0] > now:
                break
            heappop(ll_busy)
            heappush(ll_idle, (top[1], top[2], top[3]))
        while ll_idle:
            top = ll_idle[0]
            if top[2] != ll_version[top[1]]:
                heappop(ll_idle)
                continue
            return top[1]
        while True:
            top = ll_busy[0]
            if top[3] != ll_version[top[2]]:
                heappop(ll_busy)
                continue
            return top[2]

    def ll_update(pos: int, ll_version=ll_version) -> None:
        """LeastLoadedIndex.update: re-key ``pos``; compact past the bound."""
        version = ll_version[pos] + 1
        ll_version[pos] = version
        heappush(ll_busy, (clock[pos], served_n[pos], pos, version))
        if len(ll_idle) + len(ll_busy) > ll_bound:
            live_idle = {p for _, p, v in ll_idle if v == ll_version[p]}
            ll_idle[:] = [(served_n[p], p, ll_version[p]) for p in range(n) if p in live_idle]
            ll_busy[:] = [
                (clock[p], served_n[p], p, ll_version[p]) for p in range(n) if p not in live_idle
            ]
            heapq.heapify(ll_idle)
            heapq.heapify(ll_busy)

    def pump(
        t_limit: float,
        events=events,
        heappop=heappop,
        heappush=heappush,
        fifo=fifo,
        deadlined=deadlined,
        expired=expired,
        idle=idle,
        served_n=served_n,
        greedy_inline=greedy_inline,
    ) -> None:
        """Process every heap event due before an arrival at ``t_limit``.

        An event fires first iff its time is strictly earlier, or equal
        with kind < ARRIVAL (GRANT_RELEASE, BREAKER_RESET, DEVICE_FREE);
        a DEADLINE at the arrival instant loses, exactly as in the heap
        loop.  ``t_limit=inf`` drains the heap after the stream ends.
        """
        nonlocal last_s
        nonlocal g_active, g_penalty_until, g_cap_since, g_time_at_cap
        while events:
            ev = events[0]
            et = ev[0]
            if et > t_limit or (et == t_limit and ev[1] >= 3):
                break
            heappop(events)
            last_s = et
            kind = ev[1]
            if kind == 2:  # DEVICE_FREE
                pos = ev[3]
                ent = None
                while fifo:
                    ent = fifo.popleft()
                    if ent[2] == inf:
                        break
                    if ent[3] in expired:
                        expired.discard(ent[3])
                        ent = None
                        continue
                    del deadlined[ent[3]]
                    break
                if ent is not None:
                    if probe is not None:
                        probe.on_queue_depth(et, len(fifo) - len(expired))
                    if trace is not None:
                        trace.add(
                            et,
                            "dispatch",
                            request_index=ent[4],
                            device_id=pos,
                            label=labels[pos],
                        )
                    end = serve_on(pos, ent, et, et)
                    heappush(events, (end, 2, next(ctr), pos))
                else:
                    heappush(idle, (served_n[pos], pos))
            elif kind == 0:  # GRANT_RELEASE
                if greedy_inline:
                    g_active -= 1
                    if et < g_penalty_until or g_active >= g_max:
                        if g_cap_since is None:
                            g_cap_since = et
                    elif g_cap_since is not None:
                        g_time_at_cap += et - g_cap_since
                        g_cap_since = None
                else:
                    governor.release(et)
                    if probe is not None:
                        probe.on_in_flight_sprints(et, governor.active_grants)
                    if trace is not None:
                        trace.add(et, "release")
            elif kind == 1:  # BREAKER_RESET
                if greedy_inline:
                    if et < g_penalty_until or g_active >= g_max:
                        if g_cap_since is None:
                            g_cap_since = et
                    elif g_cap_since is not None:
                        g_time_at_cap += et - g_cap_since
                        g_cap_since = None
                else:
                    governor.on_breaker_reset(et)
            else:  # DEADLINE
                ent = deadlined.pop(ev[3], None)
                if ent is not None:
                    expired.add(ev[3])
                    if probe is not None:
                        probe.on_queue_depth(et, len(fifo) - len(expired))
                    emit_abandoned(ent, et)

    previous_end = -np.inf
    base = 0
    for block in blocks:
        count = len(block)
        if count == 0:
            continue
        previous_end = _check_chunk_order(block.arrival_s, previous_end)
        if keep:
            kept_blocks.append(block)
        t_l = block.arrival_s.tolist()
        d_l = block.sustained_time_s.tolist()
        deadline_at = block.deadline_at_s
        dl_l = deadline_at.tolist() if deadline_at is not None else [inf] * count
        idx_l = (
            block.index.tolist()
            if block.index is not None
            else range(block.start_index, block.start_index + count)
        )
        if probe is not None:
            src = block.to_requests()
        elif keep:
            src = block
        else:
            # Nothing reads request objects.  An entry of plain numbers is
            # one the garbage collector stops tracking while it waits in
            # the queue.
            src = None
        for i, (t, demand, dl_at, ridx) in enumerate(zip(t_l, d_l, dl_l, idx_l)):
            if events:
                pump(t)
            last_s = t
            if probe is not None:
                probe.on_arrival(t)
            if trace is not None:
                trace.add(t, "arrival", request_index=ridx)
            ent = (t, demand, dl_at, base + i, ridx, src, i)
            if central:
                if idle:
                    _, pos = heappop(idle)
                    if trace is not None:
                        trace.add(
                            t,
                            "dispatch",
                            request_index=ridx,
                            device_id=pos,
                            label=labels[pos],
                        )
                    end = serve_on(pos, ent, t, t)
                    heappush(events, (end, 2, next(ctr), pos))
                elif queue_bound is not None and len(fifo) - len(expired) >= queue_bound:
                    emit_rejected(ent, t)
                else:
                    fifo.append(ent)
                    if probe is not None:
                        probe.on_queue_depth(t, len(fifo) - len(expired))
                    if ent[2] != inf:
                        deadlined[ent[3]] = ent
                        heappush(events, (ent[2], 4, next(ctr), ent[3]))
            else:  # immediate dispatch
                if least_loaded:
                    pos = ll_pick(t)
                elif random_policy:
                    pos = int(rng.integers(n))
                else:
                    pos = cursor % n
                cursor += 1
                if trace is not None:
                    trace.add(
                        t,
                        "dispatch",
                        request_index=ridx,
                        device_id=pos,
                        label=labels[pos],
                    )
                c = clock[pos]
                serve_on(pos, ent, t if t > c else c, t)
                if least_loaded:
                    ll_update(pos)
        base += count
    pump(inf)

    if greedy_inline:
        # Restore the mirrored ledger so finalize() reports it exactly.
        governor._active = g_active
        governor._granted = g_granted
        governor._denied = g_denied
        governor._released_unused = g_released
        governor._peak_active = g_peak
        governor._trips = g_trips
        governor._penalty_until = g_penalty_until
        governor._cap_since = g_cap_since
        governor._time_at_cap = g_time_at_cap

    state.clock = np.asarray(clock)
    state.stored = np.asarray(stored)
    state.served = np.asarray(served_n, dtype=np.int64)
    state.sprints = np.asarray(sprints_n, dtype=np.int64)
    state.busy_seconds = np.asarray(busy_sec)
    state.fullness_total = np.asarray(full_tot)
    state.deposited = np.asarray(dep_tot)
    state.drained = np.asarray(drn_tot)
    state.peak_stored = np.asarray(peak_st)
    state.peak_temperature = np.asarray(peak_t)
    state.peak_melt = np.asarray(peak_m)
    state.last_arrival = np.asarray(last_arr)
    peaks = state.sync_back()
    if telemetry is not None:
        flush_telemetry(*peaks)
    served_count = int((state.served - state.served_before).sum())

    outcomes = ServedColumns.empty()
    if rows:
        positions, *columns = zip(*rows)
        outcomes = ServedColumns(
            RequestBlock.concat(kept_blocks).take(np.array(positions, dtype=np.int64)),
            *map(np.array, columns, OUTCOME_DTYPES),
        )
    return EngineResult(
        outcomes=outcomes,
        rejected=tuple(rejected),
        abandoned=tuple(abandoned),
        governor_stats=governor.finalize(last_s) if governed else None,
        final_time_s=last_s,
        served_count=served_count,
        rejected_count=rejected_count,
        abandoned_count=abandoned_count,
    )


def run_batched(
    engine: "ServingEngine",
    blocks: Iterable[RequestBlock],
    rng: np.random.Generator,
) -> "EngineResult":
    """Run time-ordered request blocks through the batched cores.

    The caller guarantees the concatenated arrival times are
    non-decreasing — arrival processes emit sorted streams and
    ``ServingEngine.run`` sorts — which is asserted cheaply per block.
    Dispatches to the lockstep vector core for ungoverned immediate
    ``round_robin``/``random`` runs on linear reservoirs, and to the
    batch-replay event core for everything else.
    """
    governor = engine.governor
    governed = governor is not None and not governor.is_unlimited
    lockstep = (
        engine.mode == "immediate"
        and not governed
        and engine.policy_name in LOCKSTEP_POLICIES
        and all(type(d.thermal_backend) is LinearReservoir for d in engine.devices)
    )
    if lockstep:
        return _run_immediate_core(engine, blocks, rng)
    return _run_event_core(engine, blocks, rng)
