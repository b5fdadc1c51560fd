"""Heap-based discrete-event serving engine for sprint-capable fleets.

The engine advances a priority queue of timestamped events instead of a
python loop over requests, which buys three things the legacy
arrival-ordered loop could not express:

* **Central-queue (deferred) dispatch** — requests wait in a shared queue
  (FIFO or earliest-deadline-first) and are assigned to a device only when
  one frees, like a real serving frontend.  The legacy behaviour survives
  as *immediate* mode: every request is bound to a device at its arrival
  instant by a dispatch policy and queues on that device.
* **A request lifecycle** — bounded queues reject arrivals when full
  (admission control), and a queued request whose deadline passes before it
  starts is abandoned.  Served, rejected, and abandoned requests are
  reported separately in :class:`EngineResult`.
* **Indexed dispatch** — :class:`LeastLoadedIndex` tracks idle and busy
  devices in lazy-deletion heaps, so ``least_loaded`` dispatch costs
  O(log n) per request instead of an O(n) scan over the fleet.

Event kinds
-----------
``GRANT_RELEASE`` (a sprint's power grant returns to the governor),
``BREAKER_RESET`` (a tripped breaker's penalty window ends),
``DEVICE_FREE`` (a device finished its request), ``ARRIVAL`` (a request
reaches the frontend) and ``DEADLINE`` (a queued request's latency budget
expires) — resolved in that order at equal timestamps, so budget freed by
a sprint ending at an instant is visible to a request dispatched at that
same instant, a request arriving exactly when a device frees is served
without waiting, and a request whose dispatch opportunity coincides with
its deadline is served rather than abandoned.  Immediate mode only
schedules arrivals (plus grant releases when governed): device queueing
lives inside :class:`~repro.core.pacing.SprintPacer` there, and the
engine reproduces the legacy loop's latencies bit-identically.

Governed sprinting
------------------
With a non-trivial :class:`~repro.traffic.governor.SprintGovernor`, every
request bound to a sprint-capable device must acquire a grant before it
may run sprinted: denied requests execute sustained, granted requests
that end up not sprinting (device thermally exhausted) return their grant
immediately, and sprinting requests hold it until their completion
instant — released by a ``GRANT_RELEASE`` event, which at equal
timestamps resolves before ``DEVICE_FREE`` so a freed device's next
request sees the returned budget.  An unlimited governor (or none) takes
the exact ungoverned code path, bit-identical to PR 2's engine.

Thermal fidelity
----------------
The engine is agnostic to the reservoir physics a device paces against:
each :class:`~repro.traffic.device.SprintDevice` owns a thermal backend
(:mod:`repro.core.thermal_backend`), and the per-request
temperature/enthalpy telemetry it produces rides inside
:class:`~repro.traffic.device.ServedRequest` untouched through both
dispatch modes.  The ``thermal_aware`` policy and the central queue only
consume the backend-neutral projections (``busy_until_s``,
``available_fraction_at``), so every dispatch mode works with every
backend.

Dispatch policies (immediate mode)
----------------------------------
* ``round_robin`` — cycle through devices regardless of state,
* ``least_loaded`` — the device that can start the request soonest,
* ``thermal_aware`` — among the devices that can start soonest (within a
  slack window), the one with the most sprint budget left at start time,
* ``random`` — uniform choice, seeded by the run seed (the usual strawman).

Usage — two requests round-robined across a two-device fleet:

>>> import numpy as np
>>> from repro.core.config import SystemConfig
>>> from repro.traffic.device import SprintDevice
>>> from repro.traffic.engine import DISPATCH_POLICIES, ServingEngine
>>> from repro.traffic.request import Request
>>> devices = [
...     SprintDevice(SystemConfig.paper_default(), device_id=i) for i in range(2)
... ]
>>> engine = ServingEngine(devices, DISPATCH_POLICIES["round_robin"], "round_robin")
>>> result = engine.run(
...     [Request(0, 0.0, 5.0), Request(1, 1.0, 5.0)], np.random.default_rng(0)
... )
>>> [s.device_id for s in result.served], result.rejected_count
([0, 1], 0)
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.traffic.device import ServedColumns, ServedRequest, SprintDevice
from repro.traffic.governor import GovernorStats, SprintGovernor
from repro.traffic.request import Request, RequestBlock
from repro.traffic.telemetry import EventTrace, TimelineProbe, TrafficTelemetry

#: A dispatch policy maps (devices, request, rng, round-robin cursor) to a
#: device index.  The cursor is only meaningful to round_robin but is passed
#: uniformly so policies stay plain functions.
DispatchFn = Callable[[Sequence[SprintDevice], Request, np.random.Generator, int], int]

#: How requests are bound to devices: at arrival (legacy) or from a shared queue.
DISPATCH_MODES = ("immediate", "central_queue")

#: How the engine advances time: one heap event at a time (the reference),
#: or the batched cores where the configuration permits — the lockstep
#: numpy vector core for ungoverned immediate round_robin/random runs, the
#: batch-replay event core for the rest of the envelope — with an
#: automatic, bit-identical fallback to exact where neither applies (see
#: :mod:`repro.traffic.fastpath`).
EXECUTION_MODES = ("exact", "batched")

#: Orderings of the shared queue in central_queue mode.
QUEUE_DISCIPLINES = ("fifo", "edf")

# Event kinds, in tie-break order at equal timestamps (see module docstring).
_GRANT_RELEASE = 0
_BREAKER_RESET = 1
_DEVICE_FREE = 2
_ARRIVAL = 3
_DEADLINE = 4


def _round_robin(
    devices: Sequence[SprintDevice],
    request: Request,
    rng: np.random.Generator,
    cursor: int,
) -> int:
    return cursor % len(devices)


def _least_loaded(
    devices: Sequence[SprintDevice],
    request: Request,
    rng: np.random.Generator,
    cursor: int,
) -> int:
    """Join the device that can start the request soonest (O(n) scan).

    Ties — the common case whenever several devices are idle — go to the
    device that has served the fewest requests (then the lowest id), which
    rotates light-load traffic across the fleet instead of piling every
    request onto device 0 and turning it into a thermal hotspot.

    This is the reference implementation; the engine replaces it with the
    order-equivalent O(log n) :class:`LeastLoadedIndex` when the policy is
    named ``"least_loaded"``.  Pass this function itself as a custom policy
    to force the scan (e.g. for benchmarking the index against it).
    """
    return min(
        range(len(devices)),
        key=lambda i: (
            devices[i].start_time_for(request.arrival_s),
            devices[i].requests_served,
            i,
        ),
    )


def _thermal_aware(
    devices: Sequence[SprintDevice],
    request: Request,
    rng: np.random.Generator,
    cursor: int,
) -> int:
    """Prefer budget over pure load, without starving the queue.

    Candidates are devices whose start time is within a slack window of
    the earliest possible start; the window is 10% of the request's own
    sustained time.  Bounding the slack by the task length keeps the trade
    favourable in every regime: a successful full sprint saves
    ``(1 - 1/speedup)`` of the sustained time, so waiting up to 10% of it
    for a device with more budget is always a good exchange — whereas a
    window scaled by the queueing backlog could, under overload, wait
    longer than any sprint can ever save.  Among candidates the most
    sprint budget available at start time wins; ties fall back to the
    earliest start, then the lowest device id.
    """
    starts = [d.start_time_for(request.arrival_s) for d in devices]
    earliest = min(starts)
    slack = 0.1 * request.sustained_time_s
    best = None
    for i, device in enumerate(devices):
        if starts[i] > earliest + slack:
            continue
        key = (-device.available_fraction_at(starts[i]), starts[i], i)
        if best is None or key < best[0]:
            best = (key, i)
    assert best is not None
    return best[1]


def _random(
    devices: Sequence[SprintDevice],
    request: Request,
    rng: np.random.Generator,
    cursor: int,
) -> int:
    return int(rng.integers(len(devices)))


DISPATCH_POLICIES: dict[str, DispatchFn] = {
    "round_robin": _round_robin,
    "least_loaded": _least_loaded,
    "thermal_aware": _thermal_aware,
    "random": _random,
}


class LeastLoadedIndex:
    """O(log n) replacement for the ``least_loaded`` fleet scan.

    Two lazy-deletion heaps partition the fleet: devices known to be idle
    at or before the probe time, keyed ``(requests_served, position)``, and
    busy devices keyed ``(busy_until_s, requests_served, position)``.  Each
    device's live entry carries a version number; re-keying a device after
    it absorbs a request just bumps the version and pushes a fresh entry,
    and stale entries are discarded when they surface at a heap top.

    Picking the idle minimum when any device is idle, else the busy
    minimum, reproduces the scan's ``(start_time, requests_served, id)``
    ordering exactly: idle devices all share ``start_time == arrival`` (so
    the scan's tie-break applies verbatim), and every idle device beats
    every busy one because a busy device starts at ``busy_until > arrival``.

    Probe times must be non-decreasing (arrivals are processed in time
    order), so devices migrate monotonically from the busy heap to the idle
    heap and each serve costs amortised O(log n).
    """

    def __init__(self, devices: Sequence[SprintDevice]) -> None:
        self._devices = devices
        self._version = [0] * len(devices)
        self._idle: list[tuple[int, int, int]] = []
        # Seed from each device's *actual* state (it may carry serving
        # history); devices already free migrate to the idle heap on the
        # first probe, so a fresh fleet behaves as all-idle.
        self._busy: list[tuple[float, int, int, int]] = [
            (d.busy_until_s, d.requests_served, i, 0) for i, d in enumerate(devices)
        ]
        heapq.heapify(self._busy)

    def _advance(self, now_s: float) -> None:
        """Migrate devices whose busy period has ended into the idle heap."""
        busy = self._busy
        while busy:
            busy_until, served, pos, version = busy[0]
            if version != self._version[pos]:
                heapq.heappop(busy)
                continue
            if busy_until > now_s:
                break
            heapq.heappop(busy)
            heapq.heappush(self._idle, (served, pos, version))

    def pick(self, arrival_s: float) -> int:
        """Device position the scan would pick for an arrival at ``arrival_s``."""
        self._advance(arrival_s)
        idle = self._idle
        while idle:
            served, pos, version = idle[0]
            if version != self._version[pos]:
                heapq.heappop(idle)
                continue
            return pos
        busy = self._busy
        while True:
            busy_until, served, pos, version = busy[0]
            if version != self._version[pos]:
                heapq.heappop(busy)
                continue
            return pos

    #: Compaction floor: heaps smaller than this never rebuild, so tiny
    #: fleets don't thrash on every update.
    _COMPACT_MIN = 64

    def update(self, pos: int) -> None:
        """Re-key device ``pos`` after it absorbed a request."""
        self._version[pos] += 1
        device = self._devices[pos]
        heapq.heappush(
            self._busy,
            (device.busy_until_s, device.requests_served, pos, self._version[pos]),
        )
        # Lazy deletion leaves one stale tuple behind per re-key.  Each
        # device has exactly one live entry, so anything beyond n entries is
        # dead weight; once the stale fraction passes 50% (total > 2n) the
        # heaps are rebuilt from live device state.  Rebuilding costs O(n)
        # against the >n updates that grew the garbage, so the amortised
        # cost stays O(1) per update and heap size stays bounded at
        # max(2n, floor) over any horizon.
        total = len(self._idle) + len(self._busy)
        if total > max(2 * len(self._devices), self._COMPACT_MIN):
            self._compact()

    def _compact(self) -> None:
        """Rebuild both heaps with one live entry per device.

        A heap rebuild never changes which entry is the minimum live one,
        so picks after compaction are identical to picks without it — only
        the garbage goes away.  Entries still in the busy heap whose device
        has since been migrated keep their idle residency through the
        membership scan below.
        """
        live_idle = set()
        for served, pos, version in self._idle:
            if version == self._version[pos]:
                live_idle.add(pos)
        idle: list[tuple[int, int, int]] = []
        busy: list[tuple[float, int, int, int]] = []
        for pos, device in enumerate(self._devices):
            version = self._version[pos]
            if pos in live_idle:
                idle.append((device.requests_served, pos, version))
            else:
                busy.append(
                    (device.busy_until_s, device.requests_served, pos, version)
                )
        heapq.heapify(idle)
        heapq.heapify(busy)
        self._idle = idle
        self._busy = busy

    @property
    def entry_count(self) -> int:
        """Total live + stale heap entries (observability for the bound test)."""
        return len(self._idle) + len(self._busy)


@dataclass(frozen=True)
class EngineResult:
    """Everything one engine run produced, by request fate.

    ``outcomes`` holds the served requests as columns, in the order the
    event processing served them; :attr:`served` is the same rows as
    :class:`~repro.traffic.device.ServedRequest` objects (callers usually
    re-sort by ``request.index``).  ``rejected`` holds arrivals bounced by
    a full bounded queue, ``abandoned`` the queued requests whose deadline
    expired before a device picked them up.
    """

    outcomes: ServedColumns
    rejected: tuple[Request, ...]
    abandoned: tuple[Request, ...]
    #: Grant accounting of a governed run (None when ungoverned/unlimited).
    governor_stats: GovernorStats | None = None
    #: Lifecycle counts, always valid — with ``keep_samples=False`` the
    #: columns and tuples above stay empty to keep memory flat, and these
    #: counters are the only record of how many requests met each fate.
    served_count: int = 0
    rejected_count: int = 0
    abandoned_count: int = 0
    #: Timestamp of the last event the engine processed.  Event times are
    #: popped from a min-heap, so this is the latest instant the engine
    #: acted at.  In central-queue mode every device's final DEVICE_FREE
    #: is an event, so this bounds all completions; in immediate mode
    #: completions resolve inside the devices' pacers and may extend past
    #: the final arrival — callers wanting a completion-inclusive horizon
    #: take ``max(final_time_s, max completed_at_s)``
    #: (:attr:`repro.traffic.fleet.FleetResult.horizon_s` does).
    final_time_s: float = 0.0

    @property
    def served(self) -> tuple[ServedRequest, ...]:
        """The served rows as objects (built once, on first access)."""
        return self.outcomes.served


class ServingEngine:
    """Discrete-event core shared by every fleet simulation.

    Parameters
    ----------
    devices:
        The fleet.  Device positions (list indices) are the engine's device
        identity; callers conventionally construct devices whose
        ``device_id`` equals their position.
    dispatch, policy_name:
        The immediate-mode dispatch policy and its name.
    indexed:
        Run ``least_loaded`` dispatch on the order-equivalent O(log n)
        :class:`LeastLoadedIndex` instead of calling ``dispatch``.  Default
        (``None``): substitute exactly when ``policy_name`` is
        ``"least_loaded"``.  Callers resolving policies themselves (e.g.
        :class:`~repro.traffic.fleet.FleetSimulator`) pass an explicit
        bool so a *custom* callable that happens to be named
        ``least_loaded`` still runs as-is.
    mode:
        ``"immediate"`` binds each request to a device at its arrival
        instant (the legacy behaviour, bit-identical to the old loop);
        ``"central_queue"`` holds requests in a shared queue until a device
        frees.
    discipline:
        Central-queue ordering: ``"fifo"`` (arrival order) or ``"edf"``
        (earliest absolute deadline first; deadline-free requests sort
        last, among themselves in arrival order).
    queue_bound:
        Maximum number of requests waiting in the central queue; arrivals
        beyond it are rejected (admission control).  ``None`` = unbounded;
        ``0`` = a pure loss system.  Ignored in immediate mode, where
        queueing lives on the devices.
    governor:
        Shared-power-budget :class:`~repro.traffic.governor.SprintGovernor`
        gating sprints fleet-wide.  ``None`` or an unlimited governor runs
        the exact ungoverned code path (bit-identical to PR 2).  The engine
        does not reset the governor between runs — callers owning the run
        lifecycle (:class:`~repro.traffic.fleet.FleetSimulator`) do.
    keep_samples:
        When True (default) every served/rejected/abandoned request object
        is retained in :class:`EngineResult`, the exact legacy behaviour.
        When False only the lifecycle *counts* are kept — the memory of a
        run stops growing with its horizon, and summarisation must come
        from a streaming ``telemetry`` observer instead.
    telemetry, probe, trace:
        Optional streaming observers
        (:class:`~repro.traffic.telemetry.TrafficTelemetry`,
        :class:`~repro.traffic.telemetry.TimelineProbe`,
        :class:`~repro.traffic.telemetry.EventTrace`), fed online as events
        resolve.  Observers never influence event order, float paths, or
        RNG draws, so enabling them cannot perturb a run (the golden
        fixture locks this).
    execution:
        ``"exact"`` (default) resolves every event through the heap loop.
        ``"batched"`` runs the fast cores where the configuration permits:
        the numpy lockstep core for ungoverned immediate round_robin/random
        dispatch on linear reservoirs, and the batch-replay event core for
        everything else in the envelope — ``least_loaded`` dispatch,
        central-queue FIFO, governors that declare an exact batched replay
        (greedy, cooperative_threshold, cascades of them) and every thermal
        backend — with streaming observers fed from columnar buffers (see
        :mod:`repro.traffic.fastpath`).  Anything else (EDF, token_bucket,
        ``thermal_aware``, custom dispatch callables) falls back to the
        exact loop, so results are bit-identical either way.
        :attr:`last_run_fast_path` reports which path the latest run took,
        and :attr:`fast_path_reason` why the fast cores are (not) engaged.
    """

    def __init__(
        self,
        devices: Sequence[SprintDevice],
        dispatch: DispatchFn = _least_loaded,
        policy_name: str = "least_loaded",
        mode: str = "immediate",
        discipline: str = "fifo",
        queue_bound: int | None = None,
        indexed: bool | None = None,
        governor: SprintGovernor | None = None,
        keep_samples: bool = True,
        telemetry: TrafficTelemetry | None = None,
        probe: TimelineProbe | None = None,
        trace: EventTrace | None = None,
        execution: str = "exact",
    ) -> None:
        if not devices:
            raise ValueError("the engine needs at least one device")
        if mode not in DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch mode {mode!r}; available: {DISPATCH_MODES}"
            )
        if discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline {discipline!r}; "
                f"available: {QUEUE_DISCIPLINES}"
            )
        if queue_bound is not None and queue_bound < 0:
            raise ValueError("queue bound must be non-negative (or None)")
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {execution!r}; "
                f"available: {EXECUTION_MODES}"
            )
        self.devices = devices
        self.dispatch = dispatch
        self.policy_name = policy_name
        self.mode = mode
        self.discipline = discipline
        self.queue_bound = queue_bound
        self.governor = governor
        self.indexed = (policy_name == "least_loaded") if indexed is None else indexed
        self.keep_samples = keep_samples
        self.telemetry = telemetry
        self.probe = probe
        self.trace = trace
        self.execution = execution
        #: Whether the most recent run() / run_blocks() took the vector core.
        self.last_run_fast_path = False

    @property
    def fast_path_reason(self) -> str | None:
        """Why the vector core is not engaged (``None`` when it would be)."""
        from repro.traffic.fastpath import unsupported_reason

        return unsupported_reason(self)

    def _use_fast_path(self) -> bool:
        self.last_run_fast_path = (
            self.execution == "batched" and self.fast_path_reason is None
        )
        return self.last_run_fast_path

    # -- the event loop ---------------------------------------------------------------

    def run(
        self, requests: Sequence[Request], rng: np.random.Generator
    ) -> EngineResult:
        """Process ``requests`` to completion and report every request's fate.

        ``rng`` feeds immediate-mode policies that randomise (``random``);
        everything else is deterministic, so identical requests, seed, and
        engine configuration give bit-identical results.
        """
        # Request generators emit in arrival order already; detecting that
        # with an O(1)-allocation scan keeps the keyed sort (which holds an
        # O(n) key-tuple array alive) off the long-horizon flat-memory path.
        ordered = list(requests)
        if any(
            (b.arrival_s, b.index) < (a.arrival_s, a.index)
            for a, b in itertools.pairwise(ordered)
        ):
            ordered.sort(key=lambda r: (r.arrival_s, r.index))
        if self._use_fast_path():
            from repro.traffic.fastpath import run_batched

            return run_batched(self, [RequestBlock.from_requests(ordered)], rng)
        seq = itertools.count()
        # Entries are (time, kind, seq, payload); seq is unique, so payloads
        # are never compared.  Arrivals are fed into the heap one at a time
        # from the sorted stream (each arrival pushes its successor), so the
        # heap holds O(devices + in-flight) events rather than O(requests).
        # seq values only break ties between equal (time, kind) pairs, and
        # same-kind events are still pushed in the same relative order as
        # the old materialise-everything loop, so results are bit-identical.
        events: list[tuple[float, int, int, object]] = []

        served: list[ServedRequest] = []
        rejected: list[Request] = []
        abandoned: list[Request] = []

        keep = self.keep_samples
        telemetry = self.telemetry
        probe = self.probe
        trace = self.trace
        observing = telemetry is not None or probe is not None or trace is not None

        served_count = 0
        rejected_count = 0
        abandoned_count = 0

        if keep and not observing:
            emit_served = served.append  # the legacy hot path, untouched
        else:
            # Keyed by device_id, not list position: sharded rack engines
            # carry fleet-global ids on rack-local device lists.
            label_of = {d.device_id: d.label for d in self.devices}

            def emit_served(outcome: ServedRequest) -> None:
                nonlocal served_count
                served_count += 1
                if keep:
                    served.append(outcome)
                if telemetry is not None:
                    telemetry.observe(outcome)
                if probe is not None:
                    probe.on_served(outcome)
                if trace is not None:
                    trace.add(
                        outcome.completed_at_s,
                        "complete",
                        request_index=outcome.request.index,
                        device_id=outcome.device_id,
                        detail=outcome.latency_s,
                        label=label_of[outcome.device_id],
                    )

        def emit_rejected(request: Request, now_s: float) -> None:
            nonlocal rejected_count
            rejected_count += 1
            if keep:
                rejected.append(request)
            if telemetry is not None:
                telemetry.observe_rejected()
            if probe is not None:
                probe.on_rejected(now_s)
            if trace is not None:
                trace.add(now_s, "reject", request_index=request.index)

        def emit_abandoned(request: Request, now_s: float) -> None:
            nonlocal abandoned_count
            abandoned_count += 1
            if keep:
                abandoned.append(request)
            if telemetry is not None:
                telemetry.observe_abandoned()
            if probe is not None:
                probe.on_abandoned(now_s)
            if trace is not None:
                trace.add(now_s, "abandon", request_index=request.index)

        immediate = self.mode == "immediate"
        index = LeastLoadedIndex(self.devices) if immediate and self.indexed else None
        cursor = 0  # immediate-mode dispatch count, for round_robin

        # Governed sprinting: an unlimited governor (or none) takes the
        # ungoverned code path untouched, so those runs stay bit-identical.
        governor = self.governor
        governed = governor is not None and not governor.is_unlimited

        # Central-queue state.  The queue heap orders waiting requests by
        # the discipline key; ``waiting`` maps a live entry's token to its
        # request, and is the source of truth for queue membership (entries
        # for dispatched or abandoned requests are skipped lazily).  Every
        # device enters the idle heap through a DEVICE_FREE event at its
        # *actual* busy-until time (0.0 for a fresh device, so a fresh
        # fleet is all-idle before the first arrival; a device carrying
        # serving history only becomes assignable once it really frees).
        queue: list[tuple[float, int, Request]] = []
        waiting: dict[int, Request] = {}
        idle: list[tuple[int, int]] = []
        if not immediate:
            for pos, device in enumerate(self.devices):
                events.append(
                    (device.busy_until_s, _DEVICE_FREE, next(seq), pos)
                )
        heapq.heapify(events)
        arrival_stream = iter(ordered)
        next_arrival = next(arrival_stream, None)
        if next_arrival is not None:
            heapq.heappush(
                events, (next_arrival.arrival_s, _ARRIVAL, next(seq), next_arrival)
            )
        edf = self.discipline == "edf"

        def push_breaker_reset() -> None:
            """Schedule the recovery instant of any breaker trip that just fired.

            Drained in a loop: a hierarchical cascade governor
            (:mod:`repro.traffic.topology`) can trip breakers at several
            levels on one acquire, each with its own recovery instant.
            """
            while (reset_at := governor.pop_pending_reset()) is not None:
                heapq.heappush(events, (reset_at, _BREAKER_RESET, next(seq), None))

        def execute_governed(
            device: SprintDevice, request: Request, start_s: float, now_s: float
        ) -> ServedRequest:
            """The grant handshake: acquire before sprinting, never leak budget.

            A granted request that ends up not sprinting (the device's own
            thermal reservoir was empty) returns its grant immediately;
            a sprinting request holds it until its completion instant.
            """
            trips_before = governor.breaker_trips if observing else 0
            grant = governor.acquire(now_s)
            push_breaker_reset()
            if probe is not None:
                probe.on_grant(now_s, grant)
                if grant:
                    probe.on_in_flight_sprints(now_s, governor.active_grants)
            if trace is not None:
                trace.add(
                    now_s,
                    "grant" if grant else "deny",
                    request_index=request.index,
                    device_id=device.device_id,
                    label=device.label,
                )
            if observing and governor.breaker_trips > trips_before:
                if probe is not None:
                    probe.on_breaker_trip(now_s)
                if trace is not None:
                    trace.add(now_s, "trip", detail=governor.active_excess_draw_w)
            if immediate:
                outcome = device.serve(request, allow_sprint=grant)
            else:
                outcome = device.execute(request, start_s=start_s, allow_sprint=grant)
            if grant:
                if outcome.sprinted:
                    heapq.heappush(
                        events,
                        (outcome.completed_at_s, _GRANT_RELEASE, next(seq), None),
                    )
                else:
                    governor.release(now_s, used=False)
                    if probe is not None:
                        probe.on_in_flight_sprints(now_s, governor.active_grants)
                    if trace is not None:
                        trace.add(
                            now_s,
                            "release",
                            request_index=request.index,
                            device_id=device.device_id,
                            detail=0.0,
                            label=device.label,
                        )
            return outcome

        def start(request: Request, pos: int, now_s: float) -> None:
            device = self.devices[pos]
            if trace is not None:
                trace.add(
                    now_s,
                    "dispatch",
                    request_index=request.index,
                    device_id=pos,
                    label=device.label,
                )
            if governed and device.sprint_enabled:
                emit_served(execute_governed(device, request, now_s, now_s))
            else:
                emit_served(device.execute(request, start_s=now_s))
            heapq.heappush(
                events, (device.busy_until_s, _DEVICE_FREE, next(seq), pos)
            )

        def pop_queued() -> Request | None:
            while queue:
                _, token, request = heapq.heappop(queue)
                if token in waiting:
                    del waiting[token]
                    return request
            return None

        last_s = 0.0
        while events:
            now_s, kind, _, payload = heapq.heappop(events)
            last_s = now_s

            if kind == _ARRIVAL:
                request = payload
                next_arrival = next(arrival_stream, None)
                if next_arrival is not None:
                    heapq.heappush(
                        events,
                        (next_arrival.arrival_s, _ARRIVAL, next(seq), next_arrival),
                    )
                if probe is not None:
                    probe.on_arrival(now_s)
                if trace is not None:
                    trace.add(now_s, "arrival", request_index=request.index)
                if immediate:
                    if index is not None:
                        pos = index.pick(request.arrival_s)
                    else:
                        pos = self.dispatch(self.devices, request, rng, cursor)
                    cursor += 1
                    device = self.devices[pos]
                    if trace is not None:
                        trace.add(
                            now_s,
                            "dispatch",
                            request_index=request.index,
                            device_id=pos,
                            label=device.label,
                        )
                    if governed and device.sprint_enabled:
                        emit_served(
                            execute_governed(device, request, now_s, now_s)
                        )
                    else:
                        emit_served(device.serve(request))
                    if index is not None:
                        index.update(pos)
                elif idle:
                    _, pos = heapq.heappop(idle)
                    start(request, pos, now_s)
                elif (
                    self.queue_bound is not None
                    and len(waiting) >= self.queue_bound
                ):
                    emit_rejected(request, now_s)
                else:
                    token = next(seq)
                    key = request.deadline_at_s if edf else float(token)
                    heapq.heappush(queue, (key, token, request))
                    waiting[token] = request
                    if probe is not None:
                        probe.on_queue_depth(now_s, len(waiting))
                    if request.deadline_s is not None:
                        heapq.heappush(
                            events,
                            (request.deadline_at_s, _DEADLINE, next(seq), token),
                        )

            elif kind == _DEVICE_FREE:
                pos = payload
                request = pop_queued()
                if request is not None:
                    if probe is not None:
                        probe.on_queue_depth(now_s, len(waiting))
                    start(request, pos, now_s)
                else:
                    heapq.heappush(
                        idle, (self.devices[pos].requests_served, pos)
                    )

            elif kind == _GRANT_RELEASE:
                governor.release(now_s)
                if probe is not None:
                    probe.on_in_flight_sprints(now_s, governor.active_grants)
                if trace is not None:
                    trace.add(now_s, "release")

            elif kind == _BREAKER_RESET:
                governor.on_breaker_reset(now_s)

            else:  # _DEADLINE
                token = payload
                request = waiting.pop(token, None)
                if request is not None:
                    if probe is not None:
                        probe.on_queue_depth(now_s, len(waiting))
                    emit_abandoned(request, now_s)

        if keep and not observing:
            served_count = len(served)
        return EngineResult(
            outcomes=ServedColumns.from_served(served),
            rejected=tuple(rejected),
            abandoned=tuple(abandoned),
            governor_stats=governor.finalize(last_s) if governed else None,
            final_time_s=last_s,
            served_count=served_count,
            rejected_count=rejected_count,
            abandoned_count=abandoned_count,
        )

    def run_blocks(self, blocks, rng: np.random.Generator) -> EngineResult:
        """Process a stream of :class:`~repro.traffic.request.RequestBlock`s.

        The streaming counterpart of :meth:`run`: blocks must be globally
        time-ordered (as :func:`~repro.traffic.request.generate_request_blocks`
        emits them).  Under ``execution="batched"`` on a supported
        configuration the columns feed the fast cores directly — with
        ``keep_samples=False`` (and no probe or trace holding per-request
        references) peak memory is one chunk regardless of horizon.  Any
        other configuration materialises the requests and takes the exact
        loop (O(n) requests in memory), so results are bit-identical in
        every case.
        """
        if self._use_fast_path():
            from repro.traffic.fastpath import run_batched

            return run_batched(self, blocks, rng)
        requests = [request for block in blocks for request in block.to_requests()]
        return self.run(requests, rng)
