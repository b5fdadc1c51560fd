"""Hierarchical fleet topology: device → rack → row → datacenter budgets.

The paper's capacitance argument nests.  One chip's sprints share a heat
reservoir; one rack's sprints share a provisioned supply (the PR 3
governor); and a real datacenter stacks more of the same — each rack hangs
off a row-level busway, each row off the datacenter feed, and every level
has its own budget and its own breaker.  This module is that tree:

* :class:`TopologySpec` — a frozen devices → racks → rows → datacenter
  description.  Each node carries a
  :class:`~repro.traffic.governor.GovernorSpec` (budget + breaker model);
  racks can also override per-device knobs (``sprint_enabled``,
  ``sprint_speedup``, ``thermal``), so heterogeneous fleets — sprint-capable
  racks next to many-core sustained-only ones — are one spec.
* :class:`CascadeGovernor` — the PR 3 acquire/release grant protocol
  generalised to parent delegation.  A sprint grant must clear *every*
  level over the device (rack, then row, then datacenter); the cascade
  probes all levels non-destructively (``would_deny``) before committing
  the grant at all of them, so a parent-level refusal never leaves a child
  holding a phantom grant, and each blocking level owns its denial in its
  own ledger.
* :class:`TopologyStats` — the per-level ledger of a topology run: one
  :class:`~repro.traffic.governor.GovernorStats` per governed node plus
  per-level denial/trip rollups.
* The windowed slice machinery (:class:`SlicedGovernor`,
  :func:`apportion_slots`, :func:`slice_schedules`) that
  :mod:`repro.traffic.shard` uses to run racks in parallel: parent budgets
  are carved into per-rack slices that rebalance at conservative window
  barriers, in proportion to each rack's offered sprint demand.

Usage::

    >>> from repro.traffic.topology import TopologySpec
    >>> from repro.traffic.governor import GovernorSpec
    >>> topo = TopologySpec.uniform(
    ...     n_rows=2, racks_per_row=2, devices_per_rack=4,
    ...     rack_governor=GovernorSpec.greedy(2),
    ...     row_governor=GovernorSpec.greedy(3),
    ... )
    >>> topo.total_devices
    16
    >>> topo.rack_paths
    ('row0/rack0', 'row0/rack1', 'row1/rack0', 'row1/rack1')
    >>> topo.device_labels()[:2]
    ('row0/rack0/dev0', 'row0/rack0/dev1')
    >>> TopologySpec.flat(8).is_flat
    True
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.thermal_backend import ThermalSpec
from repro.traffic.governor import GovernorSpec, GovernorStats, SprintGovernor

__all__ = [
    "LEVELS",
    "TOPOLOGY_DISPATCH",
    "CascadeGovernor",
    "RackSpec",
    "RowSpec",
    "SlicedGovernor",
    "TopologySpec",
    "TopologyStats",
    "apportion_slots",
    "merge_governor_stats",
    "slice_schedules",
]

#: Budget levels of the tree, leaf to root.
LEVELS = ("rack", "row", "datacenter")

#: Rack-selection policies a topology fleet can dispatch with.
#: ``rack_round_robin`` stripes arrivals across racks in proportion to
#: their device counts; ``least_loaded_rack`` weights each rack by its
#: estimated free capacity in the window (offered work drained at the
#: rack's sustained rate) with a preference for racks that still have
#: sprint/budget headroom.
TOPOLOGY_DISPATCH = ("rack_round_robin", "least_loaded_rack")

#: Parent-level governor policies whose capacity can be carved into exact
#: per-rack slices (slots or watts).  ``token_bucket`` budgets are
#: rate-based and do not partition exactly across shards, so they are
#: rejected at row/datacenter level.
_SLICEABLE = ("unlimited", "greedy", "cooperative_threshold")


@dataclass(frozen=True)
class RackSpec:
    """One rack: a device group under one rack-level budget.

    Device knobs default to ``None`` = inherit whatever the fleet-level
    call passes; explicit values override it, which is how heterogeneous
    fleets mix sprint-capable racks with many-core sustained-only ones.
    """

    n_devices: int
    governor: GovernorSpec = field(default_factory=GovernorSpec)
    sprint_enabled: bool | None = None
    sprint_speedup: float | None = None
    thermal: ThermalSpec | str | None = None

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError("a rack needs at least one device")
        if isinstance(self.thermal, str):
            object.__setattr__(self, "thermal", ThermalSpec(backend=self.thermal))

    def device_knobs(
        self,
        sprint_enabled: bool,
        sprint_speedup: float,
        thermal: ThermalSpec,
    ) -> tuple[bool, float, ThermalSpec]:
        """Resolve this rack's device knobs against the fleet defaults."""
        return (
            sprint_enabled if self.sprint_enabled is None else self.sprint_enabled,
            sprint_speedup if self.sprint_speedup is None else self.sprint_speedup,
            thermal if self.thermal is None else self.thermal,
        )


@dataclass(frozen=True)
class RowSpec:
    """One row: racks sharing a row-level busway budget."""

    racks: tuple[RackSpec, ...]
    governor: GovernorSpec = field(default_factory=GovernorSpec)

    def __post_init__(self) -> None:
        if not self.racks:
            raise ValueError("a row needs at least one rack")
        if self.governor.policy not in _SLICEABLE:
            raise ValueError(
                f"row budgets must use one of {_SLICEABLE} — "
                f"{self.governor.policy!r} does not partition exactly "
                "across shards"
            )

    @property
    def n_devices(self) -> int:
        return sum(rack.n_devices for rack in self.racks)


@dataclass(frozen=True)
class TopologySpec:
    """The frozen tree: rows of racks under one datacenter budget.

    ``window_s`` is the conservative synchronisation window of a sharded
    run: parent (row/datacenter) budget slices are fixed within a window
    and rebalance at its boundary.  ``dispatch`` selects the rack-level
    dispatch policy (:data:`TOPOLOGY_DISPATCH`); devices within a rack are
    still dispatched by the fleet's own per-device policy.
    """

    rows: tuple[RowSpec, ...]
    governor: GovernorSpec = field(default_factory=GovernorSpec)
    window_s: float = 60.0
    dispatch: str = "least_loaded_rack"

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a topology needs at least one row")
        if not 0.0 < self.window_s < math.inf:
            raise ValueError("the synchronisation window must be positive and finite")
        if self.dispatch not in TOPOLOGY_DISPATCH:
            raise ValueError(
                f"unknown topology dispatch {self.dispatch!r}; "
                f"available: {TOPOLOGY_DISPATCH}"
            )
        if self.governor.policy not in _SLICEABLE:
            raise ValueError(
                f"datacenter budgets must use one of {_SLICEABLE} — "
                f"{self.governor.policy!r} does not partition exactly "
                "across shards"
            )

    # -- constructors -------------------------------------------------------------------

    @classmethod
    def flat(cls, n_devices: int, governor: GovernorSpec | str = "unlimited") -> "TopologySpec":
        """One row, one rack, no parent budgets — the regression-locked default.

        A flat topology is exactly the pre-topology fleet: the rack's
        governor is the fleet governor and no cascade or sharding engages.
        """
        if isinstance(governor, str):
            governor = GovernorSpec(policy=governor)
        return cls(rows=(RowSpec(racks=(RackSpec(n_devices, governor=governor),)),))

    @classmethod
    def uniform(
        cls,
        n_rows: int,
        racks_per_row: int,
        devices_per_rack: int,
        rack_governor: GovernorSpec | str = "unlimited",
        row_governor: GovernorSpec | str = "unlimited",
        datacenter_governor: GovernorSpec | str = "unlimited",
        window_s: float = 60.0,
        dispatch: str = "least_loaded_rack",
    ) -> "TopologySpec":
        """A homogeneous ``n_rows × racks_per_row × devices_per_rack`` tree."""
        if isinstance(rack_governor, str):
            rack_governor = GovernorSpec(policy=rack_governor)
        if isinstance(row_governor, str):
            row_governor = GovernorSpec(policy=row_governor)
        if isinstance(datacenter_governor, str):
            datacenter_governor = GovernorSpec(policy=datacenter_governor)
        row = RowSpec(
            racks=tuple(
                RackSpec(devices_per_rack, governor=rack_governor)
                for _ in range(racks_per_row)
            ),
            governor=row_governor,
        )
        return cls(
            rows=tuple(row for _ in range(n_rows)),
            governor=datacenter_governor,
            window_s=window_s,
            dispatch=dispatch,
        )

    # -- shape --------------------------------------------------------------------------

    @property
    def total_devices(self) -> int:
        return sum(row.n_devices for row in self.rows)

    @property
    def n_racks(self) -> int:
        return sum(len(row.racks) for row in self.rows)

    @property
    def is_flat(self) -> bool:
        """True when the tree is one ungoverned-parents rack — no cascade.

        Flat topologies run on the plain single-engine path bit-identically
        to a fleet constructed without a topology (the rack's governor
        becomes the fleet governor).
        """
        return (
            len(self.rows) == 1
            and len(self.rows[0].racks) == 1
            and self.rows[0].governor.policy == "unlimited"
            and self.governor.policy == "unlimited"
        )

    def iter_racks(self) -> Iterator[tuple[int, int, str, RackSpec]]:
        """Yield ``(row_index, rack_index_in_row, path, rack)`` in tree order."""
        for r, row in enumerate(self.rows):
            for k, rack in enumerate(row.racks):
                yield r, k, f"row{r}/rack{k}", rack

    @property
    def rack_paths(self) -> tuple[str, ...]:
        """Stable hierarchical rack ids, in tree order."""
        return tuple(path for _, _, path, _ in self.iter_racks())

    def device_labels(self) -> tuple[str, ...]:
        """Stable hierarchical device ids (``row0/rack2/dev5``), tree order."""
        labels: list[str] = []
        for _, _, path, rack in self.iter_racks():
            labels.extend(f"{path}/dev{i}" for i in range(rack.n_devices))
        return tuple(labels)

    def row_of_rack(self) -> tuple[int, ...]:
        """Row index of each rack, in tree order."""
        return tuple(r for r, _, _, _ in self.iter_racks())

    def validate_devices(self, n_devices: int | None) -> int:
        """Check a fleet-level device count against the tree, return the total."""
        total = self.total_devices
        if n_devices is not None and n_devices != total:
            raise ValueError(
                f"n_devices={n_devices} does not match the topology's "
                f"{total} devices; omit n_devices or fix the spec"
            )
        return total


# -- grant cascade ---------------------------------------------------------------------


class CascadeGovernor(SprintGovernor):
    """The grant protocol generalised to parent delegation.

    One cascade fronts a chain of live governors leaf → root (rack, row,
    datacenter).  :meth:`acquire` first probes every level with
    ``would_deny`` — a non-binding check — and only when all levels are
    clear commits the grant at each of them, so the levels' ledgers never
    see a half-granted sprint.  When any level blocks, each blocking level
    records the denial in its own ledger (that is the per-level accounting
    :class:`TopologyStats` reports) and the cascade denies.

    Releases and breaker resets fan out to every level; pending breaker
    resets from *all* levels queue up and pop earliest-first (the engine
    drains them in a loop).  The cascade is itself a
    :class:`~repro.traffic.governor.SprintGovernor`, so the serving engine
    drives it exactly like a flat one.
    """

    name = "cascade"

    def __init__(self, levels: Sequence[tuple[str, SprintGovernor]]) -> None:
        if not levels:
            raise ValueError("a cascade needs at least one level")
        self.levels = tuple(levels)
        self._governors = tuple(governor for _, governor in self.levels)
        self._resets: list[float] = []
        excess = max(g.excess_power_w for _, g in self.levels)
        super().__init__(excess)

    @property
    def is_unlimited(self) -> bool:  # type: ignore[override]
        """The engine bypasses the cascade only when every level would."""
        return all(g.is_unlimited for _, g in self.levels)

    @property
    def supports_batched_replay(self) -> bool:  # type: ignore[override]
        """A cascade replays exactly only when every level does."""
        return all(
            getattr(g, "supports_batched_replay", False) for _, g in self.levels
        )

    def reset(self) -> None:
        super().reset()
        self._resets = []
        for _, governor in self.levels:
            governor.reset()

    # -- the protocol -------------------------------------------------------------------

    def acquire(self, now_s: float) -> bool:
        # Each level's saturation is evaluated once before the decision
        # (the probe) and once after it; the cascade's own at-cap
        # bookkeeping reuses the levels' answers instead of re-probing.
        governors = self._governors
        blocked = [g.would_deny(now_s) for g in governors]
        if True in blocked:
            for governor, denies in zip(governors, blocked):
                if denies:
                    governor._deny_blocked(now_s)
            self._denied += 1
            self._update_cap(now_s, True)
            return False
        saturated = False
        for governor in governors:
            if governor._grant_cleared(now_s):
                saturated = True
            self._collect_reset(governor)
        self._record_grant(now_s)
        self._update_cap(now_s, saturated)
        return True

    def release(self, now_s: float, used: bool = True) -> None:
        saturated = False
        for governor in self._governors:
            governor._return_grant(now_s, used)
            if governor._settle(now_s):
                saturated = True
        self._return_grant(now_s, used)
        self._update_cap(now_s, saturated)

    def pop_pending_reset(self) -> float | None:
        if self._resets:
            return heapq.heappop(self._resets)
        return None

    def on_breaker_reset(self, now_s: float) -> None:
        saturated = [governor._settle(now_s) for governor in self._governors]
        self._update_cap(now_s, True in saturated)

    @property
    def breaker_trips(self) -> int:  # type: ignore[override]
        """Breaker trips across every level of the chain."""
        return sum(g.breaker_trips for _, g in self.levels)

    def finalize(self, end_s: float) -> GovernorStats:
        """The cascade's own aggregate ledger (per-level stats via
        :meth:`finalize_levels`)."""
        trips: list[float] = []
        for _, governor in self.levels:
            governor._close(end_s)
            trips.extend(governor._trips)
        self._close(end_s)
        return GovernorStats(
            policy=self.name,
            excess_power_w=self.excess_power_w,
            sprints_granted=self._granted,
            sprints_denied=self._denied,
            grants_released_unused=self._released_unused,
            breaker_trips=len(trips),
            trip_times_s=tuple(sorted(trips)),
            time_at_cap_s=self._time_at_cap,
            peak_concurrent_sprints=self._peak_active,
        )

    def finalize_levels(self, end_s: float) -> dict[str, GovernorStats]:
        """Per-level ledgers keyed by level name, closed at ``end_s``."""
        return {name: governor.finalize(end_s) for name, governor in self.levels}

    # -- internals ----------------------------------------------------------------------

    def _collect_reset(self, governor: SprintGovernor) -> None:
        while (at := governor.pop_pending_reset()) is not None:
            heapq.heappush(self._resets, at)

    def _decide(self, now_s: float) -> bool:  # pragma: no cover - acquire overridden
        return not self._saturated(now_s)

    def _saturated(self, now_s: float) -> bool:
        return any(g.would_deny(now_s) for _, g in self.levels)


# -- windowed parent slices ------------------------------------------------------------


class SlicedGovernor(SprintGovernor):
    """One shard's per-window slice of a parent (row/datacenter) budget.

    A sharded run cannot let every rack contend on one live parent
    governor — racks simulate concurrently, out of global event order.
    Instead the parent's capacity is carved into per-rack slices that are
    constant within each synchronisation window and rebalance at the
    barriers (:func:`slice_schedules`).  A slice enforces, per window,
    either a concurrency cap (``slot_caps``, from a greedy parent) or a
    projected-draw threshold (``headroom_caps_w``, from a cooperative
    parent), plus the parent breaker scaled to the slice's share
    (``trip_caps_w``).  Merging every slice's ledger back
    (:func:`merge_governor_stats`) yields the parent level's accounting.
    """

    def __init__(
        self,
        name: str,
        excess_power_w: float,
        window_s: float,
        slot_caps: np.ndarray | None = None,
        headroom_caps_w: np.ndarray | None = None,
        trip_caps_w: np.ndarray | None = None,
        penalty_s: float = 0.0,
    ) -> None:
        if slot_caps is None and headroom_caps_w is None:
            raise ValueError("a slice needs slot caps or headroom caps")
        self.name = name
        self.window_s = window_s
        self.slot_caps = slot_caps
        self.headroom_caps_w = headroom_caps_w
        self.trip_caps_w = trip_caps_w
        # Plain-number mirrors of the per-window caps (the arrays stay the
        # public record), and the last instant -> window lookup.
        self._slots = None if slot_caps is None else np.asarray(slot_caps).tolist()
        self._headroom = None if headroom_caps_w is None else np.asarray(headroom_caps_w).tolist()
        self._trips_w = None if trip_caps_w is None else np.asarray(trip_caps_w).tolist()
        self._last_window = len(self._slots if self._slots is not None else self._headroom) - 1
        self._window_at = float("nan")
        self._window_index = 0
        super().__init__(excess_power_w, trip_headroom_w=None, penalty_s=penalty_s)

    def _window(self, now_s: float) -> int:
        # Memoised on the last instant: one grant decision asks for the
        # same window several times.
        if now_s != self._window_at:
            window = int(now_s // self.window_s)
            self._window_at = now_s
            self._window_index = min(self._last_window, window) if window > 0 else 0
        return self._window_index

    def _record_grant(self, now_s: float) -> None:
        if self._trips_w is not None:
            # The slice's share of the parent breaker this window; the base
            # trip check then fires when the slice's own draw exceeds it.
            cap = self._trips_w[self._window(now_s)]
            self.trip_headroom_w = cap if cap > 0 else None
        super()._record_grant(now_s)

    def _decide(self, now_s: float) -> bool:
        return not self._saturated(now_s)

    def _saturated(self, now_s: float) -> bool:
        if now_s < self._penalty_until:
            return True
        w = self._window(now_s)
        if self._slots is not None and self._active >= self._slots[w]:
            return True
        if self._headroom is not None:
            projected = (self._active + 1) * self.excess_power_w
            if projected > self._headroom[w]:
                return True
        return False


def apportion_slots(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` integer slots by ``weights``, conserving the total.

    Largest-remainder apportionment with index-order tie-breaking: exact,
    deterministic, and never over-allocates — ``result.sum() == total``
    whenever any weight is positive, so per-window slices can never grant
    more concurrent sprints than the parent budget holds.

    >>> apportion_slots(5, np.array([1.0, 1.0, 1.0]))
    array([2, 2, 1])
    >>> apportion_slots(4, np.array([0.0, 0.0]))
    array([2, 2])
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        return np.zeros(0, dtype=np.int64)
    if total <= 0:
        return np.zeros(weights.size, dtype=np.int64)
    mass = weights.sum()
    if mass <= 0:
        weights = np.ones_like(weights)
        mass = weights.sum()
    exact = total * weights / mass
    base = np.floor(exact).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = exact - base
        # Stable largest-remainder: ties go to the lower index.
        order = np.lexsort((np.arange(weights.size), -remainders))
        base[order[:leftover]] += 1
    return base


def slice_schedules(
    topology: TopologySpec,
    config: SystemConfig,
    demand: np.ndarray,
) -> tuple[list[SprintGovernor | None], list[SprintGovernor | None]]:
    """Build each rack's row- and datacenter-slice governors.

    ``demand`` is the per-window offered sprint demand of every rack —
    shape ``(n_windows, n_racks)``, typically the count of arrivals
    assigned to sprint-capable racks (:mod:`repro.traffic.shard` computes
    it during rack dispatch).  For every window the parent capacity is
    divided among its children in proportion to their demand: greedy slots
    by largest-remainder apportionment (exactly conserving the parent
    cap), cooperative headroom watts by direct proportion.  Racks under an
    unlimited parent get ``None`` for that level.
    """
    demand = np.asarray(demand, dtype=float)
    if demand.ndim != 2 or demand.shape[1] != topology.n_racks:
        raise ValueError("demand must be (n_windows, n_racks)")
    n_windows = demand.shape[0]
    excess_w = max(0.0, config.sprint_power_w - config.sustainable_power_w)
    row_of = np.array(topology.row_of_rack())
    racks = list(topology.iter_racks())

    def shares(members: np.ndarray) -> np.ndarray:
        """Per-window demand fractions over one parent's children."""
        sub = demand[:, members]
        mass = sub.sum(axis=1, keepdims=True)
        flat = np.full_like(sub, 1.0 / max(1, sub.shape[1]))
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(mass > 0, sub / np.where(mass > 0, mass, 1.0), flat)
        return frac

    def build(
        spec: GovernorSpec,
        name: str,
        member_share: np.ndarray,
        member_demand: np.ndarray,
        members: np.ndarray,
    ) -> list[SprintGovernor | None]:
        if spec.policy == "unlimited":
            return [None] * members.size
        slices: list[SprintGovernor | None] = []
        if spec.policy == "greedy":
            caps = np.vstack(
                [
                    apportion_slots(spec.max_concurrent_sprints, member_demand[w])
                    for w in range(n_windows)
                ]
            )
        for j in range(members.size):
            trip = None
            if spec.trip_headroom_w is not None:
                trip = spec.trip_headroom_w * member_share[:, j]
            if spec.policy == "greedy":
                slices.append(
                    SlicedGovernor(
                        name,
                        excess_w,
                        topology.window_s,
                        slot_caps=caps[:, j],
                        trip_caps_w=trip,
                        penalty_s=spec.penalty_s,
                    )
                )
            else:  # cooperative_threshold
                headroom = spec.trip_headroom_w * member_share[:, j]
                slices.append(
                    SlicedGovernor(
                        name,
                        excess_w,
                        topology.window_s,
                        headroom_caps_w=headroom,
                        trip_caps_w=headroom,
                        penalty_s=spec.penalty_s,
                    )
                )
        return slices

    row_slices: list[SprintGovernor | None] = [None] * topology.n_racks
    for r, row in enumerate(topology.rows):
        members = np.flatnonzero(row_of == r)
        built = build(
            row.governor, "row", shares(members), demand[:, members], members
        )
        for j, g in zip(members, built):
            row_slices[j] = g

    all_members = np.arange(topology.n_racks)
    dc_slices = build(
        topology.governor,
        "datacenter",
        shares(all_members),
        demand,
        all_members,
    )
    assert len(racks) == topology.n_racks
    return row_slices, dc_slices


# -- the ledger ------------------------------------------------------------------------


def merge_governor_stats(
    stats: Sequence[GovernorStats], policy: str | None = None
) -> GovernorStats:
    """Combine per-shard ledgers of one budget level into a single view.

    Counters and trips add; trip instants merge in time order.
    ``peak_concurrent_sprints`` sums the shard peaks — an upper bound on
    the level's true simultaneous peak, since shard peaks need not
    coincide — and ``time_at_cap_s`` takes the maximum over shards (the
    most-saturated slice's span, a lower bound on the level's own).
    """
    if not stats:
        raise ValueError("nothing to merge")
    return GovernorStats(
        policy=policy if policy is not None else stats[0].policy,
        excess_power_w=max(s.excess_power_w for s in stats),
        sprints_granted=sum(s.sprints_granted for s in stats),
        sprints_denied=sum(s.sprints_denied for s in stats),
        grants_released_unused=sum(s.grants_released_unused for s in stats),
        breaker_trips=sum(s.breaker_trips for s in stats),
        trip_times_s=tuple(sorted(t for s in stats for t in s.trip_times_s)),
        time_at_cap_s=max(s.time_at_cap_s for s in stats),
        peak_concurrent_sprints=sum(s.peak_concurrent_sprints for s in stats),
    )


@dataclass(frozen=True)
class TopologyStats:
    """Per-level grant ledger of one topology run.

    ``racks``/``rows`` align with the spec's tree order (``rack_paths`` /
    row index); entries are ``None`` where that node's budget is
    unlimited (nothing to account).  ``overall`` is the cascade-level
    aggregate — one entry per attempted sprint, however many levels it
    had to clear — and is what a topology run reports as its
    :attr:`~repro.traffic.fleet.FleetResult.governor_stats`.
    """

    overall: GovernorStats
    racks: tuple[GovernorStats | None, ...]
    rows: tuple[GovernorStats | None, ...]
    datacenter: GovernorStats | None
    rack_paths: tuple[str, ...]

    def denied_by_level(self) -> dict[str, int]:
        """Sprint denials attributable to each level's budget."""
        return {
            "rack": sum(s.sprints_denied for s in self.racks if s is not None),
            "row": sum(s.sprints_denied for s in self.rows if s is not None),
            "datacenter": (
                0 if self.datacenter is None else self.datacenter.sprints_denied
            ),
        }

    def trips_by_level(self) -> dict[str, int]:
        """Breaker trips at each level."""
        return {
            "rack": sum(s.breaker_trips for s in self.racks if s is not None),
            "row": sum(s.breaker_trips for s in self.rows if s is not None),
            "datacenter": (
                0 if self.datacenter is None else self.datacenter.breaker_trips
            ),
        }

    def for_rack(self, path: str) -> GovernorStats | None:
        """One rack's ledger by hierarchical path."""
        return self.racks[self.rack_paths.index(path)]


def build_cascade(
    topology: TopologySpec,
    config: SystemConfig,
    rack_index: int,
    row_slice: SprintGovernor | None,
    dc_slice: SprintGovernor | None,
) -> CascadeGovernor:
    """One rack's grant chain: its own governor plus its parent slices."""
    rack = list(topology.iter_racks())[rack_index][3]
    levels: list[tuple[str, SprintGovernor]] = [
        ("rack", rack.governor.build(config))
    ]
    if row_slice is not None:
        levels.append(("row", row_slice))
    if dc_slice is not None:
        levels.append(("datacenter", dc_slice))
    return CascadeGovernor(levels)
