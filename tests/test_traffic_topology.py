"""Hierarchical topologies: spec validation, the grant cascade, sharding.

The topology layer makes three load-bearing promises this suite locks:

* **Spec honesty** — invalid trees (token-bucket parents, device-count
  mismatches, non-positive windows) are rejected at construction, not
  discovered mid-run.
* **Cascade accounting** — a sprint clears every ancestor budget or
  none; denials and breaker trips are attributed to the level whose
  budget refused, probes never pollute the counters of levels that
  would have granted, and no grant survives the end of a run.
* **Shard determinism** — the flat degenerate case is bit-identical to
  running without a topology, and worker count never changes results.
"""

from __future__ import annotations

import copy
import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.traffic import (
    FleetSimulator,
    GammaService,
    GovernorSpec,
    PoissonArrivals,
    RackSpec,
    ReplicationPlan,
    RowSpec,
    Scenario,
    SweepSpec,
    TelemetrySpec,
    TopologySpec,
    generate_requests,
    run_replications,
)
from repro.traffic.sweep import expand_cells, run_cell
from repro.traffic.governor import (
    CooperativeThresholdGovernor,
    GreedyGovernor,
    SprintGovernor,
    TokenBucketGovernor,
)
from repro.traffic.topology import (
    CascadeGovernor,
    SlicedGovernor,
    apportion_slots,
    slice_schedules,
)

CONFIG = SystemConfig.paper_default()
EXCESS_W = CONFIG.sprint_power_w - CONFIG.sustainable_power_w


def poisson_requests(n=200, rate_hz=2.0, seed=11, cv=0.5):
    return generate_requests(
        PoissonArrivals(rate_hz), GammaService(5.0, cv=cv), n, seed=seed
    )


def summary_dict(result):
    return result.summary().to_dict()


class TestSpecValidation:
    def test_token_bucket_rejected_at_row(self):
        with pytest.raises(ValueError, match="does not partition"):
            RowSpec(
                racks=(RackSpec(n_devices=2),),
                governor=GovernorSpec.token_bucket(1.0, 4),
            )

    def test_token_bucket_rejected_at_datacenter(self):
        with pytest.raises(ValueError, match="does not partition"):
            TopologySpec(
                rows=(RowSpec(racks=(RackSpec(n_devices=2),), governor=GovernorSpec()),),
                governor=GovernorSpec.token_bucket(1.0, 4),
            )

    def test_token_bucket_allowed_at_rack(self):
        rack = RackSpec(n_devices=2, governor=GovernorSpec.token_bucket(1.0, 4))
        assert rack.governor.policy == "token_bucket"

    def test_device_count_mismatch(self):
        topo = TopologySpec.uniform(2, 2, 4)
        assert topo.validate_devices(None) == 16
        assert topo.validate_devices(16) == 16
        with pytest.raises(ValueError, match="16"):
            topo.validate_devices(8)

    def test_window_and_dispatch_validation(self):
        rows = (RowSpec(racks=(RackSpec(n_devices=2),), governor=GovernorSpec()),)
        with pytest.raises(ValueError, match="window"):
            TopologySpec(rows=rows, governor=GovernorSpec(), window_s=0.0)
        with pytest.raises(ValueError, match="dispatch"):
            TopologySpec(rows=rows, governor=GovernorSpec(), dispatch="hottest_rack")

    def test_paths_and_labels(self):
        topo = TopologySpec.uniform(2, 2, 2)
        assert topo.rack_paths == (
            "row0/rack0",
            "row0/rack1",
            "row1/rack0",
            "row1/rack1",
        )
        labels = topo.device_labels()
        assert labels[0] == "row0/rack0/dev0"
        assert labels[-1] == "row1/rack1/dev1"
        assert len(labels) == topo.total_devices == 8

    def test_fleet_rejects_second_governor(self):
        topo = TopologySpec.flat(4)
        with pytest.raises(ValueError, match="governor"):
            FleetSimulator(CONFIG, topology=topo, governor=GovernorSpec.greedy(2))


class TestApportionment:
    def test_slots_sum_and_tie_break(self):
        assert apportion_slots(5, [1, 1, 1]).tolist() == [2, 2, 1]
        assert apportion_slots(4, [0, 0]).tolist() == [2, 2]
        assert apportion_slots(3, [2, 1]).tolist() == [2, 1]

    def test_slots_conserve_total(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            weights = rng.integers(0, 10, size=rng.integers(1, 6))
            total = int(rng.integers(0, 20))
            slots = apportion_slots(total, weights)
            assert slots.sum() == total
            assert (slots >= 0).all()

    def test_greedy_slices_conserve_parent_cap(self):
        topo = TopologySpec.uniform(
            1, 3, 2, row_governor=GovernorSpec.greedy(5), window_s=10.0
        )
        demand = np.array([[4, 1, 0], [0, 0, 0], [2, 2, 2]])
        row_slices, dc_slices = slice_schedules(topo, CONFIG, demand)
        assert list(dc_slices) == [None] * 3  # unlimited datacenter: no slice
        for rack_slice in row_slices:
            assert rack_slice is not None
        for w in range(3):
            granted = sum(s.slot_caps[w] for s in row_slices)
            assert granted == 5


class TestCascadeAccounting:
    def test_probe_failure_does_not_pollute_granting_levels(self):
        rack = GovernorSpec.greedy(4).build(CONFIG)
        row = GovernorSpec.greedy(1).build(CONFIG)
        cascade = CascadeGovernor([("rack", rack), ("row", row)])
        assert cascade.acquire(0.0)
        # Rack has 3 free slots; the row is exhausted, so the cascade
        # must refuse without touching the rack's grant counters.
        assert not cascade.acquire(1.0)
        assert rack.active_grants == 1
        assert row.active_grants == 1
        cascade.release(2.0)
        rack_stats = rack.finalize(10.0)
        row_stats = row.finalize(10.0)
        assert rack_stats.sprints_granted == 1
        assert rack_stats.sprints_denied == 0
        assert row_stats.sprints_denied == 1
        assert cascade.active_grants == 0

    def test_parent_exhausted_while_child_has_headroom(self):
        # Permissive racks under a row that allows one sprint total: the
        # denials land on the row's ledger, never the racks'.
        topo = TopologySpec.uniform(
            1, 2, 4,
            rack_governor=GovernorSpec.greedy(4),
            row_governor=GovernorSpec.greedy(1),
            window_s=30.0,
        )
        result = FleetSimulator(CONFIG, topology=topo).run(poisson_requests())
        denied = result.topology_stats.denied_by_level()
        assert denied["row"] > 0
        assert denied["rack"] == 0
        assert denied["datacenter"] == 0
        assert result.topology_stats.overall.sprints_denied == denied["row"]

    def test_row_breaker_trip_denies_descendants(self):
        topo = TopologySpec.uniform(
            1, 2, 4,
            rack_governor=GovernorSpec.greedy(4),
            row_governor=GovernorSpec.greedy(
                8, trip_headroom_w=3.5 * EXCESS_W, penalty_s=60.0
            ),
            window_s=30.0,
        )
        result = FleetSimulator(CONFIG, topology=topo).run(
            poisson_requests(rate_hz=3.0)
        )
        stats = result.topology_stats
        assert stats.trips_by_level()["row"] >= 1
        # Trips surface in the cascade aggregate and in penalty denials.
        assert stats.overall.breaker_trips >= 1
        assert stats.denied_by_level()["row"] > 0
        # Conservation still holds through the penalty windows.
        assert result.summary().offered_count == 200

    def test_no_leaked_grants_across_window_barriers(self):
        # A short window forces many budget-slice transitions; run_sharded
        # raises RuntimeError if any rack job ends with grants in flight.
        topo = TopologySpec.uniform(
            2, 2, 2,
            rack_governor=GovernorSpec.greedy(2),
            row_governor=GovernorSpec.cooperative(2.5 * EXCESS_W),
            window_s=5.0,
        )
        result = FleetSimulator(CONFIG, topology=topo).run(poisson_requests())
        assert result.summary().offered_count == 200

    def test_ledger_aligns_with_rack_paths(self):
        topo = TopologySpec.uniform(
            1, 2, 2, rack_governor=GovernorSpec.greedy(1), window_s=30.0
        )
        result = FleetSimulator(CONFIG, topology=topo).run(poisson_requests(n=60))
        stats = result.topology_stats
        assert stats.rack_paths == topo.rack_paths
        for path in topo.rack_paths:
            assert stats.for_rack(path) is not None
        # Ungoverned parents carry no ledger of their own.
        assert stats.rows == (None,)
        assert stats.datacenter is None


class TestShardDeterminism:
    def test_flat_topology_bit_identical_to_no_topology(self):
        requests = poisson_requests(n=120)
        plain = FleetSimulator(CONFIG, n_devices=8, governor=GovernorSpec.greedy(3))
        flat = FleetSimulator(
            CONFIG,
            topology=TopologySpec.flat(8, governor=GovernorSpec.greedy(3)),
        )
        a = plain.run(requests, seed=5)
        b = flat.run(requests, seed=5)
        assert [s.latency_s for s in a.served] == [s.latency_s for s in b.served]
        assert summary_dict(a) == summary_dict(b)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_is_invisible(self, workers):
        topo = TopologySpec.uniform(
            2, 2, 3,
            rack_governor=GovernorSpec.greedy(2),
            row_governor=GovernorSpec.greedy(3),
            window_s=20.0,
        )
        requests = poisson_requests()
        serial = FleetSimulator(CONFIG, topology=topo).run(requests, seed=9)
        fanned = FleetSimulator(CONFIG, topology=topo, shard_workers=workers).run(
            requests, seed=9
        )
        assert [s.request.index for s in serial.served] == [
            s.request.index for s in fanned.served
        ]
        assert [s.latency_s for s in serial.served] == [
            s.latency_s for s in fanned.served
        ]
        assert summary_dict(serial) == summary_dict(fanned)

    def test_both_topology_dispatches_conserve(self):
        requests = poisson_requests(n=100)
        for dispatch in ("rack_round_robin", "least_loaded_rack"):
            topo = TopologySpec.uniform(
                1, 3, 2, window_s=15.0, dispatch=dispatch
            )
            result = FleetSimulator(CONFIG, topology=topo).run(requests)
            assert result.summary().offered_count == 100


class TestHierarchicalIdentity:
    def test_device_stats_carry_hierarchical_labels(self):
        topo = TopologySpec.uniform(2, 2, 2)
        result = FleetSimulator(CONFIG, topology=topo).run(poisson_requests(n=80))
        labels = [d.device_label for d in result.device_stats]
        assert labels == list(topo.device_labels())
        ids = [d.device_id for d in result.device_stats]
        assert ids == list(range(topo.total_devices))

    def test_flat_fleet_labels_default(self):
        result = FleetSimulator(CONFIG, n_devices=2).run(poisson_requests(n=10))
        assert [d.device_label for d in result.device_stats] == ["dev0", "dev1"]

    def test_trace_and_timeline_carry_shard_identity(self):
        topo = TopologySpec.uniform(
            1, 2, 2, rack_governor=GovernorSpec.greedy(1), window_s=30.0
        )
        fleet = FleetSimulator(
            CONFIG,
            topology=topo,
            telemetry=TelemetrySpec(timeline_cadence_s=30.0, trace_capacity=4096),
        )
        result = fleet.run(poisson_requests(n=60))
        trace_labels = {
            r.label for r in result.telemetry.trace.records if r.label
        }
        assert any(label.startswith("row0/rack0/") for label in trace_labels)
        assert any(label.startswith("row0/rack1/") for label in trace_labels)
        # Shard timelines merge to the racks' common prefix.
        assert result.telemetry.timeline.scope == "row0"


class TestHeterogeneousRacks:
    def test_sprint_disabled_rack_never_sprints(self):
        sprint_rack = RackSpec(n_devices=2, governor=GovernorSpec.greedy(2))
        manycore_rack = RackSpec(n_devices=2, sprint_enabled=False)
        topo = TopologySpec(
            rows=(
                RowSpec(racks=(sprint_rack, manycore_rack), governor=GovernorSpec()),
            ),
            governor=GovernorSpec(),
            window_s=30.0,
        )
        result = FleetSimulator(CONFIG, topology=topo).run(poisson_requests(n=120))
        sprinted_racks = {
            s.request.index: s.device_id for s in result.served if s.sprinted
        }
        # Devices 2 and 3 belong to the sprint-disabled rack.
        assert all(device_id < 2 for device_id in sprinted_racks.values())
        served_by_disabled = sum(
            d.requests_served for d in result.device_stats if d.device_id >= 2
        )
        assert served_by_disabled > 0  # it serves, it just never sprints

    def test_least_loaded_rack_prefers_sprint_capacity(self):
        # Equal-size racks, one sprint-capable: the planner's sprint
        # preference must route it at least an even share of traffic.
        topo = TopologySpec(
            rows=(
                RowSpec(
                    racks=(
                        RackSpec(n_devices=4),
                        RackSpec(n_devices=4, sprint_enabled=False),
                    ),
                    governor=GovernorSpec(),
                ),
            ),
            governor=GovernorSpec(),
            window_s=30.0,
            dispatch="least_loaded_rack",
        )
        result = FleetSimulator(CONFIG, topology=topo).run(poisson_requests(n=200))
        sprint_served = sum(
            d.requests_served for d in result.device_stats if d.device_id < 4
        )
        assert sprint_served >= 100


class TestGridAndExperiments:
    def test_sweep_topology_axis_collapses_redundant_cells(self):
        topo = TopologySpec.uniform(1, 2, 4, rack_governor=GovernorSpec.greedy(2))
        spec = SweepSpec(
            Scenario(
                arrivals=PoissonArrivals(0.5),
                service=GammaService(5.0, cv=0.5),
                n_requests=40,
                policy="round_robin",
            ),
            axes=(
                ("n_devices", (4, 8)),
                ("governor", (GovernorSpec(), GovernorSpec.greedy(2))),
                ("topology", (None, topo)),
            ),
        )
        cells = expand_cells(spec)
        flat = [c for c in cells if c.scenario.topology is None]
        hierarchical = [c for c in cells if c.scenario.topology is not None]
        # Flat cells keep the full size x governor grid; topology cells
        # take size and budgets from the spec, so those axes collapse.
        assert len(flat) == 4
        assert len(hierarchical) == 1
        assert hierarchical[0].scenario.n_devices == topo.total_devices
        assert hierarchical[0].scenario.governor == GovernorSpec()

    def test_sweep_topology_cell_runs(self):
        topo = TopologySpec.uniform(1, 2, 2, rack_governor=GovernorSpec.greedy(1))
        spec = SweepSpec(
            Scenario(
                arrivals=PoissonArrivals(0.5),
                service=GammaService(5.0, cv=0.5),
                n_requests=30,
                policy="round_robin",
            ),
            axes=(("topology", (topo,)),),
        )
        (cell,) = expand_cells(spec)
        outcome = run_cell(spec, cell, CONFIG)
        assert outcome.summary.offered_count == 30

    def test_scenario_topology_validation(self):
        topo = TopologySpec.uniform(1, 2, 2)
        kwargs = dict(
            arrivals=PoissonArrivals(1.0),
            service=GammaService(5.0, cv=0.5),
            n_requests=10,
        )
        scenario = Scenario(**kwargs, topology=topo)
        assert scenario.n_devices == topo.total_devices
        with pytest.raises(ValueError, match="devices"):
            Scenario(**kwargs, topology=topo, n_devices=3)
        with pytest.raises(ValueError, match="governor"):
            Scenario(**kwargs, topology=topo, governor=GovernorSpec.greedy(2))
        with pytest.raises(ValueError, match="shard worker"):
            Scenario(**kwargs, topology=topo, shard_workers=0)

    def test_replications_invariant_under_shard_workers(self):
        topo = TopologySpec.uniform(
            1, 2, 4, rack_governor=GovernorSpec.greedy(2), window_s=30.0
        )
        kwargs = dict(
            arrivals=PoissonArrivals(1.0),
            service=GammaService(5.0, cv=0.5),
            n_requests=60,
            topology=topo,
        )
        serial = run_replications(
            ReplicationPlan(scenario=Scenario(**kwargs), n_replications=3, base_seed=3)
        )
        fanned = run_replications(
            ReplicationPlan(
                scenario=Scenario(**kwargs, shard_workers=4),
                n_replications=3,
                base_seed=3,
            )
        )
        assert [s.to_dict() for s in serial.summaries] == [
            s.to_dict() for s in fanned.summaries
        ]


# -- the cascade against a reference probe-then-commit cascade ---------------------------


class ReferenceCascade(CascadeGovernor):
    """The straightforward cascade protocol: probe every level, then commit
    through each level's public acquire/release/count_denial, re-probing
    every level for the cascade's own at-cap bookkeeping."""

    def acquire(self, now_s: float) -> bool:
        blocked = [g for _, g in self.levels if g.would_deny(now_s)]
        if blocked:
            for governor in blocked:
                governor.count_denial(now_s)
            self._denied += 1
            self._update_cap(now_s)
            return False
        for _, governor in self.levels:
            assert governor.acquire(now_s)
            self._collect_reset(governor)
        self._granted += 1
        self._active += 1
        self._peak_active = max(self._peak_active, self._active)
        self._update_cap(now_s)
        return True

    def release(self, now_s: float, used: bool = True) -> None:
        for _, governor in self.levels:
            governor.release(now_s, used=used)
        SprintGovernor.release(self, now_s, used=used)

    def on_breaker_reset(self, now_s: float) -> None:
        for _, governor in self.levels:
            governor.on_breaker_reset(now_s)
        SprintGovernor.on_breaker_reset(self, now_s)

    def _saturated(self, now_s: float) -> bool:
        return any(g.would_deny(now_s) for _, g in self.levels)


LEVEL_EXCESS_W = 10.0
CASCADE_WINDOW_S = 5.0

rack_levels = st.one_of(
    st.builds(
        lambda k, trip, penalty: GreedyGovernor(
            LEVEL_EXCESS_W, k, trip_headroom_w=trip, penalty_s=penalty
        ),
        st.integers(1, 4),
        st.sampled_from([None, 15.0, 25.0]),
        st.sampled_from([0.0, 3.0]),
    ),
    st.builds(
        lambda trip, penalty: CooperativeThresholdGovernor(LEVEL_EXCESS_W, trip, penalty),
        st.sampled_from([10.0, 25.0, 40.0]),
        st.sampled_from([0.0, 3.0]),
    ),
    st.builds(
        lambda rate, burst, trip, penalty: TokenBucketGovernor(
            LEVEL_EXCESS_W, rate, burst, trip_headroom_w=trip, penalty_s=penalty
        ),
        st.sampled_from([0.2, 1.0]),
        st.sampled_from([1.0, 2.5]),
        st.sampled_from([None, 15.0]),
        st.sampled_from([0.0, 2.0]),
    ),
)

row_slices = st.builds(
    lambda slots, trips, penalty: SlicedGovernor(
        "row",
        LEVEL_EXCESS_W,
        CASCADE_WINDOW_S,
        slot_caps=np.array(slots),
        trip_caps_w=np.array(trips),
        penalty_s=penalty,
    ),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.sampled_from([0.0, 15.0, 30.0]), min_size=4, max_size=4),
    st.sampled_from([0.0, 4.0]),
)
datacenter_slices = st.builds(
    lambda headroom, penalty: SlicedGovernor(
        "datacenter",
        LEVEL_EXCESS_W,
        CASCADE_WINDOW_S,
        headroom_caps_w=np.array(headroom),
        trip_caps_w=np.array(headroom),
        penalty_s=penalty,
    ),
    st.lists(st.sampled_from([5.0, 20.0, 35.0]), min_size=4, max_size=4),
    st.sampled_from([0.0, 4.0]),
)
sliced_levels = st.one_of(row_slices, datacenter_slices)

schedules = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "acquire", "release", "release_unused"]),
        st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60)
@given(data=st.data(), schedule=schedules)
def test_cascade_matches_reference_probe_then_commit(data, schedule):
    """Random acquire/release/breaker-reset schedules leave every ledger of
    the single-evaluation cascade equal to the reference's, field by field."""
    levels = [("rack", data.draw(rack_levels))]
    for name in ("row", "datacenter")[: data.draw(st.integers(0, 2))]:
        levels.append((name, data.draw(sliced_levels)))
    fast = CascadeGovernor(copy.deepcopy(levels))
    reference = ReferenceCascade(copy.deepcopy(levels))
    resets: list[float] = []
    now = 0.0
    for op, dt in schedule:
        now += dt
        while resets and resets[0] <= now:
            at = heapq.heappop(resets)
            fast.on_breaker_reset(at)
            reference.on_breaker_reset(at)
        if op == "acquire":
            assert fast.acquire(now) == reference.acquire(now)
            while (at := fast.pop_pending_reset()) is not None:
                assert at == reference.pop_pending_reset()
                heapq.heappush(resets, at)
            assert reference.pop_pending_reset() is None
        elif fast.active_grants:
            fast.release(now, used=op == "release")
            reference.release(now, used=op == "release")
        assert fast.active_grants == reference.active_grants
    for at in sorted(resets):
        fast.on_breaker_reset(at)
        reference.on_breaker_reset(at)
    end = max(now, *resets) + 1.0 if resets else now + 1.0
    assert fast.finalize(end) == reference.finalize(end)
    assert fast.finalize_levels(end) == reference.finalize_levels(end)
