"""Property/fuzz suite: laws every fleet run must obey, whatever the knobs.

Hypothesis draws randomized scenario specs across the full configuration
cross-product — every dispatch policy × both engine modes × all queue
disciplines and bounds × every governor policy × every thermal backend ×
all stochastic arrival/service families — and asserts the invariants no
configuration may break:

* **Conservation** — every request that arrived is accounted for exactly
  once at the horizon: served + rejected + abandoned partition the
  arrivals, with nothing in flight after the engine's final event.
* **Causality / non-decreasing time** — no request starts before it
  arrives, completes before it starts, or completes after the run's
  horizon; each device's serving intervals never overlap (completions on
  a device are non-decreasing in start order).
* **No leaked grants** — a governed run returns every power grant: the
  governor ends with zero active grants, and its ledger is internally
  consistent.

The suite takes its example count from the hypothesis profile
(``tests/conftest.py``): the fast PR gate runs a modest number, the
nightly ``thorough`` profile fuzzes an order of magnitude deeper.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.config import SystemConfig
from repro.traffic import (
    FixedService,
    FleetSimulator,
    GammaService,
    GovernorSpec,
    RackSpec,
    RowSpec,
    Scenario,
    ThermalSpec,
    TopologySpec,
)
from repro.traffic.arrivals import (
    DeterministicArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.traffic.topology import TOPOLOGY_DISPATCH

CONFIG = SystemConfig.paper_default()


def arrival_processes():
    rates = st.floats(min_value=0.05, max_value=2.0)
    return st.one_of(
        rates.map(PoissonArrivals),
        rates.map(lambda r: DeterministicArrivals(1.0 / r)),
        rates.map(
            lambda r: MMPPArrivals.bursty(
                burst_rate_hz=4.0 * r, mean_burst_s=3.0 / r, mean_idle_s=9.0 / r
            )
        ),
        rates.map(
            lambda r: DiurnalArrivals(base_rate_hz=r, amplitude=0.8, period_s=300.0)
        ),
    )


def service_models():
    means = st.floats(min_value=0.5, max_value=8.0)
    return st.one_of(
        means.map(FixedService),
        st.tuples(means, st.floats(min_value=0.1, max_value=1.5)).map(
            lambda mc: GammaService(mean_s=mc[0], cv=mc[1])
        ),
    )


def governors():
    return st.one_of(
        st.just(GovernorSpec.unlimited()),
        st.integers(min_value=1, max_value=3).map(GovernorSpec.greedy),
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.floats(min_value=10.0, max_value=60.0),
            st.floats(min_value=1.0, max_value=30.0),
        ).map(lambda t: GovernorSpec.greedy(t[0], trip_headroom_w=t[1], penalty_s=t[2])),
        st.tuples(
            st.floats(min_value=0.1, max_value=2.0),
            st.integers(min_value=1, max_value=8),
        ).map(lambda t: GovernorSpec.token_bucket(*t)),
        st.tuples(
            st.floats(min_value=10.0, max_value=60.0),
            st.floats(min_value=0.0, max_value=30.0),
        ).map(lambda t: GovernorSpec.cooperative(t[0], penalty_s=t[1])),
    )


def sliceable_governors():
    """Budgets legal at row/datacenter level: their window capacity must
    partition exactly across rack shards (token_bucket's refill does not)."""
    return st.one_of(
        st.just(GovernorSpec.unlimited()),
        st.integers(min_value=1, max_value=4).map(GovernorSpec.greedy),
        st.tuples(
            st.floats(min_value=10.0, max_value=60.0),
            st.floats(min_value=0.0, max_value=30.0),
        ).map(lambda t: GovernorSpec.cooperative(t[0], penalty_s=t[1])),
    )


@st.composite
def topologies(draw):
    """A small random rack/row/datacenter tree across the legal shapes:
    1-2 rows of 1-2 racks of 1-3 devices, any governor (incl. token_bucket)
    at rack level, sliceable governors above, both dispatch policies."""
    rows = tuple(
        RowSpec(
            racks=tuple(
                RackSpec(
                    n_devices=draw(st.integers(min_value=1, max_value=3)),
                    governor=draw(governors()),
                    sprint_enabled=draw(st.one_of(st.none(), st.booleans())),
                )
                for _ in range(draw(st.integers(min_value=1, max_value=2)))
            ),
            governor=draw(sliceable_governors()),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    )
    return TopologySpec(
        rows=rows,
        governor=draw(sliceable_governors()),
        window_s=draw(st.sampled_from([15.0, 30.0, 60.0])),
        dispatch=draw(st.sampled_from(TOPOLOGY_DISPATCH)),
    )


@st.composite
def scenarios(draw):
    """A full fleet scenario across every configuration axis."""
    mode = draw(st.sampled_from(["immediate", "central_queue"]))
    return Scenario(
        arrivals=draw(arrival_processes()),
        service=draw(service_models()),
        n_requests=draw(st.integers(min_value=3, max_value=25)),
        n_devices=draw(st.integers(min_value=1, max_value=4)),
        policy=draw(
            st.sampled_from(["round_robin", "least_loaded", "thermal_aware", "random"])
        ),
        mode=mode,
        discipline=draw(st.sampled_from(["fifo", "edf"])),
        queue_bound=(
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
            if mode == "central_queue"
            else None
        ),
        governor=draw(governors()),
        thermal=draw(
            st.sampled_from([ThermalSpec.linear(), ThermalSpec.rc(), ThermalSpec.pcm()])
        ),
        sprint_speedup=draw(st.floats(min_value=1.5, max_value=10.0)),
        sprint_enabled=draw(st.booleans()),
        refuse_partial_sprints=draw(st.booleans()),
        deadline_s=draw(st.one_of(st.none(), st.floats(min_value=2.0, max_value=40.0))),
    )


class TestFleetInvariants:
    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_conservation_and_causality(self, scenario, seed):
        fleet = scenario.build_fleet(CONFIG)
        requests = scenario.requests(seed)
        result = fleet.run(requests, seed=seed)

        # Conservation: every arrival is accounted for exactly once, and
        # nothing is still in flight at the horizon.
        fates = (
            [s.request.index for s in result.served]
            + [r.index for r in result.rejected]
            + [r.index for r in result.abandoned]
        )
        assert sorted(fates) == list(range(scenario.n_requests))

        # Causality and non-decreasing time along every request's life.
        horizon = result.horizon_s
        for served in result.served:
            start = served.request.arrival_s + served.queueing_delay_s
            assert served.queueing_delay_s >= 0.0
            assert served.service_time_s > 0.0
            assert start >= served.request.arrival_s
            assert served.completed_at_s >= start
            assert served.completed_at_s <= horizon + 1e-9

        # Devices serve serially: per-device intervals never overlap.
        by_device: dict[int, list] = {}
        for served in result.served:
            by_device.setdefault(served.device_id, []).append(served)
        for batch in by_device.values():
            batch.sort(key=lambda s: s.request.arrival_s + s.queueing_delay_s)
            for earlier, later in zip(batch, batch[1:]):
                later_start = later.request.arrival_s + later.queueing_delay_s
                assert later_start >= earlier.completed_at_s - 1e-9

        # Rejection needs a bounded central queue; abandonment a deadline.
        if scenario.mode == "immediate" or scenario.queue_bound is None:
            assert not result.rejected
        if scenario.deadline_s is None:
            assert not result.abandoned

        # Per-device accounting matches the served set.
        assert sum(d.requests_served for d in result.device_stats) == len(result.served)

        # A sprint-disabled fleet never sprints, whatever the governor says.
        if not scenario.sprint_enabled:
            assert not any(s.sprinted for s in result.served)

    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_no_leaked_grants(self, scenario, seed):
        fleet = scenario.build_fleet(CONFIG)
        result = fleet.run(scenario.requests(seed), seed=seed)

        # Every acquired grant must be back with the governor at the end:
        # the engine schedules GRANT_RELEASE at each sprint's completion
        # and returns unused grants immediately, so a leak would strand
        # budget and poison any later accounting.
        assert fleet.governor.active_grants == 0

        stats = result.governor_stats
        if stats is None:
            # Only the bypassed unlimited governor produces no ledger.
            assert fleet.governor.is_unlimited
            return
        assert stats.sprints_granted >= 0
        assert stats.sprints_denied >= 0
        assert stats.grants_released_unused <= stats.sprints_granted
        assert stats.breaker_trips == len(stats.trip_times_s)
        assert list(stats.trip_times_s) == sorted(stats.trip_times_s)
        assert 0 <= stats.peak_concurrent_sprints <= stats.sprints_granted
        assert stats.time_at_cap_s >= 0.0
        # Sprinted-served requests all held a grant.
        sprinted = sum(1 for s in result.served if s.sprinted)
        assert sprinted <= stats.sprints_granted

    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_summary_consistent_with_result(self, scenario, seed):
        fleet = scenario.build_fleet(CONFIG)
        result = fleet.run(scenario.requests(seed), seed=seed)
        summary = result.summary(slo_s=scenario.slo_s)

        assert summary.request_count == len(result.served)
        assert summary.rejected_count == len(result.rejected)
        assert summary.abandoned_count == len(result.abandoned)
        assert summary.offered_count == scenario.n_requests
        assert 0.0 <= summary.sprint_fraction <= 1.0
        assert 0.0 <= summary.mean_sprint_fullness <= 1.0
        if summary.request_count:
            assert summary.p50_latency_s <= summary.p95_latency_s + 1e-12
            assert summary.p95_latency_s <= summary.p99_latency_s + 1e-12
            assert summary.p99_latency_s <= summary.max_latency_s + 1e-12
            assert summary.makespan_s >= 0.0


class TestTopologyInvariants:
    """The flat-fleet laws survive hierarchical budgets and sharding."""

    @given(
        topology=topologies(),
        arrivals=arrival_processes(),
        service=service_models(),
        n_requests=st.integers(min_value=3, max_value=20),
        workers=st.integers(min_value=1, max_value=3),
        deadline_s=st.one_of(st.none(), st.floats(min_value=2.0, max_value=40.0)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_sharded_conservation_and_ledger(
        self, topology, arrivals, service, n_requests, workers, deadline_s, seed
    ):
        scenario = Scenario(
            arrivals=arrivals,
            service=service,
            n_requests=n_requests,
            topology=topology,
            shard_workers=workers,
            deadline_s=deadline_s,
        )
        fleet = scenario.build_fleet(CONFIG)
        result = fleet.run(scenario.requests(seed), seed=seed)

        # Conservation holds through rack routing, window barriers, and
        # the shard merge: fates partition the arrivals exactly.  (A rack
        # job ending with grants in flight raises inside run_sharded, so
        # completing at all is the no-leaked-grants assertion.)
        fates = (
            [s.request.index for s in result.served]
            + [r.index for r in result.rejected]
            + [r.index for r in result.abandoned]
        )
        assert sorted(fates) == list(range(n_requests))
        assert not result.rejected  # no bounded central queue configured
        if deadline_s is None:
            assert not result.abandoned

        # Stable hierarchical identity: device stats keep tree order and
        # row/rack-qualified labels whatever the shard count.
        assert [d.device_id for d in result.device_stats] == list(
            range(topology.total_devices)
        )
        assert [d.device_label for d in result.device_stats] == list(
            topology.device_labels()
        )
        assert sum(d.requests_served for d in result.device_stats) == len(result.served)

        # Per-level ledgers stay internally consistent with the cascade
        # aggregate: every cascade denial is attributed to >=1 level.
        stats = result.topology_stats
        if stats is not None:
            assert len(stats.racks) == len(stats.rack_paths)
            assert stats.rack_paths == topology.rack_paths
            denied = stats.denied_by_level()
            assert all(count >= 0 for count in denied.values())
            assert stats.overall.sprints_denied <= sum(denied.values())
            # Only sprints in racks whose cascade actually governs need a
            # grant: a rack whose own, row, and datacenter budgets are all
            # unlimited sprints through the engine's unlimited bypass and
            # never touches any ledger.
            governed_paths = {
                path
                for path, (row, rack) in zip(
                    topology.rack_paths,
                    (
                        (row, rack)
                        for row in topology.rows
                        for rack in row.racks
                    ),
                )
                if not (
                    rack.governor.policy == "unlimited"
                    and row.governor.policy == "unlimited"
                    and topology.governor.policy == "unlimited"
                )
            }
            labels = topology.device_labels()
            governed_sprints = sum(
                1
                for s in result.served
                if s.sprinted
                and labels[s.device_id].rsplit("/", 1)[0] in governed_paths
            )
            assert governed_sprints <= stats.overall.sprints_granted

    @given(
        topology=topologies(),
        arrivals=arrival_processes(),
        service=service_models(),
        n_requests=st.integers(min_value=3, max_value=15),
        workers=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_results_invariant_under_shard_workers(
        self, topology, arrivals, service, n_requests, workers, seed
    ):
        # The speed knob must not be a physics knob: arrivals are routed
        # and parent budgets sliced before any worker runs, so a serial
        # and a fanned-out run are bit-identical.
        def run(shard_workers):
            scenario = Scenario(
                arrivals=arrivals,
                service=service,
                n_requests=n_requests,
                topology=topology,
                shard_workers=shard_workers,
            )
            return scenario.build_fleet(CONFIG).run(
                scenario.requests(seed), seed=seed
            )

        serial, fanned = run(1), run(workers)
        assert serial.summary(slo_s=2.0).to_dict() == fanned.summary(slo_s=2.0).to_dict()
        assert [
            (d.device_id, d.device_label, d.requests_served, d.sprints_served)
            for d in serial.device_stats
        ] == [
            (d.device_id, d.device_label, d.requests_served, d.sprints_served)
            for d in fanned.device_stats
        ]
