"""Equivalence suite for the engine's vectorized (batched) execution mode.

The fast path (:mod:`repro.traffic.fastpath`) must be *bit-identical* to the
exact heap engine wherever it engages, and must fall back honestly — with a
stated reason — wherever it cannot.  These tests lock both properties across
the scenario matrix of policies × modes × governors × thermal backends, plus
the streaming entry points (``run_blocks`` / ``run_stream``) and the
flat-memory ``keep_samples=False`` mode.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.fleet import FleetSimulator
from repro.traffic.governor import (
    CooperativeThresholdGovernor,
    GovernorSpec,
    GreedyGovernor,
)
from repro.traffic.request import GammaService, RequestBlock, generate_requests
from repro.traffic.telemetry import TelemetrySpec
from repro.traffic.topology import CascadeGovernor, TopologySpec

POLICIES = ("round_robin", "random", "least_loaded", "thermal_aware")
MODES = ("immediate", "central_queue")
GOVERNORS = (
    GovernorSpec(),
    GovernorSpec(policy="greedy", max_concurrent_sprints=2),
    GovernorSpec.cooperative(trip_headroom_w=30.0),
)
THERMALS = ("linear", "rc", "pcm")

#: Immediate policies fastpath.unsupported_reason promises to batch.
BATCHABLE = ("round_robin", "random", "least_loaded")


@pytest.fixture(scope="module")
def config():
    return SystemConfig.paper_default()


@pytest.fixture(scope="module")
def requests():
    # Poisson at moderate load with bursty gamma demands: exercises idle
    # drains, full sprints, partial sprints, and queue build-up.
    return generate_requests(
        PoissonArrivals(0.6), GammaService(2.0, cv=1.0), n=250, seed=13
    )


def build_fleet(config, engine, *, policy="round_robin", mode="immediate",
                governor="unlimited", thermal="linear", **kw):
    return FleetSimulator(
        config,
        n_devices=4,
        policy=policy,
        mode=mode,
        governor=governor,
        thermal=thermal,
        engine=engine,
        **kw,
    )


def assert_identical(exact, fast):
    """Both runs produced the same result, bit for bit."""
    assert exact.served == fast.served
    assert exact.device_stats == fast.device_stats
    assert exact.rejected == fast.rejected
    assert exact.abandoned == fast.abandoned
    assert exact.served_count == fast.served_count
    assert exact.final_event_s == fast.final_event_s
    assert exact.governor_stats == fast.governor_stats
    assert np.array_equal(exact.latencies_s, fast.latencies_s)


class TestScenarioMatrix:
    """batched == exact on every cell of the golden scenario matrix."""

    @pytest.mark.parametrize("thermal", THERMALS)
    @pytest.mark.parametrize("governor", GOVERNORS, ids=lambda g: g.policy)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_matches_exact(
        self, config, requests, policy, mode, governor, thermal
    ):
        exact = build_fleet(
            config, "exact", policy=policy, mode=mode,
            governor=governor, thermal=thermal,
        ).run(requests, seed=7)
        fast = build_fleet(
            config, "batched", policy=policy, mode=mode,
            governor=governor, thermal=thermal,
        ).run(requests, seed=7)
        assert_identical(exact, fast)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_engagement_matches_envelope(self, config, policy):
        """The vector core engages exactly where the envelope says it can."""
        engine = build_fleet(config, "batched", policy=policy)._make_engine()
        if policy in BATCHABLE:
            assert engine.fast_path_reason is None
        else:
            assert "state" in engine.fast_path_reason


class TestFallbackReasons:
    """Every unsupported knob names why it forces the exact loop."""

    def test_exact_mode_never_engages(self, config, requests):
        fleet = build_fleet(config, "exact")
        engine = fleet._make_engine()
        engine.run(requests, np.random.default_rng(0))
        assert not engine.last_run_fast_path

    def test_eligible_batched_engages(self, config, requests):
        fleet = build_fleet(config, "batched")
        engine = fleet._make_engine()
        assert engine.fast_path_reason is None
        engine.run(requests, np.random.default_rng(0))
        assert engine.last_run_fast_path

    def test_central_fifo_engages(self, config):
        """Central-queue FIFO is inside the envelope now."""
        engine = build_fleet(config, "batched", mode="central_queue")._make_engine()
        assert engine.fast_path_reason is None

    def test_edf_discipline_reason(self, config):
        engine = build_fleet(
            config, "batched", mode="central_queue", discipline="edf"
        )._make_engine()
        assert "re-sorts" in engine.fast_path_reason

    def test_replayable_governor_engages(self, config):
        """Greedy/cooperative budgets replay exactly through the event core."""
        for governor in GOVERNORS[1:]:
            engine = build_fleet(config, "batched", governor=governor)._make_engine()
            assert engine.fast_path_reason is None

    def test_token_bucket_governor_reason(self, config):
        engine = build_fleet(
            config, "batched", governor=GovernorSpec.token_bucket(0.5, 3.0)
        )._make_engine()
        assert "grant replay" in engine.fast_path_reason

    @pytest.mark.parametrize("thermal", ("rc", "pcm"))
    def test_physics_thermal_engages(self, config, thermal):
        """RC and PCM devices run their own pacer inside the event core."""
        engine = build_fleet(config, "batched", thermal=thermal)._make_engine()
        assert engine.fast_path_reason is None

    def test_observers_ride_the_fast_path(self, config, requests):
        """Streaming instruments no longer force the exact loop."""
        fleet = build_fleet(config, "batched", telemetry=True)
        stream, probe, trace = fleet._prepare_observers()
        engine = fleet._make_engine(stream=stream, probe=probe, trace=trace)
        assert engine.fast_path_reason is None
        engine.run(requests, np.random.default_rng(0))
        assert engine.last_run_fast_path

    def test_custom_dispatch_callable_reason(self, config):
        from repro.traffic.engine import DISPATCH_POLICIES

        engine = build_fleet(
            config, "batched", policy=DISPATCH_POLICIES["round_robin"]
        )._make_engine()
        assert engine.fast_path_reason is not None

    def test_ineligible_batched_run_falls_back(self, config, requests):
        fleet = build_fleet(config, "batched", policy="thermal_aware")
        engine = fleet._make_engine()
        engine.run(requests, np.random.default_rng(0))
        assert not engine.last_run_fast_path


class TestStreamingEntryPoints:
    ARRIVALS = PoissonArrivals(0.6)
    SERVICE = GammaService(2.0, cv=1.0)

    @pytest.mark.parametrize("chunk", [32, 1000])
    def test_run_blocks_matches_run(self, config, chunk):
        """Chunked block execution == materialise-then-run, same seeds."""
        scalar = generate_requests(self.ARRIVALS, self.SERVICE, n=300, seed=17)
        fleet = build_fleet(config, "batched")
        via_run = fleet.run(scalar, seed=5)
        via_stream = fleet.run_stream(
            self.ARRIVALS, self.SERVICE, 300,
            request_seed=17, run_seed=5, chunk_size=chunk,
        )
        assert_identical(via_run, via_stream)

    def test_run_stream_exact_engine_matches_batched(self, config):
        exact = build_fleet(config, "exact").run_stream(
            self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5
        )
        fast = build_fleet(config, "batched").run_stream(
            self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5
        )
        assert_identical(exact, fast)

    def test_keep_samples_false_keeps_counts_and_device_state(self, config):
        kept = build_fleet(config, "batched", keep_samples=True).run_stream(
            self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5
        )
        flat = build_fleet(
            config, "batched", keep_samples=False, telemetry=False
        ).run_stream(self.ARRIVALS, self.SERVICE, 300, request_seed=17, run_seed=5)
        assert flat.served == ()
        assert flat.served_count == kept.served_count == 300
        assert flat.device_stats == kept.device_stats
        assert flat.final_event_s == kept.final_event_s

    def test_random_policy_consumes_identical_rng_stream(self, config):
        """One block draw of assignments == per-request scalar draws."""
        scalar = generate_requests(self.ARRIVALS, self.SERVICE, n=200, seed=3)
        exact = build_fleet(config, "exact", policy="random").run(scalar, seed=11)
        fast = build_fleet(config, "batched", policy="random").run(scalar, seed=11)
        assert_identical(exact, fast)
        assert [s.device_id for s in exact.served] == [
            s.device_id for s in fast.served
        ]

    def test_out_of_order_blocks_rejected(self, config):
        engine = build_fleet(config, "batched")._make_engine()
        blocks = [
            RequestBlock(0, np.array([5.0, 6.0]), np.array([1.0, 1.0])),
            RequestBlock(2, np.array([1.0, 2.0]), np.array([1.0, 1.0])),
        ]
        with pytest.raises(ValueError, match="time-ordered"):
            engine.run_blocks(iter(blocks), np.random.default_rng(0))


def cascade_governor(config):
    """A two-level grant chain: two rack slots under a 30 W row budget."""
    excess_w = config.sprint_power_w - config.sustainable_power_w
    return CascadeGovernor(
        [
            ("rack", GreedyGovernor(excess_w, max_concurrent_sprints=2)),
            ("row", CooperativeThresholdGovernor(excess_w, trip_headroom_w=30.0)),
        ]
    )


#: Governors of the differential tests; "cascade" is built per fleet.
FUZZ_GOVERNORS = (
    GovernorSpec(),
    GovernorSpec.greedy(2),
    GovernorSpec.cooperative(trip_headroom_w=30.0),
    "cascade",
    GovernorSpec.token_bucket(0.5, 3.0),
)
FUZZ_DISCIPLINES = ("immediate", "fifo", "edf")


def governor_id(governor) -> str:
    return governor if isinstance(governor, str) else governor.policy


def fleet_knobs(config, policy, discipline, governor, thermal, telemetry):
    central = discipline != "immediate"
    return dict(
        policy=policy,
        mode="central_queue" if central else "immediate",
        discipline=discipline if central else "fifo",
        governor=cascade_governor(config) if governor == "cascade" else governor,
        thermal=thermal,
        telemetry=telemetry,
    )


def assert_replay_matches_exact(config, requests, knobs):
    """The batched run equals engine="exact" and engages as the envelope says."""
    exact = build_fleet(config, "exact", **fleet_knobs(config, **knobs)).run(requests, seed=7)
    fast = build_fleet(config, "batched", **fleet_knobs(config, **knobs)).run(requests, seed=7)
    assert_identical(exact, fast)
    assert exact.summary() == fast.summary()
    # Telemetry sketches must agree too, not just sample lists.
    if knobs["telemetry"]:
        for q in (0.5, 0.9, 0.99):
            assert exact.telemetry.stream.latency.quantile(
                q
            ) == fast.telemetry.stream.latency.quantile(q)
    central = knobs["discipline"] != "immediate"
    expected = governor_id(knobs["governor"]) != "token_bucket" and (
        knobs["discipline"] == "fifo" if central else knobs["policy"] in BATCHABLE
    )
    assert fast.fast_path == expected
    assert (fast.fast_path_reason is None) == expected
    assert not exact.fast_path


def fuzz_configs(n):
    """Deterministic random draws over the full knob space."""
    rng = np.random.default_rng(20260807)
    for _ in range(n):
        yield dict(
            policy=POLICIES[rng.integers(len(POLICIES))],
            discipline=FUZZ_DISCIPLINES[rng.integers(len(FUZZ_DISCIPLINES))],
            governor=FUZZ_GOVERNORS[rng.integers(len(FUZZ_GOVERNORS))],
            thermal=THERMALS[rng.integers(len(THERMALS))],
            telemetry=bool(rng.integers(2)),
        )


def knob_id(k) -> str:
    return (
        f"{k['policy']}-{k['discipline']}-{governor_id(k['governor'])}"
        f"-{k['thermal']}-{'tele' if k['telemetry'] else 'plain'}"
    )


class TestReplayDifferential:
    """The batch-replay core against the exact loop over the whole knob
    space: every configuration is bit-identical across engines and engages
    exactly where the envelope predicate promises."""

    @pytest.mark.parametrize("knobs", list(fuzz_configs(24)), ids=knob_id)
    def test_fuzzed_config_is_honest(self, config, requests, knobs):
        assert_replay_matches_exact(config, requests, knobs)

    @pytest.mark.parametrize("telemetry", (False, True), ids=("plain", "tele"))
    @pytest.mark.parametrize("thermal", THERMALS)
    @pytest.mark.parametrize("governor", FUZZ_GOVERNORS[:4], ids=governor_id)
    def test_least_loaded_replay(self, config, requests, governor, thermal, telemetry):
        """least_loaded x every thermal backend x every replayable governor."""
        knobs = dict(
            policy="least_loaded",
            discipline="immediate",
            governor=governor,
            thermal=thermal,
            telemetry=telemetry,
        )
        assert_replay_matches_exact(config, requests, knobs)

    @pytest.mark.parametrize("queue_bound", (None, 3))
    @pytest.mark.parametrize("governor", ("cascade", GovernorSpec()), ids=governor_id)
    def test_deadline_lifecycle_replay(self, config, governor, queue_bound):
        """Central FIFO with deadlines and admission control: abandonment
        and rejection land on the same requests at the same instants."""
        requests = generate_requests(
            PoissonArrivals(2.5), GammaService(2.0, cv=1.0), n=300, seed=29, deadline_s=3.0
        )
        knobs = dict(
            policy="round_robin",
            discipline="fifo",
            governor=governor,
            thermal="rc",
            telemetry=TelemetrySpec(timeline_cadence_s=20.0, trace_capacity=0),
        )
        kw = fleet_knobs(config, **knobs)
        exact = build_fleet(config, "exact", queue_bound=queue_bound, **kw).run(requests, seed=7)
        kw = fleet_knobs(config, **knobs)
        fast = build_fleet(config, "batched", queue_bound=queue_bound, **kw).run(requests, seed=7)
        assert fast.fast_path
        if queue_bound is None:
            assert exact.abandoned_count > 0
        else:
            assert exact.rejected_count > 0
        assert_identical(exact, fast)
        assert exact.summary() == fast.summary()
        assert exact.telemetry.timeline.to_dict() == fast.telemetry.timeline.to_dict()
        assert exact.telemetry.trace.records == fast.telemetry.trace.records

    @pytest.mark.parametrize("thermal", ("linear", "pcm"))
    @pytest.mark.parametrize(
        "policy, discipline",
        [("least_loaded", "immediate"), ("random", "immediate"), ("round_robin", "fifo")],
    )
    def test_timeline_and_trace_replay(self, config, requests, policy, discipline, thermal):
        """The per-event instruments (timeline probe, event trace) record the
        same windows and the same events on both engines."""
        spec = TelemetrySpec(timeline_cadence_s=20.0, trace_capacity=0)
        knobs = dict(
            policy=policy,
            discipline=discipline,
            governor="cascade",
            thermal=thermal,
            telemetry=spec,
        )
        exact = build_fleet(config, "exact", **fleet_knobs(config, **knobs)).run(requests, seed=7)
        fast = build_fleet(config, "batched", **fleet_knobs(config, **knobs)).run(requests, seed=7)
        assert fast.fast_path
        assert_identical(exact, fast)
        assert exact.telemetry.timeline.to_dict() == fast.telemetry.timeline.to_dict()
        assert exact.telemetry.trace.records == fast.telemetry.trace.records


class TestGovernedCentralAcceptance:
    """The issue's headline scenario: 256 governed devices behind a central
    FIFO with full telemetry — summary, grant ledger, and sketch quantiles
    bit-identical between the exact loop and the vector core."""

    def run_once(self, config, engine):
        fleet = FleetSimulator(
            config,
            n_devices=256,
            mode="central_queue",
            discipline="fifo",
            governor=GovernorSpec.greedy(64),
            telemetry=True,
            engine=engine,
        )
        return fleet.run_stream(
            PoissonArrivals(50.0),
            GammaService(2.0, cv=1.0),
            4000,
            request_seed=9,
            run_seed=9,
        )

    def test_bit_identical_at_fleet_scale(self, config):
        exact = self.run_once(config, "exact")
        fast = self.run_once(config, "batched")
        assert fast.fast_path
        assert fast.fast_path_reason is None
        assert_identical(exact, fast)
        assert exact.summary() == fast.summary()
        assert exact.governor_stats == fast.governor_stats
        for q in (0.5, 0.9, 0.99, 0.999):
            assert exact.telemetry.stream.latency.quantile(
                q
            ) == fast.telemetry.stream.latency.quantile(q)


class TestShardedFastPath:
    """Sharded topology runs ride the vector core per rack and stay
    bit-identical at any shard worker count."""

    TOPOLOGY = TopologySpec.uniform(2, 2, 4)

    def run_once(self, config, engine, workers=1):
        fleet = FleetSimulator(
            config,
            topology=self.TOPOLOGY,
            policy="round_robin",
            engine=engine,
            shard_workers=workers,
        )
        return fleet.run_stream(
            PoissonArrivals(1.2),
            GammaService(2.0, cv=1.0),
            400,
            request_seed=21,
            run_seed=21,
        )

    def test_racks_ride_vector_core(self, config):
        exact = self.run_once(config, "exact")
        fast = self.run_once(config, "batched")
        assert fast.fast_path
        assert fast.fast_path_reason is None
        assert not exact.fast_path
        assert_identical(exact, fast)

    def test_invariant_under_shard_workers(self, config):
        serial = self.run_once(config, "batched", workers=1)
        fanned = self.run_once(config, "batched", workers=3)
        assert fanned.fast_path
        assert_identical(serial, fanned)
