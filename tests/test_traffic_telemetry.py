"""Streaming-telemetry suite: sketch accuracy, probes, traces, flat memory.

Four contracts anchor this file:

* **Sketch accuracy** — every quantile a :class:`QuantileSketch` answers
  has true normalised rank within ``rank_error_bound`` of the requested
  ``q``, measured against the exact sorted data on adversarial orderings
  (sorted, reversed, organ-pipe, zigzag, clustered duplicates) and on
  hypothesis-generated streams.  ``count``/``sum``/``min``/``max`` are
  exact, always.
* **Mergeability** — merging is exactly commutative (either order answers
  every query identically), associative within the rank bound, and exact
  on the counters; streams, timelines, and sweep/experiment results pool
  across replications and workers.
* **Conservation** — timeline counter columns partition the arrivals:
  ``served + rejected + abandoned == arrivals`` over any completed run,
  fuzzed across both engine modes, queue bounds, and deadlines.
* **Flat memory** — a long ``keep_samples=False`` run holds O(1) metric
  state: the tracemalloc high-water grows by only a few bytes per extra
  request (the engine's O(n) arrival-ordering pointer array), orders of
  magnitude below per-sample retention.  ``$REPRO_MEMTEST_REQUESTS``
  scales the horizon (CI's memory smoke runs it at one million).
"""

from __future__ import annotations

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.traffic import (
    FixedService,
    FleetSimulator,
    GammaService,
    GovernorSpec,
    PoissonArrivals,
    ReplicationPlan,
    Scenario,
    SweepSpec,
    TelemetrySpec,
    TrafficSummary,
    generate_requests,
    run_replications,
    run_sweep,
)
from repro.traffic.fleet import resolve_telemetry
from repro.traffic.telemetry import (
    EventTrace,
    QuantileSketch,
    StreamingMoments,
    TRACE_KINDS,
    TimelineProbe,
    TraceRecord,
    TrafficTelemetry,
)
from repro.traffic.metrics import validate_latencies, validate_slo

CONFIG = SystemConfig.paper_default()


def normalised_rank_error(sorted_values: np.ndarray, estimate: float, q: float) -> float:
    """Distance from ``q`` to the true rank interval of ``estimate``.

    Ties give the estimate a rank *interval* [lo/n, hi/n]; the error is
    the distance from ``q`` to that interval (zero when q lies inside).
    """
    n = len(sorted_values)
    lo = np.searchsorted(sorted_values, estimate, side="left") / n
    hi = np.searchsorted(sorted_values, estimate, side="right") / n
    if q < lo:
        return lo - q
    if q > hi:
        return q - hi
    return 0.0


def adversarial_orderings(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    base = rng.exponential(1.0, size=n)
    organ = np.concatenate([np.sort(base)[::2], np.sort(base)[1::2][::-1]])
    zigzag = np.sort(base).copy()
    zigzag[::2], zigzag[1::2] = np.sort(base)[n // 2 :][: len(zigzag[::2])], np.sort(
        base
    )[: n // 2][: len(zigzag[1::2])]
    return {
        "random": base,
        "sorted": np.sort(base),
        "reversed": np.sort(base)[::-1],
        "organ_pipe": organ,
        "zigzag": zigzag,
        "duplicates": np.round(base, 1),
        "clustered": np.concatenate([base[: n // 2] * 1e-3, base[n // 2 :] * 1e3]),
    }


# -- QuantileSketch ---------------------------------------------------------------------


class TestQuantileSketch:
    def test_exact_accumulators(self):
        sketch = QuantileSketch(capacity=64)
        values = np.random.default_rng(0).normal(5.0, 2.0, size=10_000)
        sketch.extend(values)
        assert sketch.count == 10_000
        assert sketch.sum == pytest.approx(values.sum())
        assert sketch.mean == pytest.approx(values.mean())
        assert sketch.min == values.min()
        assert sketch.max == values.max()

    def test_fixed_memory_footprint(self):
        sketch = QuantileSketch(capacity=64)
        sketch.extend(range(100_000))
        # O(capacity · log(n / capacity)) — far below n, bounded per level.
        assert sketch.retained < 64 * 18
        assert sketch.retained < 1000

    def test_deterministic(self):
        values = np.random.default_rng(3).exponential(1.0, size=5_000)
        a, b = QuantileSketch(capacity=64), QuantileSketch(capacity=64)
        a.extend(values)
        b.extend(values)
        qs = np.linspace(0, 1, 21)
        assert a.quantiles(qs) == b.quantiles(qs)

    def test_extremes_snap_exact(self):
        sketch = QuantileSketch(capacity=32)
        sketch.extend([3.0, 1.0, 2.0, 9.0])
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 9.0

    def test_small_stream_is_exact(self):
        sketch = QuantileSketch(capacity=128)
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        sketch.extend(values)
        # Below capacity nothing compacts: every quantile is an exact
        # order statistic.
        assert sketch.quantile(0.5) == 3.0
        assert sketch.retained == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="at least"):
            QuantileSketch(capacity=QuantileSketch.MIN_CAPACITY - 1)
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="at least one value"):
            sketch.quantile(0.5)
        with pytest.raises(ValueError, match="at least one value"):
            sketch.cdf(1.0)
        sketch.add(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sketch.quantile(1.5)

    @pytest.mark.parametrize("ordering", sorted(adversarial_orderings(8)))
    @pytest.mark.parametrize("capacity", [64, 256])
    def test_rank_error_bound_adversarial(self, ordering, capacity):
        n = 20_000
        values = adversarial_orderings(n)[ordering]
        sketch = QuantileSketch(capacity=capacity)
        sketch.extend(values)
        exact = np.sort(values)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
            estimate = sketch.quantile(q)
            err = normalised_rank_error(exact, estimate, q)
            assert err <= sketch.rank_error_bound, (
                f"{ordering} cap={capacity} q={q}: rank error {err:.4f} "
                f"exceeds bound {sketch.rank_error_bound:.4f}"
            )

    def test_cdf_within_bound(self):
        values = adversarial_orderings(20_000)["random"]
        sketch = QuantileSketch(capacity=128)
        sketch.extend(values)
        exact = np.sort(values)
        for x in np.percentile(values, [1, 25, 50, 75, 99]):
            est = sketch.cdf(x)
            true = np.searchsorted(exact, x, side="right") / len(exact)
            assert abs(est - true) <= sketch.rank_error_bound
        assert sketch.cdf(exact[0] - 1) == 0.0
        assert sketch.cdf(exact[-1] + 1) == 1.0

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=2_000,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_rank_error_bound_property(self, values, q):
        sketch = QuantileSketch(capacity=QuantileSketch.MIN_CAPACITY)
        sketch.extend(values)
        estimate = sketch.quantile(q)
        err = normalised_rank_error(np.sort(values), estimate, q)
        assert err <= sketch.rank_error_bound


class TestSketchMerge:
    def test_merge_commutative_exactly(self):
        rng = np.random.default_rng(11)
        a_vals, b_vals = rng.normal(size=3_000), rng.exponential(size=5_000)
        qs = np.linspace(0, 1, 41)

        def feed(values):
            s = QuantileSketch(capacity=64)
            s.extend(values)
            return s

        ab = feed(a_vals).merge(feed(b_vals))
        ba = feed(b_vals).merge(feed(a_vals))
        assert ab.quantiles(qs) == ba.quantiles(qs)
        assert ab.count == ba.count == 8_000

    def test_merge_associative_within_bound(self):
        rng = np.random.default_rng(13)
        shards = [rng.exponential(size=4_000) for _ in range(4)]
        merged = QuantileSketch.merged(
            [self._feed(s) for s in shards]
        )
        exact = np.sort(np.concatenate(shards))
        for q in (0.5, 0.9, 0.99):
            err = normalised_rank_error(exact, merged.quantile(q), q)
            assert err <= merged.rank_error_bound
        assert merged.count == 16_000
        assert merged.sum == pytest.approx(exact.sum())
        assert merged.min == exact[0]
        assert merged.max == exact[-1]

    @staticmethod
    def _feed(values, capacity=64):
        s = QuantileSketch(capacity=capacity)
        s.extend(values)
        return s

    def test_merge_validation(self):
        with pytest.raises(ValueError, match="capacities must match"):
            QuantileSketch(capacity=64).merge(QuantileSketch(capacity=128))
        with pytest.raises(TypeError):
            QuantileSketch().merge([1.0, 2.0])
        with pytest.raises(ValueError, match="at least one sketch"):
            QuantileSketch.merged([])


def test_streaming_moments():
    a, b = StreamingMoments(), StreamingMoments()
    for v in (3.0, 1.0):
        a.add(v)
    b.add(7.0)
    a.merge(b)
    assert (a.count, a.sum, a.min, a.max) == (3, 11.0, 1.0, 7.0)
    assert a.mean == pytest.approx(11.0 / 3)
    assert StreamingMoments().mean == 0.0


# -- sketch summaries against exact summaries -------------------------------------------


def paired_runs(n=400, **fleet_kwargs):
    """The same scenario run sample-backed and sketch-backed (same seed)."""
    requests = generate_requests(
        PoissonArrivals(0.4), GammaService(mean_s=4.0, cv=1.0), n, seed=9
    )
    exact = FleetSimulator(CONFIG, n_devices=3, **fleet_kwargs).run(requests, seed=1)
    flat = FleetSimulator(
        CONFIG, n_devices=3, keep_samples=False, **fleet_kwargs
    ).run(requests, seed=1)
    return exact, flat


class TestSketchSummary:
    def test_counts_exact_percentiles_bounded(self):
        exact, flat = paired_runs()
        se = exact.summary(slo_s=8.0)
        sf = flat.summary(slo_s=8.0)
        assert sf.telemetry_source == "sketch"
        assert se.telemetry_source == "samples"
        assert sf.sketch_rank_error == 8.0 / 512
        assert sf.request_count == se.request_count
        assert sf.sprint_fraction == se.sprint_fraction
        assert sf.mean_latency_s == pytest.approx(se.mean_latency_s)
        assert sf.max_latency_s == se.max_latency_s
        assert sf.makespan_s == pytest.approx(se.makespan_s)
        assert sf.peak_temperature_c == se.peak_temperature_c
        latencies = np.sort(exact.latencies_s)
        for q, value in ((0.5, sf.p50_latency_s), (0.99, sf.p99_latency_s)):
            assert normalised_rank_error(latencies, value, q) <= sf.sketch_rank_error
        assert abs(sf.slo_attainment - se.slo_attainment) <= sf.sketch_rank_error

    def test_flat_run_drops_samples_keeps_counts(self):
        exact, flat = paired_runs()
        assert flat.served == ()
        assert flat.served_count == len(exact.served)
        assert flat.latencies_s.size == 0
        assert flat.telemetry is not None
        assert flat.telemetry.stream.request_count == flat.served_count
        assert flat.horizon_s == pytest.approx(exact.horizon_s)

    def test_summary_without_stream_raises(self):
        from repro.traffic.device import ServedColumns
        from repro.traffic.fleet import FleetResult

        orphan = FleetResult(
            outcomes=ServedColumns.empty(),
            device_stats=(),
            policy="least_loaded",
            served_count=5,
        )
        with pytest.raises(ValueError, match="keep_samples"):
            orphan.summary()

    def test_stream_merge_pools_replications(self):
        scenario = Scenario(
            arrivals=PoissonArrivals(0.4),
            service=GammaService(mean_s=4.0, cv=0.8),
            n_requests=150,
            n_devices=2,
            keep_samples=False,
        )
        plan = ReplicationPlan(scenario, n_replications=4)
        result = run_replications(plan, workers=2)
        pooled = result.pooled_stream()
        assert pooled.request_count == sum(
            s.request_count for s in result.summaries
        )
        p99 = result.pooled_quantile(0.99)
        assert max(s.p50_latency_s for s in result.summaries) <= p99
        assert p99 <= max(s.max_latency_s for s in result.summaries)

    def test_sweep_cells_pool_streams(self):
        spec = SweepSpec(
            Scenario(
                arrivals=PoissonArrivals(0.5),
                service=GammaService(5.0, cv=0.5),
                n_requests=120,
                n_devices=2,
                keep_samples=False,
            ),
            replications=3,
        )
        for workers in (1, 2):
            result = run_sweep(spec, workers=workers)
            for cell in result.cells:
                pooled = cell.pooled_stream()
                assert pooled.request_count == 3 * 120
                assert len(cell.telemetries) == 3

    def test_sweep_without_telemetry_has_nothing_to_pool(self):
        spec = SweepSpec(
            Scenario(
                arrivals=PoissonArrivals(0.5), service=FixedService(5.0), n_requests=20
            )
        )
        cell = run_sweep(spec).cells[0]
        assert cell.telemetry is None
        with pytest.raises(ValueError, match="no streaming telemetry"):
            cell.pooled_stream()


# -- resolve_telemetry / spec validation ------------------------------------------------


class TestTelemetryKnobs:
    def test_resolve_semantics(self):
        assert resolve_telemetry(None, keep_samples=True) is None
        assert resolve_telemetry(None, keep_samples=False) == TelemetrySpec()
        assert resolve_telemetry(False, keep_samples=False) is None
        assert resolve_telemetry(True, keep_samples=True) == TelemetrySpec()
        spec = TelemetrySpec(sketch_capacity=64)
        assert resolve_telemetry(spec, keep_samples=True) is spec
        with pytest.raises(TypeError, match="telemetry must be"):
            resolve_telemetry("yes", keep_samples=True)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sketch capacity"):
            TelemetrySpec(sketch_capacity=8)
        with pytest.raises(ValueError, match="cadence"):
            TelemetrySpec(timeline_cadence_s=0.0)
        with pytest.raises(ValueError, match="trace capacity"):
            TelemetrySpec(trace_capacity=-1)
        assert not TelemetrySpec(sketch=False).enabled
        assert TelemetrySpec(sketch=False, trace_capacity=16).enabled

    def test_spec_builders(self):
        spec = TelemetrySpec(
            sketch=False, timeline_cadence_s=5.0, trace_capacity=0
        )
        assert spec.build_stream() is None
        assert spec.build_probe(excess_power_w=3.0).excess_power_w == 3.0
        assert spec.build_trace().capacity is None  # 0 means unbounded

    def test_scenario_rejects_bad_knob(self):
        with pytest.raises(TypeError, match="telemetry must be"):
            Scenario(
                arrivals=PoissonArrivals(0.5),
                service=FixedService(2.0),
                n_requests=10,
                telemetry=42,
            )


# -- centralized metric validation / round-trips ----------------------------------------


class TestMetricsPlumbing:
    def test_validate_latencies(self):
        with pytest.raises(ValueError, match="at least one"):
            validate_latencies([])
        out = validate_latencies([1, 2])
        assert out.dtype == float

    def test_validate_slo(self):
        validate_slo(None)
        validate_slo(1.0)
        with pytest.raises(ValueError, match="positive"):
            validate_slo(0.0)

    def test_summary_round_trip_includes_telemetry_fields(self):
        _, flat = paired_runs(n=60)
        summary = flat.summary(slo_s=8.0)
        data = json.loads(json.dumps(summary.to_dict()))
        restored = TrafficSummary.from_dict(data)
        assert restored == summary
        assert restored.telemetry_source == "sketch"
        assert restored.sketch_rank_error == summary.sketch_rank_error

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown TrafficSummary"):
            TrafficSummary.from_dict({"request_count": 1, "vibes": "good"})


# -- timeline probe ---------------------------------------------------------------------


def timeline_run(mode, cadence=25.0, **kwargs):
    requests = generate_requests(
        PoissonArrivals(0.5), FixedService(4.0), 200, seed=21
    )
    fleet = FleetSimulator(
        CONFIG,
        n_devices=2,
        mode=mode,
        governor=GovernorSpec.greedy(1),
        telemetry=TelemetrySpec(timeline_cadence_s=cadence),
        **kwargs,
    )
    return fleet.run(requests, seed=2)


class TestTimeline:
    @pytest.mark.parametrize("mode", ["immediate", "central_queue"])
    def test_conservation_and_contiguity(self, mode):
        result = timeline_run(mode)
        timeline = result.telemetry.timeline
        assert int(timeline.arrivals.sum()) == 200
        assert (
            int(timeline.served.sum())
            + int(timeline.rejected.sum())
            + int(timeline.abandoned.sum())
        ) == 200
        assert int(timeline.served.sum()) == len(result.served)
        np.testing.assert_allclose(
            np.diff(timeline.window_start_s), timeline.cadence_s
        )
        assert timeline.window_start_s[-1] <= result.horizon_s
        assert result.horizon_s <= timeline.window_start_s[-1] + timeline.cadence_s

    def test_grants_and_power(self):
        result = timeline_run("central_queue")
        timeline = result.telemetry.timeline
        stats = result.governor_stats
        assert int(timeline.sprints_granted.sum()) == stats.sprints_granted
        assert int(timeline.sprints_denied.sum()) == stats.sprints_denied
        assert timeline.peak_in_flight_sprints.max() <= 1  # greedy(1) cap
        np.testing.assert_allclose(
            timeline.peak_granted_power_w,
            timeline.peak_in_flight_sprints * timeline.excess_power_w,
        )

    def test_merge_doubles_counters_keeps_peaks(self):
        timeline = timeline_run("central_queue").telemetry.timeline
        doubled = timeline.merge(timeline)
        assert int(doubled.arrivals.sum()) == 2 * int(timeline.arrivals.sum())
        np.testing.assert_array_equal(
            doubled.peak_queue_depth, timeline.peak_queue_depth
        )
        with pytest.raises(ValueError, match="cadences must match"):
            timeline.merge(
                timeline_run("central_queue", cadence=10.0).telemetry.timeline
            )

    def test_merge_pads_shorter_timeline(self):
        probe = TimelineProbe(cadence_s=1.0)
        probe.on_arrival(0.5)
        short = probe.finalize()
        long = TimelineProbe(cadence_s=1.0)
        long.on_arrival(4.5)
        merged = short.merge(long.finalize())
        assert merged.n_windows == 5
        assert list(merged.arrivals) == [1, 0, 0, 0, 1]

    def test_to_dict_is_json_ready(self):
        timeline = timeline_run("immediate").telemetry.timeline
        data = json.loads(json.dumps(timeline.to_dict()))
        assert data["cadence_s"] == timeline.cadence_s
        assert data["arrivals"] == [int(v) for v in timeline.arrivals]

    def test_probe_validation(self):
        with pytest.raises(ValueError, match="cadence"):
            TimelineProbe(cadence_s=-1.0)

    def test_gauges_carry_forward_idle_windows(self):
        probe = TimelineProbe(cadence_s=1.0)
        probe.on_queue_depth(0.2, 3)
        probe.on_arrival(5.5)  # four idle windows in between
        timeline = probe.finalize()
        assert list(timeline.peak_queue_depth) == [3, 3, 3, 3, 3, 3]


@settings(deadline=None)
@given(
    mode=st.sampled_from(["immediate", "central_queue"]),
    queue_bound=st.sampled_from([None, 2, 8]),
    deadline_s=st.sampled_from([None, 6.0]),
    rate=st.floats(min_value=0.2, max_value=1.5),
    n=st.integers(min_value=1, max_value=80),
)
def test_timeline_conserves_requests(mode, queue_bound, deadline_s, rate, n):
    """Fuzzed conservation: every arrival lands in exactly one fate column."""
    requests = generate_requests(
        PoissonArrivals(rate),
        GammaService(mean_s=3.0, cv=0.7),
        n,
        seed=4,
        deadline_s=deadline_s,
    )
    fleet = FleetSimulator(
        CONFIG,
        n_devices=2,
        mode=mode,
        queue_bound=queue_bound if mode == "central_queue" else None,
        keep_samples=False,
        telemetry=TelemetrySpec(timeline_cadence_s=20.0),
    )
    result = fleet.run(requests, seed=5)
    timeline = result.telemetry.timeline
    assert int(timeline.arrivals.sum()) == n
    fates = (
        int(timeline.served.sum())
        + int(timeline.rejected.sum())
        + int(timeline.abandoned.sum())
    )
    assert fates == n
    assert int(timeline.served.sum()) == result.served_count
    assert int(timeline.rejected.sum()) == result.rejected_count
    assert int(timeline.abandoned.sum()) == result.abandoned_count


# -- event tracing ----------------------------------------------------------------------


class TestEventTrace:
    def test_ring_overwrites_oldest(self):
        trace = EventTrace(capacity=3)
        for i in range(5):
            trace.add(float(i), "arrival", request_index=i)
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [r.request_index for r in trace.records] == [2, 3, 4]

    def test_unbounded_keeps_everything(self):
        trace = EventTrace(capacity=None)
        for i in range(10):
            trace.add(float(i), "complete")
        assert len(trace) == 10 and trace.dropped == 0

    def test_kind_validation(self):
        trace = EventTrace()
        with pytest.raises(ValueError, match="unknown trace kind"):
            trace.add(0.0, "teleport")
        with pytest.raises(ValueError, match="unknown trace kind"):
            trace.by_kind("teleport")
        with pytest.raises(ValueError, match="positive"):
            EventTrace(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        trace = EventTrace()
        trace.add(1.5, "grant", request_index=7, device_id=2)
        trace.add(2.0, "trip", detail=42.5)
        path = tmp_path / "trace.jsonl"
        assert trace.write_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {
            "time_s": 1.5, "kind": "grant", "request_index": 7, "device_id": 2
        }
        assert lines[1] == {"time_s": 2.0, "kind": "trip", "detail": 42.5}
        assert "\n".join(r.to_json() for r in trace.records) == trace.to_jsonl()

    def test_engine_emits_lifecycle_records(self):
        requests = generate_requests(
            PoissonArrivals(1.0), FixedService(5.0), 60, seed=6
        )
        fleet = FleetSimulator(
            CONFIG,
            n_devices=2,
            mode="central_queue",
            governor=GovernorSpec.token_bucket(sprint_rate_hz=0.05, burst_sprints=2),
            telemetry=TelemetrySpec(sketch=False, trace_capacity=0),
        )
        result = fleet.run(requests, seed=7)
        trace = result.telemetry.trace
        kinds = {r.kind for r in trace.records}
        assert {"arrival", "dispatch", "complete"} <= kinds
        assert len(trace.by_kind("arrival")) == 60
        assert len(trace.by_kind("complete")) == len(result.served)
        grants = len(trace.by_kind("grant"))
        denies = len(trace.by_kind("deny"))
        stats = result.governor_stats
        assert grants == stats.sprints_granted
        assert denies == stats.sprints_denied
        times = [r.time_s for r in trace.records]
        # ring keeps records in engine-processing order
        assert all(isinstance(r, TraceRecord) for r in trace.records)
        assert set(kinds) <= set(TRACE_KINDS)
        assert len(times) == len(trace.records)


# -- flat-memory regression -------------------------------------------------------------


MEMTEST_REQUESTS = int(os.environ.get("REPRO_MEMTEST_REQUESTS", "200000"))


def _flat_run_peak_bytes(n: int) -> int:
    """Tracemalloc high-water of a keep_samples=False run of n requests."""
    requests = generate_requests(PoissonArrivals(50.0), FixedService(0.5), n, seed=8)
    fleet = FleetSimulator(
        CONFIG, n_devices=1, keep_samples=False,
        telemetry=TelemetrySpec(sketch_capacity=512),
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fleet.run(requests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.served_count == n
    assert result.telemetry.stream.request_count == n
    summary = result.summary()
    assert summary.telemetry_source == "sketch"
    assert summary.p99_latency_s >= summary.p50_latency_s
    return peak - before


def test_flat_memory_high_water():
    """Metric memory stays O(1) as the horizon grows.

    The only O(n) allocation a ``keep_samples=False`` run makes is the
    engine's arrival-ordering pointer array (8 bytes per request); the
    incremental high-water per extra request must stay within a few
    pointer-widths of that — per-sample retention costs hundreds of bytes
    per request and fails this by two orders of magnitude.
    """
    small = MEMTEST_REQUESTS // 4
    peak_small = _flat_run_peak_bytes(small)
    peak_full = _flat_run_peak_bytes(MEMTEST_REQUESTS)
    per_request = (peak_full - peak_small) / (MEMTEST_REQUESTS - small)
    assert per_request < 64, (
        f"flat-mode high-water grew {per_request:.0f} B/request "
        f"({peak_small} -> {peak_full} bytes); metric state is not O(1)"
    )


def test_flat_memory_run_matches_exact_tail():
    """The long-horizon sketch p99 lands inside the exact rank band."""
    n = min(MEMTEST_REQUESTS, 200_000)
    requests = generate_requests(PoissonArrivals(50.0), FixedService(0.5), n, seed=8)
    flat = FleetSimulator(CONFIG, n_devices=1, keep_samples=False).run(requests)
    exact = FleetSimulator(CONFIG, n_devices=1).run(requests)
    latencies = np.sort(exact.latencies_s)
    summary = flat.summary()
    for q, value in (
        (0.50, summary.p50_latency_s),
        (0.95, summary.p95_latency_s),
        (0.99, summary.p99_latency_s),
    ):
        err = normalised_rank_error(latencies, value, q)
        assert err <= summary.sketch_rank_error
    assert summary.mean_latency_s == pytest.approx(latencies.mean())
    assert summary.max_latency_s == latencies[-1]


# -- observers never perturb the simulation ---------------------------------------------


def test_instruments_do_not_perturb_results():
    """Full instrumentation must leave every sample bit-identical."""
    requests = generate_requests(
        PoissonArrivals(0.5), GammaService(mean_s=4.0, cv=1.0), 150, seed=31
    )

    def run(**kwargs):
        fleet = FleetSimulator(
            CONFIG,
            n_devices=3,
            mode="central_queue",
            governor=GovernorSpec.greedy(2),
            **kwargs,
        )
        return fleet.run(requests, seed=32)

    bare = run()
    instrumented = run(
        telemetry=TelemetrySpec(timeline_cadence_s=10.0, trace_capacity=256)
    )
    np.testing.assert_array_equal(bare.latencies_s, instrumented.latencies_s)
    assert bare.summary() == instrumented.summary()
    assert [s.device_id for s in bare.served] == [
        s.device_id for s in instrumented.served
    ]
    assert instrumented.telemetry.timeline is not None
    assert instrumented.telemetry.trace is not None


def test_run_telemetry_is_picklable():
    import pickle

    result = timeline_run("central_queue")
    clone = pickle.loads(pickle.dumps(result.telemetry))
    assert clone.stream is None or isinstance(clone.stream, TrafficTelemetry)
    np.testing.assert_array_equal(
        clone.timeline.arrivals, result.telemetry.timeline.arrivals
    )


def test_telemetry_module_math_consistency():
    # rank_error_bound is 8/capacity by contract — documented in README.
    assert QuantileSketch(capacity=512).rank_error_bound == 8.0 / 512
    assert math.isclose(QuantileSketch(capacity=64).rank_error_bound, 0.125)
