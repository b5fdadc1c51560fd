"""Benchmarks for the fleet simulator and the parallel sweep engine.

Three questions matter for the serving layer's usefulness as a scenario
engine: how many requests per wall-second one fleet simulation sustains,
whether dispatch stays cheap as the fleet grows (the indexed
``least_loaded`` path against the O(n) scan it replaced), and how the
multiprocessing sweep scales as workers are added.  Runs record their
throughput in ``benchmark.extra_info`` so the JSON output can be tracked
across commits, and honour ``$REPRO_BENCH_SCALE`` (see ``conftest``) so
CI's smoke step can shrink them.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.traffic import (
    DiurnalArrivals,
    FixedService,
    FleetSimulator,
    GammaService,
    GovernorSpec,
    PoissonArrivals,
    Scenario,
    SweepSpec,
    TopologySpec,
    generate_requests,
    run_sweep,
)
from repro.traffic.engine import DISPATCH_POLICIES

FLEET_REQUESTS = 20_000
FLEET_DEVICES = 16

LARGE_FLEET_DEVICES = 256
LARGE_FLEET_REQUESTS = 4_000

SWEEP_SPEC = SweepSpec(
    Scenario(
        arrivals=PoissonArrivals(0.05),
        service=GammaService(5.0, cv=0.5),
        n_requests=400,
        slo_s=2.0,
    ),
    axes=(
        ("policy", ("round_robin", "least_loaded", "thermal_aware")),
        ("arrivals", tuple(PoissonArrivals(r) for r in (0.05, 0.1, 0.2, 0.3))),
        ("n_devices", (1, 2, 4)),
    ),
    base_seed=5,
)
SWEEP_WORKER_COUNTS = (1, 2, 4)

SHARD_FLEET_SIZES = (10_000, 100_000)
SHARD_WORKER_COUNTS = (1, 2, 4, 8)
SHARD_REQUESTS = 100_000


def test_bench_fleet_throughput(benchmark, bench_scale):
    """Requests simulated per wall-second on one 16-device fleet."""
    config = SystemConfig.paper_default()
    n = bench_scale(FLEET_REQUESTS, floor=500)
    requests = generate_requests(
        PoissonArrivals(1.0), FixedService(5.0), n, seed=1
    )

    def simulate():
        fleet = FleetSimulator(config, FLEET_DEVICES, policy="least_loaded")
        return fleet.run(requests)

    result = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert len(result.served) == n
    elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["requests_per_second"] = n / elapsed
    benchmark.extra_info["p99_latency_s"] = result.summary().p99_latency_s


def test_bench_large_fleet_dispatch(benchmark, bench_scale):
    """Indexed ``least_loaded`` dispatch against the O(n) scan at 256 devices.

    The named policy runs on the engine's heap index; passing the policy
    *function* forces the legacy per-request scan over every device.  The
    two are order-equivalent (asserted bit-identically), so the speedup is
    pure dispatch cost.
    """
    config = SystemConfig.paper_default()
    n = bench_scale(LARGE_FLEET_REQUESTS, floor=300)
    requests = generate_requests(
        PoissonArrivals(50.0), FixedService(5.0), n, seed=3
    )

    def indexed():
        fleet = FleetSimulator(config, LARGE_FLEET_DEVICES, policy="least_loaded")
        return fleet.run(requests)

    result = benchmark.pedantic(indexed, rounds=1, iterations=1)
    indexed_s = benchmark.stats.stats.mean

    started = time.perf_counter()
    scan_result = FleetSimulator(
        config, LARGE_FLEET_DEVICES, policy=DISPATCH_POLICIES["least_loaded"]
    ).run(requests)
    scan_s = time.perf_counter() - started

    assert np.array_equal(result.latencies_s, scan_result.latencies_s)
    assert [s.device_id for s in result.served] == [
        s.device_id for s in scan_result.served
    ]
    benchmark.extra_info["devices"] = LARGE_FLEET_DEVICES
    benchmark.extra_info["indexed_requests_per_second"] = n / indexed_s
    benchmark.extra_info["scan_requests_per_second"] = n / scan_s
    benchmark.extra_info["speedup_vs_scan"] = scan_s / indexed_s
    assert indexed_s < scan_s, (
        f"indexed dispatch ({indexed_s:.3f}s) should beat the O(n) scan "
        f"({scan_s:.3f}s) on a {LARGE_FLEET_DEVICES}-device fleet"
    )


def test_bench_governed_fleet_overhead(benchmark, bench_scale):
    """Grant-handshake cost of a power-governed fleet against unlimited.

    A governed run adds one acquire per sprint attempt and one release
    event per sprint to the event heap; the benchmark times a greedy-
    governed fleet and records the ungoverned run for the overhead ratio.
    The ``unlimited`` governor must not appear here at all — it takes the
    ungoverned code path, which the regression tests lock bit-identically.
    """
    config = SystemConfig.paper_default()
    n = bench_scale(FLEET_REQUESTS, floor=500)
    requests = generate_requests(PoissonArrivals(1.0), FixedService(5.0), n, seed=1)
    governor = GovernorSpec.greedy(FLEET_DEVICES // 2)

    def governed():
        fleet = FleetSimulator(config, FLEET_DEVICES, governor=governor)
        return fleet.run(requests)

    result = benchmark.pedantic(governed, rounds=1, iterations=1)
    governed_s = benchmark.stats.stats.mean

    started = time.perf_counter()
    unlimited_result = FleetSimulator(config, FLEET_DEVICES).run(requests)
    unlimited_s = time.perf_counter() - started

    stats = result.governor_stats
    assert stats is not None
    assert stats.sprints_granted - stats.grants_released_unused == sum(
        1 for s in result.served if s.sprinted
    )
    assert len(result.served) == len(unlimited_result.served) == n
    overhead = governed_s / unlimited_s
    benchmark.extra_info["governed_requests_per_second"] = n / governed_s
    benchmark.extra_info["unlimited_requests_per_second"] = n / unlimited_s
    benchmark.extra_info["overhead_vs_unlimited"] = overhead
    benchmark.extra_info["sprints_denied"] = stats.sprints_denied
    assert overhead < 3.0, (
        f"governed dispatch ({governed_s:.3f}s) should stay within 3x of the "
        f"ungoverned run ({unlimited_s:.3f}s); measured {overhead:.2f}x"
    )


def test_bench_thermal_backend_overhead(benchmark, bench_scale):
    """Per-request cost of each thermal backend (reservoir vs RC vs PCM).

    The linear reservoir is the regression-locked default; the physics
    backends add per-drain exponentials (rc) or piecewise enthalpy
    integration (pcm).  The benchmark times the linear fleet and records
    each backend's throughput and overhead ratio in ``extra_info`` for the
    ``BENCH_ci.json`` artifact; the assertion keeps the physics backends
    within a small constant factor, so fidelity never becomes a scaling
    hazard.
    """
    config = SystemConfig.paper_default()
    n = bench_scale(FLEET_REQUESTS, floor=500)
    requests = generate_requests(PoissonArrivals(1.0), FixedService(5.0), n, seed=1)

    def run_backend(thermal: str):
        fleet = FleetSimulator(config, FLEET_DEVICES, thermal=thermal)
        return fleet.run(requests)

    result = benchmark.pedantic(run_backend, args=("linear",), rounds=3, iterations=1)
    assert len(result.served) == n
    # Compare minima, not single shots: one GC pause or noisy-neighbour
    # stall in either measurement must not fail the CI gate.
    linear_s = benchmark.stats.stats.min
    benchmark.extra_info["linear_requests_per_second"] = n / linear_s

    for backend in ("rc", "pcm"):
        elapsed = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            backend_result = run_backend(backend)
            elapsed = min(elapsed, time.perf_counter() - started)
            assert len(backend_result.served) == n
        overhead = elapsed / linear_s
        benchmark.extra_info[f"{backend}_requests_per_second"] = n / elapsed
        benchmark.extra_info[f"{backend}_overhead_vs_linear"] = overhead
        assert overhead < 3.0, (
            f"{backend} backend ({elapsed:.3f}s) should stay within 3x of the "
            f"linear reservoir ({linear_s:.3f}s); measured {overhead:.2f}x"
        )


def test_bench_telemetry_overhead(benchmark, bench_scale):
    """Streaming-telemetry cost against the sample-backed baseline.

    Three modes share one request stream: the legacy sample-keeping run
    (timed as the benchmark subject), the flat-memory sketch run
    (``keep_samples=False``), and the counts-only run with every
    instrument off.  The sketch path must stay within a small constant
    factor of the baseline — otherwise flat memory would cost the very
    throughput long horizons need — and its tail estimates must agree
    with the exact ones within the documented rank-error bound.
    """
    from repro.traffic import TelemetrySpec

    config = SystemConfig.paper_default()
    n = bench_scale(FLEET_REQUESTS, floor=500)
    requests = generate_requests(PoissonArrivals(1.0), FixedService(5.0), n, seed=1)

    def run_mode(**kwargs):
        fleet = FleetSimulator(config, FLEET_DEVICES, **kwargs)
        return fleet.run(requests)

    result = benchmark.pedantic(run_mode, rounds=3, iterations=1)
    assert len(result.served) == n
    baseline_s = benchmark.stats.stats.min
    benchmark.extra_info["samples_requests_per_second"] = n / baseline_s

    modes = {
        "sketch": dict(keep_samples=False),
        "instruments_off": dict(keep_samples=False, telemetry=False),
        "fully_instrumented": dict(
            keep_samples=False,
            telemetry=TelemetrySpec(timeline_cadence_s=60.0, trace_capacity=4096),
        ),
    }
    exact_summary = result.summary()
    for name, kwargs in modes.items():
        elapsed = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            mode_result = run_mode(**kwargs)
            elapsed = min(elapsed, time.perf_counter() - started)
        assert mode_result.served_count == n
        assert mode_result.served == ()
        overhead = elapsed / baseline_s
        benchmark.extra_info[f"{name}_requests_per_second"] = n / elapsed
        benchmark.extra_info[f"{name}_overhead_vs_samples"] = overhead
        assert overhead < 2.5, (
            f"{name} mode ({elapsed:.3f}s) should stay within 2.5x of the "
            f"sample-backed run ({baseline_s:.3f}s); measured {overhead:.2f}x"
        )
        if name != "instruments_off":
            sketch_summary = mode_result.summary()
            assert sketch_summary.request_count == exact_summary.request_count
            latencies = np.sort(result.latencies_s)
            rank = np.searchsorted(
                latencies, sketch_summary.p99_latency_s, side="right"
            ) / n
            assert abs(rank - 0.99) <= sketch_summary.sketch_rank_error + 1.0 / n


ENGINE_CURVE_DEVICES = 256
ENGINE_CURVE_SCALES = (100_000, 1_000_000, 10_000_000)
ENGINE_CURVE_RATE_HZ = 50.0


def test_bench_engine_throughput_curve(benchmark, bench_scale):
    """Requests/second of exact vs batched across stream sizes.

    One 256-device round-robin fleet serves Poisson/fixed-demand streams
    of 1e5, 1e6, and 1e7 requests with ``keep_samples=False`` (flat
    memory).  The exact event loop is measured once at the smallest size
    (its per-request cost is size-independent; simulating 1e7 requests
    scalar-wise would dominate the whole suite), the batched vector core
    at every size.  The full curve lands in
    ``extra_info`` for the ``BENCH_ci.json`` artifact, and the gate
    asserts the batched path beats the exact loop — the fast path must
    never regress into a slow path.
    """
    config = SystemConfig.paper_default()
    scales = [bench_scale(n, floor=2_000) for n in ENGINE_CURVE_SCALES]
    arrivals = PoissonArrivals(ENGINE_CURVE_RATE_HZ)
    service = FixedService(5.0)

    def fleet(engine: str) -> FleetSimulator:
        return FleetSimulator(
            config,
            ENGINE_CURVE_DEVICES,
            policy="round_robin",
            keep_samples=False,
            telemetry=False,
            engine=engine,
        )

    def run(engine: str, n: int):
        return fleet(engine).run_stream(arrivals, service, n, request_seed=9, run_seed=9)

    # Benchmark subject: the batched vector core at the smallest size
    # (each curve point below is timed manually into extra_info).
    result = benchmark.pedantic(
        run, args=("batched", scales[0]), rounds=1, iterations=1
    )
    assert result.served_count == scales[0]
    batched_small_s = benchmark.stats.stats.mean

    started = time.perf_counter()
    exact_result = run("exact", scales[0])
    exact_s = time.perf_counter() - started
    assert exact_result.served_count == scales[0]

    curve: dict[str, float] = {
        f"exact_rps_{scales[0]}": scales[0] / exact_s,
        f"batched_rps_{scales[0]}": scales[0] / batched_small_s,
    }
    for n in scales[1:]:
        started = time.perf_counter()
        assert run("batched", n).served_count == n
        curve[f"batched_rps_{n}"] = n / (time.perf_counter() - started)

    speedup = exact_s / batched_small_s
    benchmark.extra_info["devices"] = ENGINE_CURVE_DEVICES
    benchmark.extra_info["batched_speedup_vs_exact"] = speedup
    benchmark.extra_info.update(curve)
    assert speedup > 1.0, (
        f"batched engine ({batched_small_s:.3f}s) must beat the exact loop "
        f"({exact_s:.3f}s) at {scales[0]} requests on "
        f"{ENGINE_CURVE_DEVICES} devices; measured {speedup:.2f}x"
    )
    if os.environ.get("REPRO_BENCH_SCALE", "1.0") == "1.0":
        # At full scale the vector core's amortisation is complete; hold
        # the headline order-of-magnitude win, not just parity.
        assert speedup >= 10.0, (
            f"batched engine speedup degraded to {speedup:.1f}x "
            "(expected >= 10x at full scale)"
        )


GOVERNED_CURVE_SCALES = (100_000, 1_000_000)


def test_bench_governed_central_throughput(benchmark, bench_scale):
    """Exact vs batched on the widened envelope: 256 governed devices
    behind a central FIFO queue with streaming telemetry on.

    The original fast path covered only ungoverned immediate dispatch;
    this curve measures the batch-replay event core on the issue's
    headline scenario — greedy-governed sprints, central-queue FIFO,
    sketch telemetry — at 1e5 and 1e6 requests with flat memory.  The
    exact loop is measured at the smallest size (its per-request cost is
    size-independent), and the smallest-size runs are checked
    bit-identical (summary, grant ledger, sketch quantiles) before any
    timing is trusted.  ``governed_central_speedup_vs_exact`` is the
    amortised ratio — the batched core's best requests/second across the
    curve against the exact loop's — because that is the number the
    largest-scale point pays for; every timing is a min-of-2 so one GC
    pause or noisy neighbour cannot fail the CI gate, which holds the
    ratio to >= 5x.
    """
    config = SystemConfig.paper_default()
    scales = [bench_scale(n, floor=2_000) for n in GOVERNED_CURVE_SCALES]
    arrivals = PoissonArrivals(ENGINE_CURVE_RATE_HZ)
    service = FixedService(5.0)
    governor = GovernorSpec.greedy(ENGINE_CURVE_DEVICES // 4)

    def run(engine: str, n: int):
        fleet = FleetSimulator(
            config,
            ENGINE_CURVE_DEVICES,
            policy="round_robin",
            mode="central_queue",
            governor=governor,
            keep_samples=False,
            telemetry=True,
            engine=engine,
        )
        return fleet.run_stream(arrivals, service, n, request_seed=9, run_seed=9)

    result = benchmark.pedantic(
        run, args=("batched", scales[0]), rounds=2, iterations=1
    )
    assert result.fast_path, result.fast_path_reason
    assert result.served_count == scales[0]
    batched_small_s = benchmark.stats.stats.min

    exact_s = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        exact_result = run("exact", scales[0])
        exact_s = min(exact_s, time.perf_counter() - started)

    assert exact_result.summary() == result.summary()
    assert exact_result.governor_stats == result.governor_stats
    for q in (0.5, 0.9, 0.99):
        assert exact_result.telemetry.stream.latency.quantile(
            q
        ) == result.telemetry.stream.latency.quantile(q)

    curve = {
        f"exact_rps_{scales[0]}": scales[0] / exact_s,
        f"batched_rps_{scales[0]}": scales[0] / batched_small_s,
    }
    for n in scales[1:]:
        elapsed = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            assert run("batched", n).served_count == n
            elapsed = min(elapsed, time.perf_counter() - started)
        curve[f"batched_rps_{n}"] = n / elapsed

    exact_rps = curve[f"exact_rps_{scales[0]}"]
    speedup = max(v for k, v in curve.items() if k.startswith("batched_")) / exact_rps
    benchmark.extra_info["devices"] = ENGINE_CURVE_DEVICES
    benchmark.extra_info["governed_central_speedup_vs_exact"] = speedup
    benchmark.extra_info.update(curve)
    assert speedup > 1.0, (
        f"batch-replay core must beat the exact loop ({exact_rps:.0f} rps) "
        f"on the governed central-queue scenario; measured {speedup:.2f}x"
    )
    if os.environ.get("REPRO_BENCH_SCALE", "1.0") == "1.0":
        assert speedup >= 5.0, (
            f"governed central-queue speedup degraded to {speedup:.1f}x "
            "(expected >= 5x at full scale)"
        )


def test_bench_sweep_worker_scaling(benchmark, bench_scale):
    """Wall time of the full grid serially, recorded against 2 and 4 workers.

    The benchmark times the serial run; parallel runs are timed manually
    into ``extra_info`` (pytest-benchmark can only time one subject), along
    with the resulting speedups and a correctness check that every worker
    count produced identical results.
    """
    config = SystemConfig.paper_default()
    base = SWEEP_SPEC.base
    spec = replace(
        SWEEP_SPEC,
        base=base.with_options(n_requests=bench_scale(base.n_requests, floor=50)),
    )

    serial = benchmark.pedantic(
        run_sweep, args=(spec, config), kwargs={"workers": 1},
        rounds=1, iterations=1,
    )
    serial_s = benchmark.stats.stats.mean
    cells = len(serial.cells)
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["serial_cells_per_second"] = cells / serial_s

    for workers in SWEEP_WORKER_COUNTS[1:]:
        started = time.perf_counter()
        parallel = run_sweep(spec, config, workers=workers)
        elapsed = time.perf_counter() - started
        assert parallel.cells == serial.cells, "parallel sweep diverged from serial"
        benchmark.extra_info[f"speedup_workers_{workers}"] = serial_s / elapsed

    assert cells == 36


def _shard_topology(n_devices: int) -> TopologySpec:
    """A 10-row x 10-rack datacenter with governed budgets at every level."""
    per_rack = max(1, n_devices // 100)
    return TopologySpec.uniform(
        10,
        10,
        per_rack,
        rack_governor=GovernorSpec.greedy(max(1, per_rack // 4)),
        row_governor=GovernorSpec.greedy(max(1, 10 * per_rack // 4)),
        window_s=60.0,
    )


def test_bench_shard_worker_scaling(benchmark, bench_scale):
    """Sharded datacenter runs under diurnal load: 1/2/4/8 workers at 10k
    and 100k devices.

    The benchmark times the 100k-device serial (1-worker) run — the
    acceptance-scale datacenter simulation — and records every other
    (fleet size, worker count) wall time and throughput into
    ``extra_info``.  At each size it asserts the shard-count invariance
    contract: worker count is a speed knob, not a physics knob, so every
    worker count must produce a bit-identical summary.  Every run must
    also ride the batched cores: a rack that falls back to the exact heap
    loop fails the benchmark rather than silently slowing it.  Speedups
    are recorded, not asserted — at light per-rack load the fan-out's job
    pickling can dominate, and that honesty is part of the record.
    """
    config = SystemConfig.paper_default()
    n = bench_scale(SHARD_REQUESTS, floor=2_000)
    arrivals = DiurnalArrivals(base_rate_hz=200.0, amplitude=0.8, period_s=600.0)
    requests = generate_requests(arrivals, GammaService(5.0, 0.5), n, seed=3)

    sizes = [bench_scale(size, floor=400) for size in SHARD_FLEET_SIZES]
    headline_size = sizes[-1]

    def run(n_devices, workers):
        topo = _shard_topology(n_devices)
        fleet = FleetSimulator(config, topology=topo, shard_workers=workers, engine="batched")
        result = fleet.run(requests)
        assert result.fast_path, result.fast_path_reason
        return result

    headline = benchmark.pedantic(
        run, args=(headline_size, 1), rounds=1, iterations=1
    )
    headline_s = benchmark.stats.stats.mean
    summaries = {(headline_size, 1): headline.summary(slo_s=2.0).to_dict()}
    benchmark.extra_info["requests"] = n
    benchmark.extra_info[f"devices_{headline_size}_workers_1_rps"] = n / headline_s

    for size in sizes:
        serial_s = headline_s if size == headline_size else None
        for workers in SHARD_WORKER_COUNTS:
            if (size, workers) in summaries:
                continue
            started = time.perf_counter()
            result = run(size, workers)
            elapsed = time.perf_counter() - started
            summaries[(size, workers)] = result.summary(slo_s=2.0).to_dict()
            if workers == 1:
                serial_s = elapsed
            benchmark.extra_info[f"devices_{size}_workers_{workers}_rps"] = n / elapsed
            if serial_s is not None and workers > 1:
                benchmark.extra_info[
                    f"devices_{size}_speedup_workers_{workers}"
                ] = serial_s / elapsed
        reference = summaries[(size, 1)]
        for workers in SHARD_WORKER_COUNTS[1:]:
            assert summaries[(size, workers)] == reference, (
                f"{size}-device run diverged at {workers} workers: shard "
                "count changed the physics"
            )
        # The governed cascade actually bit in this run, at every size.
        assert reference["request_count"] == n


def test_bench_sharded_replay_matches_exact(benchmark, bench_scale):
    """The datacenter configuration — sharded racks, ``least_loaded``
    dispatch, RC thermals, rack and row budgets — on the batch-replay
    core equals ``engine="exact"`` bit for bit, at reduced scale.

    Times the batched run and records the exact loop's time next to it;
    asserts that every rack took the batched cores and that the result,
    ledgers included, is the exact loop's.
    """
    config = SystemConfig.paper_default()
    n = bench_scale(20_000, floor=2_000)
    arrivals = DiurnalArrivals(base_rate_hz=40.0, amplitude=0.8, period_s=600.0)
    requests = generate_requests(arrivals, GammaService(5.0, 0.5), n, seed=3)
    topology = TopologySpec.uniform(
        4,
        5,
        10,
        rack_governor=GovernorSpec.greedy(2),
        row_governor=GovernorSpec.greedy(6),
        window_s=60.0,
    )

    def run(engine):
        fleet = FleetSimulator(
            config,
            topology=topology,
            policy="least_loaded",
            thermal="rc",
            engine=engine,
        )
        return fleet.run(requests)

    fast = benchmark.pedantic(run, args=("batched",), rounds=1, iterations=1)
    started = time.perf_counter()
    exact = run("exact")
    exact_s = time.perf_counter() - started
    benchmark.extra_info["requests"] = n
    benchmark.extra_info["batched_s"] = benchmark.stats.stats.mean
    benchmark.extra_info["exact_s"] = exact_s
    assert fast.fast_path, fast.fast_path_reason
    assert not exact.fast_path
    assert fast.served == exact.served
    assert fast.device_stats == exact.device_stats
    assert fast.topology_stats == exact.topology_stats
    assert fast.summary() == exact.summary()
    # The budgets actually bit: both levels denied grants.
    denied = fast.topology_stats.denied_by_level()
    assert denied["rack"] > 0 and denied["row"] > 0, denied


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "--benchmark-only", "-q"]))
