"""Engine execution modes: exact events and vectorized blocks.

The serving engine answers the same question on two execution paths, and
this example runs both side by side:

1. **Bit-identity**: the ``batched`` execution mode is not an
   approximation — on its supported envelope (round-robin, random or
   least-loaded dispatch or a FIFO central queue, any thermal backend,
   greedy or cooperative budgets, observers welcome) it replays the exact
   engine's float operations, and every latency matches bit for bit.
2. **Honest fallback**: outside that envelope the vector core does not
   guess — the engine reports *why* (``fast_path_reason``) and takes the
   exact event loop, so ``engine="batched"`` is always safe to request.
3. **Throughput curve**: requests/second of exact vs batched as the
   stream grows, on a 256-device fleet with flat memory
   (``keep_samples=False``) — the fast path's reason to exist.

Run with::

    python examples/fast_path_study.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import SystemConfig
from repro.traffic import (
    FixedService,
    FleetSimulator,
    GammaService,
    GovernorSpec,
    PoissonArrivals,
    generate_requests,
)

CURVE_DEVICES = 256
CURVE_SIZES = (20_000, 100_000, 500_000)
CURVE_RATE_HZ = 50.0
IDENTITY_REQUESTS = 5_000


def bit_identity(config: SystemConfig) -> None:
    """Same stream through both execution modes: every float matches."""
    print(f"-- bit-identity: {IDENTITY_REQUESTS} requests, 16 devices --")
    requests = generate_requests(
        PoissonArrivals(2.0), GammaService(2.0, cv=1.0), IDENTITY_REQUESTS, seed=4
    )

    def run(engine: str):
        fleet = FleetSimulator(
            config, n_devices=16, policy="round_robin", engine=engine
        )
        return fleet.run(requests, seed=9)

    exact, batched = run("exact"), run("batched")
    assert np.array_equal(exact.latencies_s, batched.latencies_s)
    assert exact.device_stats == batched.device_stats
    se, sb = exact.summary(slo_s=2.0), batched.summary(slo_s=2.0)
    print(f"{'':>16} {'exact':>10} {'batched':>10}")
    for name in ("mean_latency_s", "p99_latency_s", "sprint_fraction"):
        print(f"{name:>16} {getattr(se, name):10.6f} {getattr(sb, name):10.6f}")
    print("every per-request latency and device stat is bit-identical\n")


def honest_fallback(config: SystemConfig) -> None:
    """Unsupported configurations name their reason and run exactly."""
    print("-- honest fallback: why the vector core is (not) engaged --")
    cases = {
        "round_robin, ungoverned, linear": dict(policy="round_robin"),
        "least_loaded dispatch": dict(policy="least_loaded"),
        "central queue": dict(policy="round_robin", mode="central_queue"),
        "greedy power governor": dict(
            policy="round_robin",
            governor=GovernorSpec(policy="greedy", max_concurrent_sprints=4),
        ),
        "RC thermal backend": dict(policy="round_robin", thermal="rc"),
        "thermal_aware dispatch": dict(policy="thermal_aware"),
        "token-bucket power governor": dict(
            policy="round_robin", governor=GovernorSpec.token_bucket(0.5, 3.0)
        ),
    }
    for label, kwargs in cases.items():
        fleet = FleetSimulator(config, n_devices=4, engine="batched", **kwargs)
        reason = fleet._make_engine().fast_path_reason
        status = "vector core" if reason is None else f"exact loop: {reason}"
        print(f"  {label:<34} -> {status}")
    print()


def throughput_curve(config: SystemConfig) -> None:
    """Requests/second of each execution mode as the stream grows."""
    print(f"-- throughput curve: {CURVE_DEVICES} devices, flat memory --")
    arrivals = PoissonArrivals(CURVE_RATE_HZ)
    service = FixedService(5.0)

    def measure(engine: str, n: int) -> float:
        fleet = FleetSimulator(
            config,
            CURVE_DEVICES,
            policy="round_robin",
            keep_samples=False,
            telemetry=False,
            engine=engine,
        )
        started = time.perf_counter()
        result = fleet.run_stream(arrivals, service, n, request_seed=9, run_seed=9)
        elapsed = time.perf_counter() - started
        assert result.served_count == n
        return n / elapsed

    print(f"{'requests':>10} {'exact':>12} {'batched':>12} {'speedup':>9}")
    for n in CURVE_SIZES:
        exact_rps = measure("exact", n)
        batched_rps = measure("batched", n)
        print(
            f"{n:>10} {exact_rps:>10.0f}/s {batched_rps:>10.0f}/s "
            f"{batched_rps / exact_rps:>8.1f}x"
        )
    print("(requests simulated per wall-second; speedup is batched vs exact)\n")


def main() -> None:
    config = SystemConfig.paper_default()
    bit_identity(config)
    honest_fallback(config)
    throughput_curve(config)
    print(
        "same physics, two costs: exact events for any configuration, "
        "vectorized blocks for scale where the envelope allows"
    )


if __name__ == "__main__":
    main()
