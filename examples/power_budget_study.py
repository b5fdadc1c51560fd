"""Fleet power budgets: coordinated sprinting under a shared supply.

The paper's capacitance argument is device-local — thermal mass lets one
chip briefly exceed its sustainable power.  A rack replays it one level
up: the provisioned supply (and its breaker) is sized for the fleet's
sustained draw plus limited headroom, so concurrent sprints share a power
budget the way one chip's sprints share a heat reservoir.  This example
uses :mod:`repro.traffic.governor` to show four things:

1. **p99 vs sprint concurrency cap**: an oversubscribed fleet (sprint
   demand above the provisioned headroom) under a ``greedy`` governor —
   tightening the cap walks the tail from sprint-speed latencies to
   sustained-speed collapse, the core provisioning trade-off.
2. **Breaker trips**: at the same offered load and the same trip point, a
   breaker-oblivious ``greedy`` governor trips the breaker (forcing
   fleet-wide non-sprint recovery windows) while ``cooperative-threshold``
   keeps projected draw under the trip point and never trips — and wins
   the tail because of it.
3. **Burst credit**: two ``token-bucket`` governors with the *same*
   sustained sprint rate, with and without stored burst credit, under
   bursty on-off traffic — the stored credit is what saves the tail
   during bursts, the capacitance argument at rack scale.
4. **Governor grid**: a parallel :func:`repro.traffic.run_sweep` over the
   governor axis, showing the whole policy × budget surface at once.
5. **Governance with error bars**: the greedy-vs-cooperative tail claim
   replicated under common random numbers
   (:mod:`repro.traffic.experiments`) — the p99 difference as a paired
   confidence interval and sign test, not a single-seed anecdote.

Run with::

    python examples/power_budget_study.py
"""

from __future__ import annotations

from repro import SystemConfig
from repro.traffic import (
    FleetSimulator,
    GammaService,
    GovernorSpec,
    MMPPArrivals,
    PoissonArrivals,
    Scenario,
    SweepSpec,
    compare,
    generate_requests,
    run_sweep,
)

TASK_SUSTAINED_S = 5.0
SERVICE_CV = 0.5
FLEET_SIZE = 16
REQUESTS = 500
ARRIVAL_RATE_HZ = 1.5
SLO_S = 2.0
SPRINT_CAPS = (1, 2, 4, 8, 16)
TRIP_SPRINTS = 4  # breaker trip point, in concurrent full-sprint draws
PENALTY_S = 60.0
TOKEN_RATE_HZ = 1.5
TOKEN_BURSTS = (1, 30)
BURSTY_REQUESTS = 400
SWEEP_WORKERS = 4
REPLICATIONS = 8


def offered_requests(seed: int = 11):
    """Poisson traffic whose sprint demand exceeds a tight power budget."""
    return generate_requests(
        PoissonArrivals(ARRIVAL_RATE_HZ),
        GammaService(mean_s=TASK_SUSTAINED_S, cv=SERVICE_CV),
        REQUESTS,
        seed=seed,
    )


def concurrency_cap_study(config: SystemConfig) -> None:
    """p99 vs sprint concurrency cap on an oversubscribed fleet."""
    print(
        f"-- oversubscribed fleet: p99 vs sprint concurrency cap "
        f"({ARRIVAL_RATE_HZ:.1f}/s into {FLEET_SIZE} devices, greedy governor) --"
    )
    requests = offered_requests()
    print(
        f"{'cap':>6} {'p50':>7} {'p95':>7} {'p99':>8} {'SLO%':>6} "
        f"{'granted':>8} {'denied':>7} {'at-cap':>8}"
    )
    rows = {}
    for cap in SPRINT_CAPS:
        fleet = FleetSimulator(
            config, FLEET_SIZE, governor=GovernorSpec.greedy(cap)
        )
        s = fleet.run(requests).summary(slo_s=SLO_S)
        rows[cap] = s
        print(
            f"{cap:6d} {s.p50_latency_s:6.2f}s {s.p95_latency_s:6.2f}s "
            f"{s.p99_latency_s:7.2f}s {s.slo_attainment * 100:5.0f}% "
            f"{s.sprints_granted:8d} {s.sprints_denied:7d} {s.time_at_cap_s:7.1f}s"
        )
    unlimited = FleetSimulator(config, FLEET_SIZE).run(requests).summary(slo_s=SLO_S)
    print(
        f"{'∞':>6} {unlimited.p50_latency_s:6.2f}s {unlimited.p95_latency_s:6.2f}s "
        f"{unlimited.p99_latency_s:7.2f}s {unlimited.slo_attainment * 100:5.0f}%"
        f"{'':>8} {'':>7} {'':>8}"
    )
    tightest, widest = rows[SPRINT_CAPS[0]], rows[SPRINT_CAPS[-1]]
    print(
        f"\ntightening the cap from {SPRINT_CAPS[-1]} to {SPRINT_CAPS[0]} trades "
        f"{widest.p99_latency_s:.1f}s p99 for {tightest.p99_latency_s:.1f}s — "
        f"provisioned headroom, not device thermals, sets the tail\n"
    )


def breaker_study(config: SystemConfig) -> None:
    """Greedy trips the breaker; cooperative-threshold avoids it."""
    excess_w = config.sprint_power_w - config.sustainable_power_w
    trip_w = TRIP_SPRINTS * excess_w
    print(
        f"-- breaker at {trip_w:.0f} W headroom ({TRIP_SPRINTS} concurrent sprints), "
        f"{PENALTY_S:.0f}s recovery, same offered load --"
    )
    requests = offered_requests()
    scenarios = [
        (
            "greedy (oblivious)",
            GovernorSpec.greedy(FLEET_SIZE, trip_headroom_w=trip_w, penalty_s=PENALTY_S),
        ),
        ("cooperative-threshold", GovernorSpec.cooperative(trip_w, penalty_s=PENALTY_S)),
    ]
    print(f"{'governor':>22} {'p99':>8} {'SLO%':>6} {'trips':>6} {'at-cap':>8}")
    outcomes = {}
    for label, spec in scenarios:
        result = FleetSimulator(config, FLEET_SIZE, governor=spec).run(requests)
        s = result.summary(slo_s=SLO_S)
        outcomes[label] = s
        print(
            f"{label:>22} {s.p99_latency_s:7.2f}s {s.slo_attainment * 100:5.0f}% "
            f"{s.breaker_trips:6d} {s.time_at_cap_s:7.1f}s"
        )
    greedy, coop = outcomes["greedy (oblivious)"], outcomes["cooperative-threshold"]
    print(
        f"\ncooperative-threshold avoids all {greedy.breaker_trips} breaker trips "
        f"greedy incurs at this load, and the saved recovery windows buy the tail: "
        f"{coop.p99_latency_s:.1f}s vs {greedy.p99_latency_s:.1f}s p99\n"
    )


def burst_credit_study(config: SystemConfig) -> None:
    """Token buckets at one sustained rate: burst credit is the capacitance."""
    print(
        f"-- token-bucket burst credit under bursty on-off traffic "
        f"(sustained {TOKEN_RATE_HZ:.1f} sprints/s either way) --"
    )
    bursty = generate_requests(
        MMPPArrivals.bursty(
            burst_rate_hz=5 * ARRIVAL_RATE_HZ,
            mean_burst_s=4.0,
            mean_idle_s=16.0,
        ),
        GammaService(mean_s=TASK_SUSTAINED_S, cv=SERVICE_CV),
        BURSTY_REQUESTS,
        seed=5,
    )
    print(f"{'burst credit':>13} {'p50':>7} {'p99':>8} {'SLO%':>6} {'granted':>8} {'denied':>7}")
    for burst in TOKEN_BURSTS:
        spec = GovernorSpec.token_bucket(TOKEN_RATE_HZ, burst)
        s = FleetSimulator(config, FLEET_SIZE, governor=spec).run(bursty).summary(
            slo_s=SLO_S
        )
        print(
            f"{burst:13d} {s.p50_latency_s:6.2f}s {s.p99_latency_s:7.2f}s "
            f"{s.slo_attainment * 100:5.0f}% {s.sprints_granted:8d} {s.sprints_denied:7d}"
        )
    print(
        "\nsame repayment rate, different stored slack: the burst credit — the "
        "rack's capacitance — is what absorbs each burst's sprint demand\n"
    )


def governor_sweep(config: SystemConfig) -> None:
    """The governor axis in the scenario sweep, fanned across processes."""
    print("-- governor grid (parallel sweep over the governors axis) --")
    excess_w = config.sprint_power_w - config.sustainable_power_w
    base = Scenario(
        arrivals=PoissonArrivals(ARRIVAL_RATE_HZ),
        service=GammaService(mean_s=TASK_SUSTAINED_S, cv=SERVICE_CV),
        n_requests=REQUESTS,
        n_devices=FLEET_SIZE,
        slo_s=SLO_S,
    )
    governors = (
        GovernorSpec.unlimited(),
        GovernorSpec.greedy(TRIP_SPRINTS),
        GovernorSpec.token_bucket(TOKEN_RATE_HZ, 30),
        GovernorSpec.cooperative(TRIP_SPRINTS * excess_w),
    )
    spec = SweepSpec(base, axes=(("governor", governors),), base_seed=11)
    result = run_sweep(spec, config, workers=SWEEP_WORKERS)
    print(result.format_table())
    best = result.best_cell("p99_latency_s")
    print(
        f"\nbest p99 under a budget: {best.summary.p99_latency_s:.2f}s with "
        f"{best.cell.scenario.governor.label}"
    )


def governance_error_bars(config: SystemConfig) -> None:
    """Greedy vs cooperative-threshold, replicated: the gap with a CI.

    The breaker study above is one seed; here the same duel runs as a
    common-random-numbers paired experiment, so the cooperative governor's
    tail win is reported with a confidence interval and a sign test.
    """
    excess_w = config.sprint_power_w - config.sustainable_power_w
    trip_w = TRIP_SPRINTS * excess_w
    print(
        f"\n-- governance error bars: greedy vs cooperative at the same "
        f"{trip_w:.0f} W breaker, {REPLICATIONS} CRN-paired replications --"
    )
    greedy = Scenario(
        arrivals=PoissonArrivals(ARRIVAL_RATE_HZ),
        service=GammaService(mean_s=TASK_SUSTAINED_S, cv=SERVICE_CV),
        n_requests=REQUESTS,
        n_devices=FLEET_SIZE,
        governor=GovernorSpec.greedy(
            FLEET_SIZE, trip_headroom_w=trip_w, penalty_s=PENALTY_S
        ),
        slo_s=SLO_S,
    )
    cooperative = greedy.with_options(
        governor=GovernorSpec.cooperative(trip_w, penalty_s=PENALTY_S)
    )
    duel = compare(
        greedy,
        cooperative,
        n_replications=REPLICATIONS,
        config=config,
        workers=SWEEP_WORKERS,
    )
    for label, arm in (("greedy", duel.baseline), ("cooperative", duel.treatment)):
        p99 = arm.estimate("p99_latency_s")
        trips = arm.estimate("breaker_trips")
        print(
            f"{label:>12}: p99 {p99.mean:6.2f}s ± {p99.half_width:5.2f}s   "
            f"trips {trips.mean:5.1f} ± {trips.half_width:4.1f}"
        )
    delta = duel.delta("p99_latency_s")
    print(
        f"cooperative moves p99 by {delta.mean_delta:+.2f}s ± {delta.half_width:.2f}s "
        f"(95% CI, sign test p={delta.sign_test_p:.3g}) — "
        f"{'significant' if delta.significant else 'not significant'}: "
        f"breaker avoidance is a claim that survives error bars"
    )


def main() -> None:
    config = SystemConfig.paper_default()
    excess_w = config.sprint_power_w - config.sustainable_power_w
    print(
        f"platform: sustained {config.sustainable_power_w:.1f} W, sprint "
        f"{config.sprint_power_w:.0f} W (+{excess_w:.1f} W excess per sprint); "
        f"fleet of {FLEET_SIZE} provisioned for sustained draw plus headroom\n"
    )
    concurrency_cap_study(config)
    breaker_study(config)
    burst_credit_study(config)
    governor_sweep(config)
    governance_error_bars(config)


if __name__ == "__main__":
    main()
