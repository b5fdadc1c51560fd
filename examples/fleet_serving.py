"""Fleet serving: sprinting as a tail-latency weapon under real traffic.

The paper's single-device story — sprinting turns idle thermal headroom
into burst responsiveness — becomes a serving story at fleet scale.  This
example uses :mod:`repro.traffic` to show three things:

1. **Degenerate case**: a fleet of one device under deterministic periodic
   arrivals reproduces :meth:`repro.core.pacing.SprintPacer.simulate_periodic`
   exactly, so the fleet simulator is a strict generalisation of the
   single-device pacing model.
2. **p99 latency vs arrival rate**: for a 4-device fleet under Poisson
   traffic, sprinting holds the p99 latency near the sprinted service time
   until the thermal budget saturates, while a no-sprint fleet sits at the
   sustained service time and collapses much earlier.
3. **Error bars on the headline claim**: the sprint-vs-no-sprint p99 gap
   replicated under common random numbers
   (:mod:`repro.traffic.experiments`), reported as a paired delta with a
   confidence interval and sign test instead of two bare numbers.
4. **Dispatch policies under bursty load**: a policy × fleet-size sweep
   (run across worker processes) showing thermal-aware dispatch beating
   round-robin and least-loaded on tail latency.
5. **Central queue vs immediate dispatch at overload**: when demand
   exceeds fleet capacity, a bounded central queue (admission control)
   keeps the served p99 flat by shedding load, while immediate dispatch's
   backlog — and tail — grows without bound.
6. **Deadlines and abandonment**: an earliest-deadline-first central queue
   under per-request latency budgets, reporting abandonment and
   deadline-miss rates against FIFO.

Run with::

    python examples/fleet_serving.py
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import SystemConfig
from repro.core.pacing import SprintPacer
from repro.traffic import (
    DeterministicArrivals,
    FixedService,
    FleetSimulator,
    GammaService,
    MMPPArrivals,
    PoissonArrivals,
    Scenario,
    SweepSpec,
    compare,
    generate_requests,
    run_sweep,
)

TASK_SUSTAINED_S = 5.0
SPRINT_SPEEDUP = 10.0
REQUESTS = 200
ARRIVAL_RATES_HZ = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7)
FLEET_SIZE = 4
SLO_S = 2.0
SWEEP_WORKERS = 4
OVERLOAD_RATE_HZ = 2.0
QUEUE_BOUND = 8
DEADLINE_S = 15.0
ERROR_BAR_RATE_HZ = 0.3
REPLICATIONS = 8


def degenerate_case(config: SystemConfig) -> None:
    """A 1-device fleet under periodic arrivals == the single-device pacer."""
    print("-- degenerate case: 1 device, deterministic arrivals --")
    pacer = SprintPacer(config, sprint_speedup=SPRINT_SPEEDUP)
    interarrival = pacer.minimum_interarrival_s(TASK_SUSTAINED_S) * 0.6
    tasks = min(REQUESTS, 40)

    reference = pacer.simulate_periodic(interarrival, TASK_SUSTAINED_S, tasks)
    requests = generate_requests(
        DeterministicArrivals(interarrival), FixedService(TASK_SUSTAINED_S), tasks
    )
    fleet = FleetSimulator(
        config, n_devices=1, policy="round_robin", sprint_speedup=SPRINT_SPEEDUP
    )
    result = fleet.run(requests)

    pacer_latencies = np.array(
        [o.queueing_delay_s + o.response_time_s for o in reference.outcomes]
    )
    match = np.allclose(result.latencies_s, pacer_latencies)
    print(
        f"spacing {interarrival:.1f}s, {tasks} tasks: per-request latencies "
        f"{'MATCH' if match else 'DIVERGE'} the SprintPacer periodic result "
        f"(sprint fraction {result.summary().sprint_fraction * 100:.0f}% vs "
        f"{reference.sprint_fraction * 100:.0f}%)\n"
    )


def latency_vs_rate(config: SystemConfig) -> None:
    """p99 latency and SLO attainment as Poisson traffic intensifies."""
    print(
        f"-- {FLEET_SIZE}-device fleet, Poisson arrivals, "
        f"{TASK_SUSTAINED_S:.0f}s tasks, SLO {SLO_S:.0f}s --"
    )
    print(
        f"{'rate':>9} {'p50':>8} {'p99':>8} {'SLO%':>6} {'full%':>7}"
        f"   {'p50':>8} {'p99':>8} {'SLO%':>6}"
    )
    print(f"{'':>9} {'---- sprinting fleet ----':>31}   {'---- no-sprint fleet ----':>25}")
    for rate in ARRIVAL_RATES_HZ:
        requests = generate_requests(
            PoissonArrivals(rate), FixedService(TASK_SUSTAINED_S), REQUESTS, seed=17
        )
        rows = []
        for sprint_enabled in (True, False):
            fleet = FleetSimulator(
                config,
                n_devices=FLEET_SIZE,
                policy="least_loaded",
                sprint_speedup=SPRINT_SPEEDUP,
                sprint_enabled=sprint_enabled,
            )
            rows.append(fleet.run(requests).summary(slo_s=SLO_S))
        s, ns = rows
        print(
            f"{rate:8.2f}/s {s.p50_latency_s:7.2f}s {s.p99_latency_s:7.2f}s "
            f"{s.slo_attainment * 100:5.0f}% {s.mean_sprint_fullness * 100:6.0f}% "
            f"  {ns.p50_latency_s:7.2f}s {ns.p99_latency_s:7.2f}s "
            f"{ns.slo_attainment * 100:5.0f}%"
        )
    print()


def latency_error_bars(config: SystemConfig) -> None:
    """The sprint-vs-no-sprint p99 gap, with a CI instead of two bare numbers.

    The table above compares single replications; this replays the
    comparison at one rate as a common-random-numbers paired experiment,
    so the claimed gap carries a confidence interval and a sign test.
    """
    print(
        f"-- error bars: sprint vs no-sprint at {ERROR_BAR_RATE_HZ:.1f}/s, "
        f"{REPLICATIONS} CRN-paired replications --"
    )
    sprinting = Scenario(
        arrivals=PoissonArrivals(ERROR_BAR_RATE_HZ),
        service=GammaService(mean_s=TASK_SUSTAINED_S, cv=0.5),
        n_requests=REQUESTS,
        n_devices=FLEET_SIZE,
        sprint_speedup=SPRINT_SPEEDUP,
        slo_s=SLO_S,
    )
    duel = compare(
        sprinting.with_options(sprint_enabled=False),
        sprinting,
        n_replications=REPLICATIONS,
        config=config,
        workers=SWEEP_WORKERS,
    )
    for label, arm in (("no-sprint", duel.baseline), ("sprint", duel.treatment)):
        p99 = arm.estimate("p99_latency_s")
        slo = arm.estimate("slo_attainment")
        print(
            f"{label:>10}: p99 {p99.mean:6.2f}s ± {p99.half_width:4.2f}s   "
            f"SLO {slo.mean * 100:5.1f}% ± {slo.half_width * 100:4.1f}%"
        )
    delta = duel.delta("p99_latency_s")
    print(
        f"sprinting moves p99 by {delta.mean_delta:+.2f}s ± {delta.half_width:.2f}s "
        f"(95% CI, sign test p={delta.sign_test_p:.3g}) — "
        f"{'significant' if delta.significant else 'not significant'} "
        f"at this replication budget\n"
    )


def dispatch_policy_sweep(config: SystemConfig) -> None:
    """Policy × fleet-size grid under bursty on-off traffic, run in parallel."""
    print("-- dispatch policies under bursty traffic (parallel sweep) --")
    base = Scenario(
        arrivals=MMPPArrivals.bursty_at_rate(0.15),
        service=FixedService(TASK_SUSTAINED_S),
        n_requests=REQUESTS,
        sprint_speedup=SPRINT_SPEEDUP,
        slo_s=SLO_S,
    )
    spec = SweepSpec(
        base,
        axes=(
            ("policy", ("round_robin", "least_loaded", "thermal_aware")),
            ("n_devices", (2, 4)),
        ),
        base_seed=3,
    )
    result = run_sweep(spec, config, workers=SWEEP_WORKERS)
    print(result.format_table())
    best = result.best_cell("p99_latency_s")
    print(
        f"\nbest p99: {best.summary.p99_latency_s:.2f}s with "
        f"{best.cell.scenario.policy} on {best.cell.scenario.n_devices} devices"
    )


def overload_requests(seed: int = 42):
    """Heavy-tailed demand arriving well above fleet capacity."""
    return generate_requests(
        PoissonArrivals(OVERLOAD_RATE_HZ),
        GammaService(mean_s=TASK_SUSTAINED_S, cv=1.0),
        REQUESTS,
        seed=seed,
    )


def central_queue_at_overload(config: SystemConfig) -> None:
    """Immediate vs central-queue dispatch when demand exceeds capacity."""
    print(
        "\n-- central queue vs immediate dispatch at overload "
        f"({OVERLOAD_RATE_HZ:.1f}/s into {FLEET_SIZE} devices) --"
    )
    requests = overload_requests()
    scenarios = [
        ("immediate round_robin", dict(policy="round_robin")),
        ("immediate least_loaded", dict(policy="least_loaded")),
        ("central fifo (unbounded)", dict(mode="central_queue")),
        (
            f"central fifo (bound {QUEUE_BOUND})",
            dict(mode="central_queue", queue_bound=QUEUE_BOUND),
        ),
    ]
    print(f"{'dispatch':>26} {'p50':>8} {'p99':>9} {'served':>7} {'rejected':>9}")
    summaries = {}
    for label, kwargs in scenarios:
        fleet = FleetSimulator(
            config, n_devices=FLEET_SIZE, sprint_speedup=SPRINT_SPEEDUP, **kwargs
        )
        s = fleet.run(requests).summary()
        summaries[label] = s
        print(
            f"{label:>26} {s.p50_latency_s:7.2f}s {s.p99_latency_s:8.2f}s "
            f"{s.request_count:7d} {s.rejected_count:9d}"
        )
    bounded = summaries[f"central fifo (bound {QUEUE_BOUND})"]
    immediate = summaries["immediate least_loaded"]
    verdict = "BEATS" if bounded.p99_latency_s < immediate.p99_latency_s else "trails"
    print(
        f"\nadmission control {verdict} immediate dispatch on served p99 "
        f"({bounded.p99_latency_s:.2f}s vs {immediate.p99_latency_s:.2f}s) by "
        f"shedding {bounded.rejected_count}/{bounded.offered_count} requests"
    )


def deadline_scenario(config: SystemConfig) -> None:
    """Per-request deadlines in a central queue: abandonment and miss rates.

    Two request classes share the fleet: interactive requests with a tight
    latency budget and batch requests that can wait four times longer.
    FIFO ignores urgency; EDF pulls interactive requests forward, so fewer
    of them give up in the queue.
    """
    print(
        f"\n-- deadlines at overload: interactive ({DEADLINE_S:.0f}s budget) "
        f"vs batch ({4 * DEADLINE_S:.0f}s), central queue --"
    )
    requests = [
        replace(r, deadline_s=DEADLINE_S if r.index % 2 == 0 else 4 * DEADLINE_S)
        for r in overload_requests()
    ]
    interactive = {r.index for r in requests if r.deadline_s == DEADLINE_S}
    print(
        f"{'discipline':>12} {'served':>7} {'abandoned':>10} {'late':>5} "
        f"{'miss%':>7} {'interactive-miss%':>18}"
    )
    for discipline in ("fifo", "edf"):
        fleet = FleetSimulator(
            config,
            n_devices=FLEET_SIZE,
            sprint_speedup=SPRINT_SPEEDUP,
            mode="central_queue",
            discipline=discipline,
        )
        result = fleet.run(requests)
        s = result.summary()
        missed = s.abandoned_count + s.deadline_miss_count
        interactive_missed = sum(
            1 for r in result.abandoned if r.index in interactive
        ) + sum(
            1
            for served in result.served
            if served.request.index in interactive and served.missed_deadline
        )
        print(
            f"{discipline:>12} {s.request_count:7d} {s.abandoned_count:10d} "
            f"{s.deadline_miss_count:5d} {missed / s.offered_count * 100:6.1f}% "
            f"{interactive_missed / len(interactive) * 100:17.1f}%"
        )
    print(
        "(abandoned = gave up waiting in the queue; late = served but past "
        "the deadline)"
    )


def main() -> None:
    config = SystemConfig.paper_default()
    print(
        f"platform: {config.machine.n_cores} cores, TDP "
        f"{config.sustainable_power_w:.1f} W, sprint {config.sprint_power_w:.0f} W, "
        f"PCM {config.package.pcm_mass_g * 1000:.0f} mg\n"
    )
    degenerate_case(config)
    latency_vs_rate(config)
    latency_error_bars(config)
    dispatch_policy_sweep(config)
    central_queue_at_overload(config)
    deadline_scenario(config)


if __name__ == "__main__":
    main()
