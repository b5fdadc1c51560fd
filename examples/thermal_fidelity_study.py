"""Thermal fidelity: what the coarse reservoir hides about sprint pacing.

The serving stack paces sprints against a heat reservoir whose physics is
a pluggable backend (:mod:`repro.core.thermal_backend`): the paper's
``linear`` rule of thumb (drain at constant sustainable power), ``rc``
Newtonian cooling (drain slows as the package approaches ambient), and
``pcm`` enthalpy physics (the Figure 4 melt plateau, re-run per request).
This example shows where the fidelity choice matters:

1. **Melt plateau under serving load**: back-to-back requests on one
   ``pcm`` device walk the reservoir through the melt — temperature pins
   at the melting point, every request keeps its *full* sprint while the
   PCM melts, and capacity falls off sharply once the block is molten,
   reproducing Figure 4 as a serving-side effect.
2. **Cooldown fidelity**: after a sprint burst, how much budget has
   really recovered?  The linear drain empties the reservoir on schedule;
   RC and PCM keep heat in the tail — the regime where the rule of thumb
   is optimistic about the next burst's budget.
3. **p99 misprediction under bursty MMPP traffic**: the same request
   stream served by fleets differing only in backend — the signed p99 gap
   is the error a capacity planner absorbs by trusting the coarse model.
4. **Thermal grid sweep**: the ``thermals`` axis in a parallel
   :func:`repro.traffic.run_sweep`, pairing fidelity against arrival rate
   in one grid.

Run with::

    python examples/thermal_fidelity_study.py
"""

from __future__ import annotations

from repro import SystemConfig
from repro.core.thermal_backend import THERMAL_BACKENDS, ThermalSpec
from repro.traffic.arrivals import BURST_FACTOR
from repro.traffic import (
    FleetSimulator,
    GammaService,
    MMPPArrivals,
    Scenario,
    SprintDevice,
    SweepSpec,
    generate_requests,
    run_sweep,
)

PLATEAU_TASK_S = 1.0
PLATEAU_TASKS = 18
TASK_SUSTAINED_S = 5.0
SERVICE_CV = 0.5
FLEET_SIZE = 4
REQUESTS = 400
ARRIVAL_RATES_HZ = (0.2, 0.4, 0.8)
RECOVERY_HORIZONS_S = (2.0, 5.0, 10.0, 20.0, 40.0)
SWEEP_WORKERS = 4


def melt_plateau_study(config: SystemConfig) -> None:
    """Back-to-back requests ride the Figure 4 plateau on a pcm device."""
    device = SprintDevice(config, thermal="pcm")
    requests = generate_requests(
        # Arrivals far faster than service: the device queue keeps the
        # reservoir from draining between requests.
        MMPPArrivals.bursty(burst_rate_hz=100.0, mean_burst_s=60.0, mean_idle_s=1.0),
        GammaService(mean_s=PLATEAU_TASK_S, cv=0.0),
        PLATEAU_TASKS,
        seed=2,
    )
    print(
        f"-- melt plateau: {PLATEAU_TASKS} back-to-back {PLATEAU_TASK_S:.0f}s tasks "
        f"on one pcm-backed device --"
    )
    print(f"{'req':>4} {'melt%':>6} {'temp':>7} {'fullness':>9} {'stored':>8}")
    served = [device.serve(r) for r in requests]
    for s in served:
        print(
            f"{s.request.index:4d} {s.melt_fraction * 100:5.0f}% "
            f"{s.package_temperature_c:6.1f}C {s.sprint_fullness:9.2f} "
            f"{s.stored_heat_after_j:7.2f}J"
        )
    melting = [s for s in served if s.melt_fraction < 1.0]
    molten = [s for s in served if s.melt_fraction >= 1.0]
    assert melting and molten, "stream should cross the full-melt boundary"
    assert all(s.sprint_fullness == 1.0 for s in melting)
    assert any(s.sprint_fullness < 1.0 for s in molten)
    plateau = [s for s in melting if 0.0 < s.melt_fraction]
    melt_c = config.package.melting_point_c
    assert all(abs(s.package_temperature_c - melt_c) < 1e-6 for s in plateau)
    print(
        f"\nthe device holds full sprint capacity through the melt plateau "
        f"(fullness 1.00 for all {len(melting)} requests while melting, "
        f"temperature pinned at {melt_c:.0f}C), then falls off sharply: "
        f"{sum(1 for s in molten if s.sprint_fullness < 1.0)} of {len(molten)} "
        f"post-melt requests degrade\n"
    )


def cooldown_fidelity_study(config: SystemConfig) -> None:
    """Budget recovery after a burst, per backend: where linear is optimistic."""
    print("-- cooldown fidelity: budget recovered after a full-reservoir burst --")
    backends = {name: ThermalSpec(backend=name).build(config) for name in THERMAL_BACKENDS}
    capacity = backends["linear"].capacity_j
    for backend in backends.values():
        backend.deposit(capacity)
    header = "".join(f"{f'{h:.0f}s':>9}" for h in RECOVERY_HORIZONS_S)
    print(f"{'backend':>8} {header}   (available budget, % of capacity)")
    recovered = {}
    for name, backend in backends.items():
        fractions = [
            1.0 - backend.projected_stored_heat_j(h) / capacity
            for h in RECOVERY_HORIZONS_S
        ]
        recovered[name] = fractions
        row = "".join(f"{f * 100:8.0f}%" for f in fractions)
        print(f"{name:>8} {row}")
    gaps = {
        name: max(
            (lin - phys) * 100
            for lin, phys in zip(recovered["linear"], recovered[name])
        )
        for name in ("rc", "pcm")
    }
    print(
        f"\nat its worst horizon the linear rule of thumb over-promises "
        f"{gaps['rc']:.0f}% of capacity vs rc cooling and {gaps['pcm']:.0f}% vs "
        f"the pcm enthalpy physics — budget the coarse model reports recovered "
        f"that the package does not have\n"
    )


def p99_misprediction_study(config: SystemConfig) -> None:
    """The signed p99 error of the coarse backend under bursty MMPP load."""
    print(
        f"-- p99 misprediction under bursty MMPP traffic "
        f"({FLEET_SIZE} devices, burst factor {BURST_FACTOR:.0f}x) --"
    )
    print(
        f"{'rate':>8} {'backend':>8} {'p50':>7} {'p99':>8} {'full%':>6} "
        f"{'peak melt':>10} {'linear err':>11}"
    )
    for rate in ARRIVAL_RATES_HZ:
        requests = generate_requests(
            MMPPArrivals.bursty_at_rate(rate),
            GammaService(mean_s=TASK_SUSTAINED_S, cv=SERVICE_CV),
            REQUESTS,
            seed=13,
        )
        summaries = {}
        for name in THERMAL_BACKENDS:
            fleet = FleetSimulator(config, FLEET_SIZE, thermal=name)
            summaries[name] = fleet.run(requests).summary()
        linear_p99 = summaries["linear"].p99_latency_s
        for name in THERMAL_BACKENDS:
            s = summaries[name]
            if name == "linear":
                err = "(reference)"
            else:
                signed = (linear_p99 - s.p99_latency_s) / s.p99_latency_s * 100
                err = f"{signed:+10.1f}%"
            print(
                f"{rate:7.2f}/s {name:>8} {s.p50_latency_s:6.2f}s "
                f"{s.p99_latency_s:7.2f}s {s.mean_sprint_fullness * 100:5.0f}% "
                f"{s.peak_melt_fraction * 100:9.0f}% {err:>11}"
            )
    print(
        "\nthe 'linear err' column is the tail-latency error a planner absorbs "
        "by pacing with the rule of thumb instead of the package physics: "
        "negative means the coarse model promised a faster tail than the "
        "physics delivers\n"
    )


def thermal_grid_sweep(config: SystemConfig) -> None:
    """The thermals axis in the scenario sweep, fanned across processes."""
    print("-- thermal grid (parallel sweep over the thermals axis) --")
    base = Scenario(
        arrivals=MMPPArrivals.bursty_at_rate(ARRIVAL_RATES_HZ[0]),
        service=GammaService(mean_s=TASK_SUSTAINED_S, cv=SERVICE_CV),
        n_requests=REQUESTS,
        n_devices=FLEET_SIZE,
        policy="thermal_aware",
    )
    arrivals = tuple(MMPPArrivals.bursty_at_rate(rate) for rate in ARRIVAL_RATES_HZ)
    thermals = tuple(ThermalSpec(backend=name) for name in THERMAL_BACKENDS)
    spec = SweepSpec(
        base, axes=(("arrivals", arrivals), ("thermal", thermals)), base_seed=13
    )
    result = run_sweep(spec, config, workers=SWEEP_WORKERS)
    print(result.format_table())
    worst = max(
        (cell for cell in result.cells),
        key=lambda c: c.summary.p99_latency_s,
    )
    print(
        f"\nworst tail on the grid: {worst.summary.p99_latency_s:.2f}s p99 at "
        f"{worst.cell.scenario.arrivals.mean_rate_hz():.2f}/s with the "
        f"{worst.cell.scenario.thermal.label} backend"
    )


def main() -> None:
    config = SystemConfig.paper_default()
    print(
        f"platform: sustained {config.sustainable_power_w:.1f} W, sprint "
        f"{config.sprint_power_w:.0f} W, reservoir "
        f"{config.package.sprint_budget_j(config.sprint_power_w):.1f} J "
        f"({config.package.pcm_mass_g * 1000:.0f} mg PCM melting at "
        f"{config.package.melting_point_c:.0f}C)\n"
    )
    melt_plateau_study(config)
    cooldown_fidelity_study(config)
    p99_misprediction_study(config)
    thermal_grid_sweep(config)


if __name__ == "__main__":
    main()
