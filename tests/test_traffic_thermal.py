"""Thermal backends through the serving stack: regression lock + integration.

The heart of this file is the golden-value regression matrix: the
``GOLDEN`` table below was generated by the pre-backend code (when
:class:`~repro.core.pacing.SprintPacer` inlined the linear reservoir
arithmetic) across dispatch policies × engine modes × governors, and the
default ``linear`` backend must reproduce it **bit-identically** — exact
float equality, no tolerance.  The rest covers telemetry flowing into
:class:`ServedRequest` / :class:`TrafficSummary` / :class:`DeviceStats`
through both dispatch modes, the sweep's thermal axis with its
redundant-cell collapse, and the fidelity gap the physics backends open
under load.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.thermal_backend import THERMAL_BACKENDS, ThermalSpec
from repro.traffic import (
    FixedService,
    FleetSimulator,
    GammaService,
    GovernorSpec,
    MMPPArrivals,
    PoissonArrivals,
    Scenario,
    SweepSpec,
    generate_requests,
    run_sweep,
)
from repro.traffic.sweep import expand_cells

#: (policy, mode, governor) -> (sum of latencies, max latency, total stored
#: heat across devices, served count), produced by the pre-backend code.
GOLDEN = {
    ("round_robin", "immediate", "unlimited"): (
        1071.3856709522884, 30.907765727067748, 55.470074721163215, 150,
    ),
    ("round_robin", "immediate", "greedy"): (
        1058.4877904635637, 30.59572702157174, 55.148858406682, 150,
    ),
    ("round_robin", "immediate", "token"): (
        970.1479030819012, 26.754013137718808, 51.81083193090812, 150,
    ),
    ("least_loaded", "immediate", "unlimited"): (
        736.6338454858683, 24.897428230587828, 59.175000000000004, 150,
    ),
    ("least_loaded", "immediate", "greedy"): (
        744.312340789364, 24.178070489151644, 59.175000000000004, 150,
    ),
    ("least_loaded", "immediate", "token"): (
        695.2353169363614, 22.164006753514293, 47.391576631839065, 150,
    ),
    ("least_loaded", "central_queue", "unlimited"): (
        736.6338454858683, 24.897428230587828, 59.175000000000004, 150,
    ),
    ("least_loaded", "central_queue", "greedy"): (
        748.3450760877714, 24.80272878701016, 49.97955610359007, 150,
    ),
    ("least_loaded", "central_queue", "token"): (
        693.7881656324562, 22.164006753514293, 51.3392006587127, 150,
    ),
    ("thermal_aware", "immediate", "unlimited"): (
        714.1920592882286, 24.469059254934344, 56.679537288029955, 150,
    ),
    ("thermal_aware", "immediate", "greedy"): (
        721.6651693068043, 24.365751981727506, 55.54449838390706, 150,
    ),
    ("thermal_aware", "immediate", "token"): (
        675.7716278740725, 23.872315213248037, 47.91995433798007, 150,
    ),
    ("random", "immediate", "unlimited"): (
        1816.1502545899498, 48.326777823764324, 53.44296784234927, 150,
    ),
    ("random", "immediate", "greedy"): (
        1816.1502545899498, 48.326777823764324, 53.44296784234927, 150,
    ),
    ("random", "immediate", "token"): (
        1668.67647253171, 45.445639157072286, 50.216748987038045, 150,
    ),
}

_GOVERNORS = {
    "unlimited": GovernorSpec(),
    "greedy": GovernorSpec.greedy(2),
    "token": GovernorSpec.token_bucket(0.2, 3),
}


@pytest.fixture(scope="module")
def config():
    return SystemConfig.paper_default()


@pytest.fixture(scope="module")
def golden_requests():
    return generate_requests(
        PoissonArrivals(0.6),
        GammaService(mean_s=5.0, cv=0.7),
        150,
        seed=11,
        deadline_s=30.0,
    )


class TestLinearBackendRegressionLock:
    @pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
    def test_default_backend_is_bit_identical_to_pre_refactor(
        self, key, config, golden_requests
    ):
        policy, mode, governor = key
        fleet = FleetSimulator(
            config,
            n_devices=3,
            policy=policy,
            mode=mode,
            discipline="edf" if mode == "central_queue" else "fifo",
            governor=_GOVERNORS[governor],
        )
        result = fleet.run(golden_requests, seed=7)
        latency_sum, latency_max, heat, count = GOLDEN[key]
        latencies = result.latencies_s
        # Exact equality on purpose: the linear backend must not perturb a
        # single bit of the pre-backend arithmetic.
        assert float(latencies.sum()) == latency_sum
        assert float(latencies.max()) == latency_max
        assert sum(d.stored_heat_j for d in result.device_stats) == heat
        assert len(result.served) == count

    def test_explicit_linear_spec_matches_default(self, config, golden_requests):
        default = FleetSimulator(config, 3).run(golden_requests, seed=7)
        explicit = FleetSimulator(config, 3, thermal=ThermalSpec.linear()).run(
            golden_requests, seed=7
        )
        named = FleetSimulator(config, 3, thermal="linear").run(golden_requests, seed=7)
        assert np.array_equal(default.latencies_s, explicit.latencies_s)
        assert np.array_equal(default.latencies_s, named.latencies_s)


class TestTelemetryThroughTheStack:
    @pytest.mark.parametrize("mode", ["immediate", "central_queue"])
    def test_pcm_telemetry_rides_every_served_request(self, config, mode):
        requests = generate_requests(
            PoissonArrivals(0.5), FixedService(5.0), 60, seed=3
        )
        fleet = FleetSimulator(config, 2, mode=mode, thermal="pcm")
        result = fleet.run(requests)
        ambient = config.package.limits.ambient_c
        assert all(s.package_temperature_c >= ambient for s in result.served)
        assert any(s.melt_fraction > 0.0 for s in result.served)
        summary = result.summary()
        assert summary.peak_melt_fraction > 0.0
        assert summary.peak_temperature_c >= config.package.melting_point_c
        assert summary.peak_stored_heat_j > 0.0
        assert 0.0 < summary.mean_stored_heat_j <= summary.peak_stored_heat_j

    def test_device_stats_carry_final_thermal_state(self, config):
        requests = generate_requests(PoissonArrivals(1.0), FixedService(5.0), 40, seed=5)
        result = FleetSimulator(config, 2, thermal="pcm").run(requests)
        for stats in result.device_stats:
            assert stats.package_temperature_c >= config.package.limits.ambient_c
            assert 0.0 <= stats.melt_fraction <= 1.0
        assert any(s.melt_fraction > 0.0 for s in result.device_stats)

    def test_linear_backend_reports_proxy_temperature(self, config):
        requests = generate_requests(PoissonArrivals(0.5), FixedService(5.0), 30, seed=3)
        result = FleetSimulator(config, 2).run(requests)
        limits = config.package.limits
        for served in result.served:
            assert limits.ambient_c <= served.package_temperature_c
            assert served.package_temperature_c <= limits.max_junction_c + 1e-9
            assert served.melt_fraction == 0.0
        assert result.summary().peak_melt_fraction == 0.0

    def test_validation(self, config):
        with pytest.raises(ValueError, match="unknown thermal backend"):
            FleetSimulator(config, 1, thermal="granite")
        with pytest.raises(TypeError, match="thermal must be"):
            FleetSimulator(config, 1, thermal=3.14)


class TestFidelityGap:
    def test_physics_backends_shift_the_tail_under_bursts(self, config):
        """The fidelity gap is real: on a bursty stream the physics backends
        disagree with the linear rule of thumb.  RC cooling only ever drains
        slower (the exponential factor is below one), so its direction is
        locked: fewer fully-realised sprints and an at-least-as-heavy tail.
        The PCM plateau drains slightly *faster* than the sustainable rate
        while melting but far slower once solid, so its sign depends on the
        operating region — the example study quantifies it; here we only
        require that it moves the numbers."""
        arrivals = MMPPArrivals.bursty(
            burst_rate_hz=1.0, mean_burst_s=30.0, mean_idle_s=60.0
        )
        requests = generate_requests(arrivals, FixedService(5.0), 120, seed=9)
        summaries = {}
        for name in THERMAL_BACKENDS:
            result = FleetSimulator(config, 2, thermal=name).run(requests)
            summaries[name] = result.summary()
        linear = summaries["linear"]
        rc = summaries["rc"]
        assert rc.mean_sprint_fullness < linear.mean_sprint_fullness
        assert rc.p99_latency_s >= linear.p99_latency_s
        assert summaries["pcm"].mean_latency_s != linear.mean_latency_s


def thermal_sweep(thermals, n_requests=200, rates=(0.1,), **options):
    base = Scenario(
        arrivals=PoissonArrivals(rates[0]),
        service=FixedService(5.0),
        n_requests=n_requests,
        n_devices=2,
        **options,
    )
    return SweepSpec(
        base,
        axes=(
            ("arrivals", tuple(PoissonArrivals(r) for r in rates)),
            ("thermal", thermals),
        ),
    )


class TestSweepThermalAxis:
    def test_thermal_axis_multiplies_the_grid(self):
        cells = expand_cells(thermal_sweep(("linear", "rc", "pcm")))
        assert len(cells) == 3
        assert [c.scenario.thermal.backend for c in cells] == ["linear", "rc", "pcm"]

    def test_backend_names_normalised_to_specs(self):
        (cell,) = expand_cells(thermal_sweep(("rc",)))
        assert cell.scenario.thermal == ThermalSpec.rc()

    def test_duplicate_thermals_collapse(self):
        spec = thermal_sweep(("linear", ThermalSpec.linear(), "pcm", "pcm"))
        cells = expand_cells(spec)
        assert [c.scenario.thermal.backend for c in cells] == ["linear", "pcm"]

    def test_sprint_disabled_sweep_keeps_only_first_thermal(self):
        spec = thermal_sweep(("linear", "rc", "pcm"), sprint_enabled=False)
        cells = expand_cells(spec)
        assert len(cells) == 1
        assert cells[0].scenario.thermal == ThermalSpec.linear()

    def test_empty_thermal_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            thermal_sweep(())

    def test_sweep_runs_and_filters_by_backend(self, config):
        spec = thermal_sweep(("linear", "rc", "pcm"), n_requests=40, rates=(0.2,))
        result = run_sweep(spec, config)
        assert len(result.cells) == 3
        rc_cells = result.filtered(thermal=ThermalSpec.rc())
        assert len(rc_cells) == 1
        assert rc_cells[0].cell.scenario.thermal == ThermalSpec.rc()
        table = result.format_table()
        assert "thermal" in table
        assert "pcm" in table

    def test_sweep_parallel_matches_serial_with_thermal_axis(self, config):
        """ThermalSpec must cross process boundaries intact (pickling)."""
        spec = thermal_sweep(("linear", "pcm"), n_requests=30, rates=(0.1, 0.3))
        serial = run_sweep(spec, config, workers=1)
        parallel = run_sweep(spec, config, workers=2)
        assert serial.cells == parallel.cells
