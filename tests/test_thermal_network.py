"""Unit tests for the lumped RC thermal network solver."""

import functools
import math

import numpy as np
import pytest
from euler_oracle import EulerNetwork

import repro.thermal.package as package_module
from repro.thermal.network import ThermalNetwork, total_resistance_between
from repro.thermal.package import (
    CONVENTIONAL_PACKAGE,
    FULL_PCM_PACKAGE,
    JUNCTION,
    PCM,
    SMALL_PCM_PACKAGE,
)
from repro.thermal.pcm import PhaseChangeBlock


def simple_rc(ambient=25.0, capacitance=1.0, resistance=10.0):
    net = ThermalNetwork(ambient_c=ambient)
    net.add_capacitance_node("node", capacitance_j_k=capacitance)
    net.add_fixed_node("ambient")
    net.connect("node", "ambient", resistance_k_w=resistance)
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = ThermalNetwork()
        net.add_capacitance_node("a", 1.0)
        with pytest.raises(ValueError):
            net.add_capacitance_node("a", 2.0)

    def test_empty_name_rejected(self):
        net = ThermalNetwork()
        with pytest.raises(ValueError):
            net.add_capacitance_node("", 1.0)

    def test_non_positive_capacitance_rejected(self):
        net = ThermalNetwork()
        with pytest.raises(ValueError):
            net.add_capacitance_node("a", 0.0)

    def test_connect_unknown_node_rejected(self):
        net = ThermalNetwork()
        net.add_capacitance_node("a", 1.0)
        with pytest.raises(KeyError):
            net.connect("a", "missing", 1.0)

    def test_self_connection_rejected(self):
        net = ThermalNetwork()
        net.add_capacitance_node("a", 1.0)
        with pytest.raises(ValueError):
            net.connect("a", "a", 1.0)

    def test_non_positive_resistance_rejected(self):
        net = ThermalNetwork()
        net.add_capacitance_node("a", 1.0)
        net.add_fixed_node("ambient")
        with pytest.raises(ValueError):
            net.connect("a", "ambient", 0.0)

    def test_nodes_default_to_ambient_temperature(self):
        net = ThermalNetwork(ambient_c=30.0)
        net.add_capacitance_node("a", 1.0)
        assert net.temperature("a") == pytest.approx(30.0)


class TestSteadyStateBehaviour:
    def test_constant_power_approaches_p_times_r(self):
        # 1 W through 10 K/W should settle 10 C above ambient.
        net = simple_rc(capacitance=0.5, resistance=10.0)
        net.step(200.0, {"node": 1.0})
        assert net.temperature("node") == pytest.approx(35.0, abs=0.1)

    def test_no_power_stays_at_ambient(self):
        net = simple_rc()
        net.step(50.0)
        assert net.temperature("node") == pytest.approx(25.0, abs=1e-6)

    def test_hot_node_decays_towards_ambient(self):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("node", 1.0, initial_temperature_c=75.0)
        net.add_fixed_node("ambient")
        net.connect("node", "ambient", 10.0)
        net.step(10.0)  # one time constant: should drop to ~ 25 + 50/e
        assert net.temperature("node") == pytest.approx(25.0 + 50.0 / 2.71828, rel=0.02)

    def test_series_chain_steady_state_gradient(self):
        net = ThermalNetwork(ambient_c=20.0)
        net.add_capacitance_node("junction", 0.1)
        net.add_capacitance_node("case", 1.0)
        net.add_fixed_node("ambient")
        net.connect("junction", "case", 5.0)
        net.connect("case", "ambient", 15.0)
        net.step(400.0, {"junction": 2.0})
        assert net.temperature("case") == pytest.approx(20.0 + 2.0 * 15.0, abs=0.3)
        assert net.temperature("junction") == pytest.approx(20.0 + 2.0 * 20.0, abs=0.3)


class TestEnergyAccounting:
    def test_injected_equals_stored_plus_dissipated(self):
        net = simple_rc(capacitance=2.0, resistance=5.0)
        net.step(30.0, {"node": 3.0})
        balance = net.stored_energy_j() + net.dissipated_energy_j
        assert balance == pytest.approx(net.injected_energy_j, rel=1e-6)

    def test_energy_balance_with_pcm_node(self):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("junction", 0.05)
        net.add_pcm_node("pcm", PhaseChangeBlock(mass_g=0.15))
        net.add_fixed_node("ambient")
        net.connect("junction", "pcm", 0.5)
        net.connect("pcm", "ambient", 30.0)
        net.step(2.0, {"junction": 16.0})
        balance = net.stored_energy_j() + net.dissipated_energy_j
        assert balance == pytest.approx(net.injected_energy_j, rel=1e-6)

    def test_time_advances_by_requested_amount(self):
        net = simple_rc()
        net.step(0.25, {"node": 1.0})
        net.step(0.75)
        assert net.time_s == pytest.approx(1.0)


class TestPcmCoupling:
    def make_pcm_net(self):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("junction", 0.03)
        net.add_pcm_node("pcm", PhaseChangeBlock(mass_g=0.15))
        net.add_fixed_node("ambient")
        net.connect("junction", "pcm", 0.5)
        net.connect("pcm", "ambient", 33.5)
        return net

    def test_pcm_temperature_plateaus_at_melting_point(self):
        net = self.make_pcm_net()
        net.step(0.5, {"junction": 16.0})  # enough to start melting
        assert net.temperature("pcm") == pytest.approx(60.0, abs=0.5)
        assert 0.0 < net.melt_fraction("pcm") < 1.0

    def test_melt_fraction_reaches_one_with_enough_heat(self):
        net = self.make_pcm_net()
        net.step(2.5, {"junction": 16.0})
        assert net.melt_fraction("pcm") == pytest.approx(1.0)

    def test_melt_fraction_zero_for_non_pcm_node(self):
        net = self.make_pcm_net()
        assert net.melt_fraction("junction") == 0.0

    def test_pcm_block_accessor_type_checks(self):
        net = self.make_pcm_net()
        assert net.pcm_block("pcm").mass_g == pytest.approx(0.15)
        with pytest.raises(TypeError):
            net.pcm_block("junction")


class TestStepValidation:
    def test_negative_dt_rejected(self):
        net = simple_rc()
        with pytest.raises(ValueError):
            net.step(-1.0)

    def test_power_into_unknown_node_rejected(self):
        net = simple_rc()
        with pytest.raises(KeyError):
            net.step(1.0, {"missing": 1.0})

    def test_zero_dt_is_noop(self):
        net = simple_rc()
        net.step(0.0, {"node": 100.0})
        assert net.temperature("node") == pytest.approx(25.0)
        assert net.injected_energy_j == 0.0

    def test_infinite_dt_rejected(self):
        net = simple_rc()
        with pytest.raises(ValueError, match="finite"):
            net.step(math.inf, {"node": 1.0})
        assert net.time_s == 0.0

    def test_nan_dt_rejected(self):
        net = simple_rc()
        with pytest.raises(ValueError, match="finite"):
            net.step(math.nan)
        assert net.time_s == 0.0

    @pytest.mark.parametrize("watts", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, watts):
        net = simple_rc()
        with pytest.raises(ValueError, match="'node'"):
            net.step(1.0, {"node": watts})
        assert net.temperature("node") == 25.0
        assert net.injected_energy_j == 0.0

    def test_nan_capacitance_rejected(self):
        net = ThermalNetwork()
        with pytest.raises(ValueError, match="capacitance"):
            net.add_capacitance_node("a", math.nan)

    def test_nan_resistance_rejected(self):
        net = ThermalNetwork()
        net.add_capacitance_node("a", 1.0)
        net.add_fixed_node("ambient")
        with pytest.raises(ValueError, match="resistance"):
            net.connect("a", "ambient", math.nan)

    def test_nan_pcm_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            PhaseChangeBlock(mass_g=math.nan)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ThermalNetwork(ambient_c=math.nan),
            lambda: ThermalNetwork().add_capacitance_node("a", 1.0, math.inf),
            lambda: ThermalNetwork().add_fixed_node("ambient", math.nan),
            lambda: PhaseChangeBlock(mass_g=0.15, initial_temperature_c=math.nan),
        ],
        ids=["ambient", "initial", "fixed", "pcm"],
    )
    def test_non_finite_temperature_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize(
        "duration_s, sample_dt_s", [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan)]
    )
    def test_run_rejects_non_finite_times(self, duration_s, sample_dt_s):
        net = simple_rc()
        with pytest.raises(ValueError, match="finite"):
            net.run(duration_s, {"node": 1.0}, sample_dt_s=sample_dt_s)


class TestTopologyChanges:
    """Changing the topology after a step recompiles the network."""

    def assert_matches_fresh(self, net):
        # simple_rc after 1 s at 2 W, with a 50 C sink wired to the node,
        # stepped 1 s more at 2 W.
        charged = 25.0 + 20.0 * (1.0 - math.exp(-0.1))
        fresh = ThermalNetwork(ambient_c=25.0)
        fresh.add_capacitance_node("node", 1.0, initial_temperature_c=charged)
        fresh.add_fixed_node("ambient")
        fresh.connect("node", "ambient", 10.0)
        fresh.add_capacitance_node("sink", 0.5, initial_temperature_c=50.0)
        fresh.connect("node", "sink", 2.0)
        fresh.step(1.0, {"node": 2.0})
        for name in ("node", "sink"):
            assert net.temperature(name) == pytest.approx(fresh.temperature(name), rel=1e-12)

    def test_connection_added_after_a_step(self):
        net = simple_rc()
        net.add_capacitance_node("sink", 0.5, initial_temperature_c=50.0)
        net.step(1.0, {"node": 2.0})
        net.connect("node", "sink", 2.0)
        net.step(1.0, {"node": 2.0})
        self.assert_matches_fresh(net)

    def test_node_added_after_a_step(self):
        net = simple_rc()
        net.step(1.0, {"node": 2.0})
        net.add_capacitance_node("sink", 0.5, initial_temperature_c=50.0)
        net.connect("node", "sink", 2.0)
        net.step(1.0, {"node": 2.0})
        self.assert_matches_fresh(net)

    def test_isolated_node_added_after_a_step(self):
        net = simple_rc()
        net.step(1.0)
        net.add_capacitance_node("island", 0.5)
        net.step(2.0, {"island": 1.0})
        assert net.temperature("island") == pytest.approx(25.0 + 2.0 / 0.5, rel=1e-12)


class TestClosedForm:
    """The solver against the analytic solution of the linear network."""

    @pytest.mark.parametrize("t", [0.1, 2.0, 10.0, 45.0])
    def test_single_rc_charge(self, t):
        capacitance, resistance, watts = 2.0, 5.0, 3.0
        net = simple_rc(capacitance=capacitance, resistance=resistance)
        net.step(t, {"node": watts})
        tau = resistance * capacitance
        expected = 25.0 + watts * resistance * (1.0 - math.exp(-t / tau))
        assert net.temperature("node") == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("t", [0.1, 2.0, 10.0, 45.0])
    def test_single_rc_decay(self, t):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("node", 2.0, initial_temperature_c=75.0)
        net.add_fixed_node("ambient")
        net.connect("node", "ambient", 5.0)
        net.step(t)
        assert net.temperature("node") == pytest.approx(25.0 + 50.0 * math.exp(-t / 10.0), rel=1e-9)

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 3.0])
    def test_two_node_chain_eigen_solution(self, t):
        # a (2 J/K) -- 0.5 K/W -- b (1 J/K), a -- 0.25 K/W -- ambient.  With
        # u = T - T_ambient, du/dt = [[-3, 1], [2, -2]] u: eigenvalues -1 and
        # -4 with eigenvectors (1, 2) and (1, -1).  From u(0) = (30, 0):
        # u(t) = 10 e^-t (1, 2) + 20 e^-4t (1, -1).
        net = ThermalNetwork(ambient_c=20.0)
        net.add_capacitance_node("a", 2.0, initial_temperature_c=50.0)
        net.add_capacitance_node("b", 1.0, initial_temperature_c=20.0)
        net.add_fixed_node("ambient")
        net.connect("a", "b", 0.5)
        net.connect("a", "ambient", 0.25)
        net.step(t)
        slow, fast = math.exp(-t), math.exp(-4.0 * t)
        assert net.temperature("a") == pytest.approx(20.0 + 10.0 * slow + 20.0 * fast, rel=1e-9)
        assert net.temperature("b") == pytest.approx(20.0 + 20.0 * slow - 20.0 * fast, rel=1e-9)
        # The ambient absorbs the integrated flow 4 u_a, from the phi_2 term.
        absorbed = 4.0 * (10.0 * (1.0 - slow) + 5.0 * (1.0 - fast))
        assert net.dissipated_energy_j == pytest.approx(absorbed, rel=1e-9)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: simple_rc(capacitance=2.0, resistance=5.0),
            lambda: FULL_PCM_PACKAGE.build(),
            lambda: SMALL_PCM_PACKAGE.build(),
        ],
        ids=["rc", "150mg", "1.5mg"],
    )
    @pytest.mark.parametrize("split", [0.001, 0.37, 0.5])
    def test_split_invariance(self, build, split):
        # One step equals the same time in two steps, across PCM phase
        # changes too (16 W for 0.15 s melts the whole 1.5 mg block).
        whole, parts = build(), build()
        source = whole.node_names[0]
        power = {source: 16.0}
        whole.step(0.15, power)
        parts.step(0.15 * split, power)
        parts.step(0.15 * (1.0 - split), power)
        for name in whole.node_names:
            assert parts.temperature(name) == pytest.approx(whole.temperature(name), abs=1e-9)
            assert parts.melt_fraction(name) == pytest.approx(whole.melt_fraction(name), abs=1e-9)

    def pcm_to_ambient(self, start_c):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_pcm_node("pcm", PhaseChangeBlock(mass_g=0.01, initial_temperature_c=start_c))
        net.add_fixed_node("ambient")
        net.connect("pcm", "ambient", 20.0)
        return net

    def test_melt_plateau_length(self):
        # Held at T_m, the block takes P - (T_m - T_a)/R of the power, so
        # the plateau lasts latent / (P - (T_m - T_a)/R) = 1 J / 0.25 W = 4 s.
        watts, resistance = 2.0, 20.0
        net = self.pcm_to_ambient(start_c=60.0)
        latent = net.pcm_block("pcm").latent_capacity_j
        plateau = latent / (watts - (60.0 - 25.0) / resistance)
        assert plateau == pytest.approx(4.0)
        net.step(0.5 * plateau, {"pcm": watts})
        assert net.temperature("pcm") == 60.0
        assert net.melt_fraction("pcm") == pytest.approx(0.5, rel=1e-9)
        net.step(0.5 * plateau * (1.0 - 1e-9), {"pcm": watts})
        assert net.temperature("pcm") == 60.0
        assert net.melt_fraction("pcm") < 1.0
        # Past the plateau the liquid charges along the single-RC curve.
        net.step(0.5 * plateau * 1e-9 + 0.1, {"pcm": watts})
        tau = resistance * net.pcm_block("pcm").sensible_capacity_j_k
        steady = 25.0 + watts * resistance
        expected = steady + (60.0 - steady) * math.exp(-0.1 / tau)
        assert net.temperature("pcm") == pytest.approx(expected, rel=1e-9)

    def test_solid_to_plateau_crossing_time(self):
        # From 40 C the solid charges as a single RC until it reaches T_m;
        # the bisected crossing time then fixes the melt fraction exactly.
        watts, resistance = 2.0, 20.0
        net = self.pcm_to_ambient(start_c=40.0)
        tau = resistance * net.pcm_block("pcm").sensible_capacity_j_k
        steady = 25.0 + watts * resistance
        reach = tau * math.log((steady - 40.0) / (steady - 60.0))
        net.step(reach + 1.0, {"pcm": watts})
        assert net.temperature("pcm") == 60.0
        melted = (watts - (60.0 - 25.0) / resistance) * 1.0
        latent = net.pcm_block("pcm").latent_capacity_j
        assert net.melt_fraction("pcm") == pytest.approx(melted / latent, rel=1e-9)


def _package_trace(package, factory, schedule, monkeypatch):
    """Junction/PCM temperatures and melt fraction after every step."""
    monkeypatch.setattr(package_module, "ThermalNetwork", factory)
    net = package.build()
    monkeypatch.undo()
    has_pcm = PCM in net.node_names
    rows = []
    for watts, duration_s, step_s in schedule:
        for _ in range(round(duration_s / step_s)):
            net.step(step_s, {JUNCTION: watts})
            rows.append(
                [
                    net.temperature(JUNCTION),
                    net.temperature(PCM) if has_pcm else 0.0,
                    net.melt_fraction(PCM) if has_pcm else 0.0,
                ]
            )
    return np.array(rows)


class TestEulerOracle:
    """Forward Euler converges on the exact solver, across phase changes."""

    CASES = {
        # (package, [(junction watts, duration s, step s), ...])
        "conventional": (CONVENTIONAL_PACKAGE, [(16.0, 0.3, 0.1), (0.0, 1.0, 0.1)]),
        # Melts all 15 J, then the liquid heats and cools.
        "150mg": (FULL_PCM_PACKAGE, [(16.0, 1.5, 1e-3), (0.0, 0.5, 1e-3)]),
        # Solid -> plateau at ~70 ms, plateau -> liquid at ~96 ms.
        "1.5mg": (SMALL_PCM_PACKAGE, [(16.0, 0.12, 1e-3)]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_agrees_with_euler_at_tenth_safety(self, case, monkeypatch):
        package, schedule = self.CASES[case]
        exact = _package_trace(package, ThermalNetwork, schedule, monkeypatch)
        errors = []
        for safety in (0.05, 0.005):
            factory = functools.partial(EulerNetwork, safety=safety)
            euler = _package_trace(package, factory, schedule, monkeypatch)
            errors.append(np.abs(euler - exact).max(axis=0))
        coarse, fine = errors
        # Euler's global error scales as safety x the excursion it integrates;
        # the junction is the hottest node.
        rise = exact[:, 0].max() - package.limits.ambient_c
        assert np.all(fine[:2] <= 0.005 * rise), (fine, rise)
        assert fine[2] <= 0.005, fine
        # First-order convergence: a tenth of the step, about a tenth of the
        # error.  An error in the exact solver would not shrink with it.
        assert np.all(fine <= coarse / 5.0 + 1e-12), (coarse, fine)


class TestRun:
    def test_run_returns_samples_including_initial_state(self):
        net = simple_rc()
        states = net.run(1.0, {"node": 1.0}, sample_dt_s=0.1)
        assert len(states) == 11
        assert states[0].time_s == pytest.approx(0.0)
        assert states[-1].time_s == pytest.approx(1.0)

    def test_run_with_time_varying_power(self):
        net = simple_rc(capacitance=1.0, resistance=100.0)

        def power(t):
            return {"node": 2.0} if t < 0.5 else {}

        net.run(1.0, power, sample_dt_s=0.05)
        # roughly 1 J injected (2 W for 0.5 s), little dissipated at these R values
        assert net.injected_energy_j == pytest.approx(1.0, rel=0.15)

    def test_run_callback_invoked_per_sample(self):
        net = simple_rc()
        seen = []
        net.run(0.5, {"node": 1.0}, sample_dt_s=0.1, callback=seen.append)
        assert len(seen) == 6

    def test_run_rejects_bad_arguments(self):
        net = simple_rc()
        with pytest.raises(ValueError):
            net.run(-1.0, {})
        with pytest.raises(ValueError):
            net.run(1.0, {}, sample_dt_s=0.0)


class TestTotalResistanceHelper:
    def test_series_sum(self):
        edges = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)]
        assert total_resistance_between(edges, ["a", "b", "c", "d"]) == pytest.approx(6.0)

    def test_missing_edge_raises(self):
        with pytest.raises(KeyError):
            total_resistance_between([("a", "b", 1.0)], ["a", "c"])
