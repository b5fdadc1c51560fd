"""Property-based tests (hypothesis) for the thermal substrate invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.network import ThermalNetwork
from repro.thermal.package import PcmPackage
from repro.thermal.pcm import PhaseChangeBlock

# Keep runtimes modest: every example builds and steps a fresh network.
COMMON_SETTINGS = dict(max_examples=30, deadline=None)


class TestPcmBlockProperties:
    @given(
        mass_g=st.floats(min_value=0.001, max_value=1.0),
        heat_j=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_melt_fraction_always_in_unit_interval(self, mass_g, heat_j):
        block = PhaseChangeBlock(mass_g=mass_g, initial_temperature_c=25.0)
        block.add_heat(heat_j)
        assert 0.0 <= block.melt_fraction <= 1.0

    @given(
        heats=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=20)
    )
    @settings(**COMMON_SETTINGS)
    def test_enthalpy_is_sum_of_heat_added(self, heats):
        block = PhaseChangeBlock(mass_g=0.15, initial_temperature_c=60.0)
        for heat in heats:
            block.add_heat(heat)
        assert block.enthalpy_j == pytest.approx(sum(heats), abs=1e-9)

    @given(
        temperature=st.floats(min_value=-20.0, max_value=150.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_set_temperature_round_trips(self, temperature):
        block = PhaseChangeBlock(mass_g=0.15)
        block.set_temperature(temperature)
        assert block.temperature_c == pytest.approx(temperature, abs=1e-9)

    @given(
        heat_j=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_temperature_never_decreases_when_adding_heat(self, heat_j):
        block = PhaseChangeBlock(mass_g=0.15, initial_temperature_c=30.0)
        before = block.temperature_c
        block.add_heat(heat_j)
        assert block.temperature_c >= before - 1e-12


class TestNetworkProperties:
    @given(
        power_w=st.floats(min_value=0.0, max_value=20.0),
        duration_s=st.floats(min_value=0.01, max_value=5.0),
        capacitance=st.floats(min_value=0.05, max_value=10.0),
        resistance=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_energy_is_conserved(self, power_w, duration_s, capacitance, resistance):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("node", capacitance)
        net.add_fixed_node("ambient")
        net.connect("node", "ambient", resistance)
        net.step(duration_s, {"node": power_w})
        balance = net.stored_energy_j() + net.dissipated_energy_j
        assert balance == pytest.approx(net.injected_energy_j, rel=1e-6, abs=1e-9)

    @given(
        power_w=st.floats(min_value=0.0, max_value=20.0),
        duration_s=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_energy_conserved_with_pcm_in_the_loop(self, power_w, duration_s):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("junction", 0.03)
        net.add_pcm_node("pcm", PhaseChangeBlock(mass_g=0.15))
        net.add_fixed_node("ambient")
        net.connect("junction", "pcm", 0.5)
        net.connect("pcm", "ambient", 33.5)
        net.step(duration_s, {"junction": power_w})
        balance = net.stored_energy_j() + net.dissipated_energy_j
        assert balance == pytest.approx(net.injected_energy_j, rel=1e-6, abs=1e-9)

    @given(
        power_w=st.floats(min_value=0.0, max_value=10.0),
        resistance=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_temperature_never_exceeds_steady_state_bound(self, power_w, resistance):
        # For a single RC stage driven by constant power, the temperature can
        # never exceed ambient + P * R.
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("node", 0.5)
        net.add_fixed_node("ambient")
        net.connect("node", "ambient", resistance)
        net.step(20.0, {"node": power_w})
        assert net.temperature("node") <= 25.0 + power_w * resistance + 1e-6

    @given(
        start_c=st.floats(min_value=25.0, max_value=80.0),
        duration_s=st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(**COMMON_SETTINGS)
    def test_unpowered_network_never_drops_below_ambient(self, start_c, duration_s):
        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("node", 1.0, initial_temperature_c=start_c)
        net.add_fixed_node("ambient")
        net.connect("node", "ambient", 10.0)
        net.step(duration_s)
        assert net.temperature("node") >= 25.0 - 1e-9
        assert net.temperature("node") <= start_c + 1e-9


class TestPackageProperties:
    @given(
        mass_g=st.floats(min_value=0.001, max_value=0.5),
        power_w=st.floats(min_value=4.0, max_value=20.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_sprint_budget_grows_with_pcm_mass(self, mass_g, power_w):
        small = PcmPackage(pcm_mass_g=mass_g)
        large = PcmPackage(pcm_mass_g=mass_g * 2)
        assert large.sprint_budget_j(power_w) > small.sprint_budget_j(power_w)

    @given(power_w=st.floats(min_value=2.0, max_value=20.0))
    @settings(max_examples=15, deadline=None)
    def test_estimated_duration_decreases_with_power(self, power_w):
        pkg = PcmPackage(pcm_mass_g=0.15)
        shorter = pkg.estimated_sprint_duration_s(power_w * 1.5)
        longer = pkg.estimated_sprint_duration_s(power_w)
        assert shorter <= longer
