"""Unit tests for core power states, chip power accounting, and DVFS."""

import pytest

from repro.energy.core import ChipPowerAccount, CorePowerModel, CoreState
from repro.energy.dvfs import PAPER_DVFS, DvfsModel, OperatingPoint


class TestCorePowerModel:
    def test_active_core_is_one_watt_at_nominal(self):
        model = CorePowerModel()
        assert model.power_w(CoreState.ACTIVE) == pytest.approx(1.0)

    def test_sleeping_core_is_ten_percent(self):
        model = CorePowerModel()
        assert model.power_w(CoreState.SLEEP) == pytest.approx(0.1)

    def test_off_core_draws_nothing(self):
        model = CorePowerModel()
        assert model.power_w(CoreState.OFF) == 0.0

    def test_power_scales_with_operating_point(self):
        model = CorePowerModel()
        boosted = OperatingPoint(frequency_hz=2e9, voltage_v=2.0)
        assert model.power_w(CoreState.ACTIVE, boosted) == pytest.approx(8.0)

    def test_energy_is_power_times_duration(self):
        model = CorePowerModel()
        assert model.energy_j(CoreState.ACTIVE, 2.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorePowerModel(active_power_w=0.0)
        with pytest.raises(ValueError):
            CorePowerModel(sleep_fraction=1.5)
        with pytest.raises(ValueError):
            CorePowerModel(off_power_w=-1.0)
        with pytest.raises(ValueError):
            CorePowerModel().energy_j(CoreState.ACTIVE, -1.0)


class TestChipPowerAccount:
    def test_charge_accumulates_by_state(self):
        account = ChipPowerAccount(model=CorePowerModel(), n_cores=4)
        states = [CoreState.ACTIVE, CoreState.ACTIVE, CoreState.SLEEP, CoreState.OFF]
        added = account.charge(states, duration_s=1.0)
        assert added == pytest.approx(1.0 + 1.0 + 0.1 + 0.0)
        assert account.total_energy_j == pytest.approx(2.1)
        assert account.average_power_w == pytest.approx(2.1)

    def test_charge_energy_adds_measured_joules(self):
        account = ChipPowerAccount(model=CorePowerModel(), n_cores=2)
        account.charge_energy(1, 0.5)
        assert account.energy_j_per_core == [0.0, 0.5]

    def test_reset_clears_the_account(self):
        account = ChipPowerAccount(model=CorePowerModel(), n_cores=2)
        account.charge([CoreState.ACTIVE, CoreState.ACTIVE], 1.0)
        account.reset()
        assert account.total_energy_j == 0.0
        assert account.average_power_w == 0.0

    def test_validation(self):
        account = ChipPowerAccount(model=CorePowerModel(), n_cores=2)
        with pytest.raises(ValueError):
            account.charge([CoreState.ACTIVE], 1.0)
        with pytest.raises(ValueError):
            account.charge([CoreState.ACTIVE, CoreState.ACTIVE], -1.0)
        with pytest.raises(ValueError):
            account.charge_energy(5, 1.0)
        with pytest.raises(ValueError):
            account.charge_energy(0, -1.0)
        with pytest.raises(ValueError):
            ChipPowerAccount(model=CorePowerModel(), n_cores=0)
        with pytest.raises(ValueError):
            ChipPowerAccount(model=CorePowerModel(), n_cores=2,
                             energy_j_per_core=[0.0])


class TestOperatingPoint:
    def test_power_scale_is_f_times_v_squared(self):
        nominal = OperatingPoint(1e9, 1.0)
        point = OperatingPoint(2e9, 1.5)
        assert point.dynamic_power_scale(nominal) == pytest.approx(2 * 2.25)

    def test_energy_scale_is_v_squared(self):
        nominal = OperatingPoint(1e9, 1.0)
        point = OperatingPoint(2e9, 1.5)
        assert point.energy_per_work_scale(nominal) == pytest.approx(2.25)

    def test_speedup_is_frequency_ratio(self):
        nominal = OperatingPoint(1e9, 1.0)
        assert OperatingPoint(2.5e9, 1.2).speedup_over(nominal) == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatingPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            OperatingPoint(1e9, 0.0)

    @pytest.mark.parametrize(
        "frequency, voltage",
        [(float("nan"), 1.0), (float("inf"), 1.0), (1e9, float("nan")), (1e9, float("inf"))],
    )
    def test_rejects_non_finite(self, frequency, voltage):
        with pytest.raises(ValueError, match="finite"):
            OperatingPoint(frequency, voltage)


class TestDvfsModel:
    def test_sixteen_x_headroom_gives_about_2_5x_boost(self):
        # Section 8.4: cube root of 16 is ~2.5.
        assert PAPER_DVFS.max_boost_for_headroom(16.0) == pytest.approx(2.52, abs=0.05)

    def test_energy_overhead_for_16x_headroom_is_about_6x(self):
        # Section 8.6: voltage sprinting uses ~6x more energy.
        assert PAPER_DVFS.energy_overhead_for_headroom(16.0) == pytest.approx(
            6.35, abs=0.4
        )

    def test_power_scale_is_cubic_in_frequency(self):
        assert PAPER_DVFS.power_scale(2e9) == pytest.approx(8.0)

    def test_boosted_point_respects_max_frequency(self):
        model = DvfsModel(max_frequency_hz=2.0e9)
        point = model.boosted_point_for_headroom(64.0)
        assert point.frequency_hz == pytest.approx(2.0e9)

    def test_operating_point_voltage_tracks_frequency(self):
        point = PAPER_DVFS.operating_point(1.5e9)
        assert point.voltage_v == pytest.approx(1.5)

    def test_operating_point_outside_range_rejected(self):
        with pytest.raises(ValueError):
            PAPER_DVFS.operating_point(10e9)

    def test_throttled_point_divides_frequency_by_core_ratio(self):
        # Section 7: with 16 active cores the hardware must throttle to 1/16.
        point = PAPER_DVFS.throttled_point(active_cores=16)
        assert point.frequency_hz == pytest.approx(1e9 / 16, rel=0.01)

    def test_throttled_point_never_exceeds_nominal(self):
        point = PAPER_DVFS.throttled_point(active_cores=1)
        assert point.frequency_hz == pytest.approx(1e9)

    def test_headroom_below_one_rejected(self):
        with pytest.raises(ValueError):
            PAPER_DVFS.max_boost_for_headroom(0.5)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DvfsModel(voltage_slope=-1.0)
        with pytest.raises(ValueError):
            DvfsModel(min_frequency_hz=0.0)
        with pytest.raises(ValueError):
            DvfsModel(min_frequency_hz=2e9, max_frequency_hz=1e9)
        with pytest.raises(ValueError):
            DvfsModel(nominal=OperatingPoint(5e9, 1.0))
        with pytest.raises(ValueError):
            PAPER_DVFS.throttled_point(0)

    def test_square_root_voltage_slope_changes_exponent(self):
        model = DvfsModel(voltage_slope=0.5)
        assert model.power_exponent() == pytest.approx(2.0)
        assert model.max_boost_for_headroom(16.0) == pytest.approx(4.0)
