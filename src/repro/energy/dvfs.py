"""Dynamic voltage and frequency scaling (DVFS) model.

The paper compares parallel sprinting against "sprinting" by boosting the
voltage and frequency of a single core (Section 8.4).  The governing
arithmetic is:

* dynamic power is ``P ∝ f·V²``,
* raising frequency requires a roughly proportional rise in supply voltage,
  so effectively ``P ∝ f³``,
* therefore a ``16x`` power headroom only buys a ``16^(1/3) ≈ 2.5x``
  frequency (and performance) boost,
* and because energy per unit of work scales with ``V²``, using the full
  headroom for voltage boosting costs roughly ``2.5² ≈ 6x`` more energy than
  running the same work at nominal voltage (Section 8.6).

:class:`DvfsModel` encapsulates these relations and produces
:class:`OperatingPoint` objects that the core power model understands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OperatingPoint:
    """A (frequency, voltage) pair a core can run at."""

    frequency_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency_hz < math.inf:
            raise ValueError(
                f"frequency must be positive and finite, got {self.frequency_hz!r}"
            )
        if not 0.0 < self.voltage_v < math.inf:
            raise ValueError(f"voltage must be positive and finite, got {self.voltage_v!r}")

    def dynamic_power_scale(self, nominal: "OperatingPoint") -> float:
        """Dynamic power relative to ``nominal``: (f/f0) * (V/V0)^2."""
        return (self.frequency_hz / nominal.frequency_hz) * (
            self.voltage_v / nominal.voltage_v
        ) ** 2

    def energy_per_work_scale(self, nominal: "OperatingPoint") -> float:
        """Energy per instruction relative to ``nominal``: (V/V0)^2."""
        return (self.voltage_v / nominal.voltage_v) ** 2

    def speedup_over(self, nominal: "OperatingPoint") -> float:
        """Performance ratio (frequency ratio) over ``nominal``."""
        return self.frequency_hz / nominal.frequency_hz


@dataclass(frozen=True)
class DvfsModel:
    """Frequency/voltage scaling rules for a single core.

    ``voltage_slope`` expresses how much the supply voltage must rise for a
    given frequency increase: ``V = V0 * (f/f0) ** voltage_slope``.  The
    paper's cube-root argument corresponds to ``voltage_slope = 1`` (voltage
    proportional to frequency).
    """

    nominal: OperatingPoint = OperatingPoint(frequency_hz=1e9, voltage_v=1.0)
    voltage_slope: float = 1.0
    min_frequency_hz: float = 50e6
    max_frequency_hz: float = 3.0e9

    def __post_init__(self) -> None:
        if self.voltage_slope < 0:
            raise ValueError("voltage slope must be non-negative")
        if self.min_frequency_hz <= 0:
            raise ValueError("minimum frequency must be positive")
        if self.max_frequency_hz < self.min_frequency_hz:
            raise ValueError("maximum frequency must be at least the minimum")
        if not (
            self.min_frequency_hz <= self.nominal.frequency_hz <= self.max_frequency_hz
        ):
            raise ValueError("nominal frequency must lie within [min, max]")

    # -- operating point construction ---------------------------------------------

    def operating_point(self, frequency_hz: float) -> OperatingPoint:
        """Operating point at ``frequency_hz`` with the implied voltage."""
        if not self.min_frequency_hz <= frequency_hz <= self.max_frequency_hz:
            raise ValueError(
                f"frequency {frequency_hz:.3e} Hz outside the supported range "
                f"[{self.min_frequency_hz:.3e}, {self.max_frequency_hz:.3e}]"
            )
        ratio = frequency_hz / self.nominal.frequency_hz
        voltage = self.nominal.voltage_v * ratio**self.voltage_slope
        return OperatingPoint(frequency_hz=frequency_hz, voltage_v=voltage)

    def power_scale(self, frequency_hz: float) -> float:
        """Dynamic power at ``frequency_hz`` relative to nominal."""
        return self.operating_point(frequency_hz).dynamic_power_scale(self.nominal)

    # -- headroom arithmetic --------------------------------------------------------

    def power_exponent(self) -> float:
        """Exponent ``k`` in ``P ∝ f^k`` (3 for voltage tracking frequency)."""
        return 1.0 + 2.0 * self.voltage_slope

    def max_boost_for_headroom(self, power_headroom: float) -> float:
        """Largest frequency multiple allowed by a power headroom multiple.

        The paper: a 16x TDP headroom allows a frequency boost of about
        ``16^(1/3) ≈ 2.5x``.
        """
        if power_headroom < 1.0:
            raise ValueError("power headroom must be at least 1x")
        return power_headroom ** (1.0 / self.power_exponent())

    def boosted_point_for_headroom(self, power_headroom: float) -> OperatingPoint:
        """Operating point using the whole power headroom for a voltage boost.

        The frequency is clamped to the model's maximum if the headroom would
        exceed it.
        """
        boost = self.max_boost_for_headroom(power_headroom)
        frequency = min(
            self.max_frequency_hz, self.nominal.frequency_hz * boost
        )
        return self.operating_point(frequency)

    def energy_overhead_for_headroom(self, power_headroom: float) -> float:
        """Energy-per-work multiple when sprinting via voltage boosting.

        For the paper's 16x headroom this is about 6x (2.5 squared),
        matching the Section 8.6 observation.
        """
        point = self.boosted_point_for_headroom(power_headroom)
        return point.energy_per_work_scale(self.nominal)

    def throttled_point(self, active_cores: int, sustainable_cores: int = 1) -> OperatingPoint:
        """Emergency throttle frequency when too many cores remain active.

        Section 7: if software fails to deactivate cores in time, hardware
        divides the frequency by the ratio of active to sustainable cores so
        that total power returns under the sustainable budget.  Voltage is
        held at nominal (it cannot drop below the functional minimum), which
        is conservative for power.
        """
        if active_cores <= 0 or sustainable_cores <= 0:
            raise ValueError("core counts must be positive")
        factor = max(1.0, active_cores / sustainable_cores)
        frequency = max(self.min_frequency_hz, self.nominal.frequency_hz / factor)
        return OperatingPoint(frequency_hz=frequency, voltage_v=self.nominal.voltage_v)


#: DVFS model with the paper's assumptions (voltage tracks frequency).
PAPER_DVFS = DvfsModel()
