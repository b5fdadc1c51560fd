"""Phase change material (PCM) thermal storage model.

The key enabler of long sprints in the paper is a block of phase change
material placed close to the die (Section 4.2).  While the PCM melts, heat
injected into it is absorbed as latent heat and its temperature stays pinned
at the melting point, which is what produces the temperature plateau of
Figure 4(a).

The model here is a standard enthalpy formulation: the state of the node is
its total stored enthalpy relative to a fully solid block at the melting
point.  Temperature is recovered from enthalpy:

* enthalpy below zero            -> solid, ``T = T_melt + h / C_sensible``
* enthalpy in ``[0, latent]``    -> melting, ``T = T_melt`` (mixed phase)
* enthalpy above ``latent``      -> liquid, ``T = T_melt + (h - latent) / C_sensible``

The same sensible capacity is used for solid and liquid phases, which is the
usual lumped simplification and adequate for the tens-of-degrees excursions
seen in sprinting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.thermal.materials import GENERIC_PCM, Material


@dataclass
class PhaseChangeBlock:
    """A lumped block of phase change material tracked by enthalpy.

    Parameters
    ----------
    mass_g:
        Mass of PCM in grams.  The paper's full design point uses 150 mg and
        the artificially constrained design point uses 1.5 mg.
    material:
        Material properties; defaults to the paper's working assumption of a
        100 J/g, 60 C PCM.
    initial_temperature_c:
        Temperature the block starts at (fully solid when below the melting
        point).
    """

    mass_g: float
    material: Material = field(default_factory=lambda: GENERIC_PCM)
    initial_temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass_g) and self.mass_g > 0):
            raise ValueError(f"PCM mass must be positive and finite, got {self.mass_g}")
        if not math.isfinite(self.initial_temperature_c):
            raise ValueError(
                f"initial temperature must be finite, got {self.initial_temperature_c}"
            )
        if not self.material.is_phase_change:
            raise ValueError(
                f"material {self.material.name!r} has no latent heat; "
                "use a plain capacitance node instead"
            )
        self._enthalpy_j = self._enthalpy_for_temperature(self.initial_temperature_c)

    # -- capacities -----------------------------------------------------------

    @property
    def melting_point_c(self) -> float:
        """Melting temperature of the block in Celsius."""
        assert self.material.melting_point_c is not None
        return self.material.melting_point_c

    @property
    def sensible_capacity_j_k(self) -> float:
        """Sensible (single phase) heat capacity in J/K."""
        return self.material.heat_capacity_j_k(self.mass_g)

    @property
    def latent_capacity_j(self) -> float:
        """Total latent heat available across the full melt, in joules."""
        return self.material.latent_capacity_j(self.mass_g)

    # -- state ----------------------------------------------------------------

    @property
    def enthalpy_j(self) -> float:
        """Stored enthalpy relative to fully-solid-at-melting-point, in joules."""
        return self._enthalpy_j

    @property
    def melt_fraction(self) -> float:
        """Fraction of the block that is liquid, in ``[0, 1]``."""
        if self.latent_capacity_j == 0:
            return 0.0
        return min(1.0, max(0.0, self._enthalpy_j / self.latent_capacity_j))

    @property
    def is_melting(self) -> bool:
        """True while the block is in the mixed solid/liquid region."""
        return 0.0 < self._enthalpy_j < self.latent_capacity_j

    @property
    def temperature_c(self) -> float:
        """Current block temperature recovered from the enthalpy state."""
        if self._enthalpy_j < 0.0:
            return self.melting_point_c + self._enthalpy_j / self.sensible_capacity_j_k
        if self._enthalpy_j <= self.latent_capacity_j:
            return self.melting_point_c
        excess = self._enthalpy_j - self.latent_capacity_j
        return self.melting_point_c + excess / self.sensible_capacity_j_k

    @property
    def remaining_latent_j(self) -> float:
        """Latent heat still available before the block is fully molten."""
        return max(0.0, self.latent_capacity_j - max(0.0, self._enthalpy_j))

    # -- dynamics -------------------------------------------------------------

    def add_heat(self, joules: float) -> None:
        """Add (positive) or remove (negative) heat from the block."""
        self._enthalpy_j += joules

    def set_temperature(self, temperature_c: float) -> None:
        """Reset the block to a single-phase state at the given temperature.

        Temperatures below the melting point produce a fully solid block and
        temperatures above produce a fully liquid one; setting exactly the
        melting point produces a fully solid block on the verge of melting.
        """
        self._enthalpy_j = self._enthalpy_for_temperature(temperature_c)

    def effective_capacity_j_k(self, reference_delta_c: float = 1.0) -> float:
        """Capacity (J/K) the block currently presents to a small heat input.

        During melting the effective capacity is "infinite" in the ideal
        model; we report the latent heat spread over ``reference_delta_c`` so
        solver heuristics can reason about time constants without dividing by
        zero.
        """
        if reference_delta_c <= 0:
            raise ValueError("reference_delta_c must be positive")
        if self.is_melting:
            return self.latent_capacity_j / reference_delta_c
        return self.sensible_capacity_j_k

    def _enthalpy_for_temperature(self, temperature_c: float) -> float:
        delta = temperature_c - self.melting_point_c
        if delta <= 0:
            return delta * self.sensible_capacity_j_k
        return self.latent_capacity_j + delta * self.sensible_capacity_j_k

    def copy(self) -> "PhaseChangeBlock":
        """Independent copy of the block, preserving the enthalpy state."""
        clone = PhaseChangeBlock(
            mass_g=self.mass_g,
            material=self.material,
            initial_temperature_c=self.initial_temperature_c,
        )
        clone._enthalpy_j = self._enthalpy_j
        return clone
