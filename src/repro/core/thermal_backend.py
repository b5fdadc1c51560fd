"""Pluggable thermal backends: the reservoir physics under sprint pacing.

:class:`~repro.core.pacing.SprintPacer` models repeated sprints against a
heat reservoir.  *How* that reservoir fills and drains is a fidelity choice,
not a fixed fact, so this module makes it a subsystem boundary: a
:class:`ThermalBackend` owns the stored-heat state of one device's package
(capacity, projected headroom at a future instant, deposits, drains over
idle intervals, and temperature/enthalpy telemetry), and a frozen
:class:`ThermalSpec` names a backend plus its knobs so fleet sweeps can put
pacing fidelity on a grid axis, exactly like dispatch policy and governor.

Three backends ship:

* ``linear`` — :class:`LinearReservoir`, the paper's cooldown rule of
  thumb: a reservoir of the sprint budget drained at the sustainable power.
  This is bit-identical to the arithmetic :class:`SprintPacer` used before
  backends existed and remains the default (regression-locked).
* ``rc`` — :class:`RCCooling`, exponential Newtonian cooling derived from
  the package RC constants of Figure 3.  A sprint's deposit re-heats the
  junction to the melt plateau, so cooling restarts at the sustainable
  rate and slows as the package relaxes toward ambient with the package
  time constant; the cooling clock carries across idle gaps, so the
  drained energy from accumulated idle ``t0`` over a further gap ``dt``
  is ``P_sus * tau * e^(-t0/tau) * (1 - e^(-dt/tau))`` instead of the
  linear model's ``P_sus * dt``.  As ``tau`` grows the exponential
  flattens and the drain converges to the linear reservoir (locked by a
  property test).
* ``pcm`` — :class:`PcmReservoir`, the enthalpy formulation of
  :mod:`repro.thermal.pcm` run per request: deposits raise the block's
  enthalpy, idle cooling follows the piecewise liquid / melt-plateau /
  solid physics of Figure 4, and the temperature telemetry pins at the
  melting point while the block is mixed-phase.  Latent heat drains at the
  full plateau power but the last (sensible) fraction of the reservoir
  drains exponentially slowly, which is exactly where the linear model is
  optimistic.

All three expose the same reservoir interface, so the pacer's sprint
decisions (full, partial, refused) are backend-agnostic; only the drain
dynamics and the telemetry differ.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace

from repro.core.config import SystemConfig
from repro.thermal.package import ConventionalPackage, PcmPackage, ThermalLimits
from repro.thermal.pcm import PhaseChangeBlock

__all__ = [
    "THERMAL_BACKENDS",
    "LinearReservoir",
    "PcmReservoir",
    "RCCooling",
    "ThermalBackend",
    "ThermalSpec",
]

#: Backend names a :class:`ThermalSpec` can select.
THERMAL_BACKENDS = ("linear", "rc", "pcm")


def _cooling_resistance_k_w(package: PcmPackage | ConventionalPackage) -> float:
    """Resistance of the cooling path the stored sprint heat drains through.

    For the PCM package this is the path from the storage block to ambient
    (resistances 3 of Figure 3(d)); a conventional package cools through its
    full junction-to-ambient stack.
    """
    if isinstance(package, PcmPackage):
        return package.pcm_to_case_k_w + package.case_to_ambient_k_w
    return package.total_resistance_k_w


class ThermalBackend(abc.ABC):
    """Stored-heat state of one device's package, behind a reservoir interface.

    The contract the pacer (and through it the serving engine) relies on:

    * ``capacity_j`` and ``stored_heat_j`` define the headroom a sprint may
      deposit into; both are non-negative and ``stored_heat_j`` never
      exceeds ``capacity_j`` as long as deposits respect the headroom.
    * :meth:`projected_stored_heat_j` is a *pure* projection of the stored
      heat after an idle interval — dispatchers rank devices with it, so it
      must equal what :meth:`drain` then actually produces (property-tested
      per backend).
    * :meth:`deposit` and :meth:`drain` mutate the state and keep the
      energy ledger (``total_deposited_j`` / ``total_drained_j``), so
      ``total_deposited_j - total_drained_j == stored_heat_j`` from a fresh
      (or :meth:`reset`) backend.
    * ``temperature_c`` and ``melt_fraction`` are telemetry only — they
      never influence a sprint decision, but they ride on every outcome so
      serving metrics can report package physics.
    """

    name = "base"

    def __init__(self, limits: ThermalLimits) -> None:
        self.limits = limits
        self._deposited_j = 0.0
        self._drained_j = 0.0

    # -- reservoir state -------------------------------------------------------

    @property
    @abc.abstractmethod
    def capacity_j(self) -> float:
        """Heat the package can absorb above sustained operation."""

    @property
    @abc.abstractmethod
    def stored_heat_j(self) -> float:
        """Heat currently stored in the package (0 = fully cooled)."""

    @property
    def headroom_j(self) -> float:
        """Budget a sprint arriving now could still deposit."""
        return max(0.0, self.capacity_j - self.stored_heat_j)

    @abc.abstractmethod
    def projected_stored_heat_j(self, idle_s: float) -> float:
        """Stored heat after ``idle_s`` seconds of idle cooling, without mutating."""

    # -- energy ledger ---------------------------------------------------------

    @property
    def total_deposited_j(self) -> float:
        """Sum of all deposits since construction or the last reset."""
        return self._deposited_j

    @property
    def total_drained_j(self) -> float:
        """Sum of all heat drained since construction or the last reset."""
        return self._drained_j

    # -- dynamics --------------------------------------------------------------

    def deposit(self, joules: float) -> None:
        """Add a sprint's excess heat to the reservoir."""
        if joules < 0:
            raise ValueError("deposited heat must be non-negative")
        self._deposited_j += joules
        self._apply_deposit(joules)

    def drain(self, idle_s: float) -> None:
        """Cool over an idle interval of ``idle_s`` seconds."""
        if idle_s < 0:
            raise ValueError("idle interval must be non-negative")
        before = self.stored_heat_j
        self._apply_drain(idle_s)
        self._drained_j += before - self.stored_heat_j

    def reset(self) -> None:
        """Return to the fully-cooled state and clear the energy ledger."""
        self._deposited_j = 0.0
        self._drained_j = 0.0
        self._reset_state()

    @abc.abstractmethod
    def _apply_deposit(self, joules: float) -> None: ...

    @abc.abstractmethod
    def _apply_drain(self, idle_s: float) -> None: ...

    @abc.abstractmethod
    def _reset_state(self) -> None: ...

    # -- telemetry -------------------------------------------------------------

    @property
    def temperature_c(self) -> float:
        """Package temperature implied by the stored heat.

        The base implementation maps the fill fraction linearly onto the
        ambient-to-junction-limit range — a coarse proxy for backends with
        no temperature state of their own.  Physics-backed backends
        override it.
        """
        if self.capacity_j == 0:
            return self.limits.ambient_c
        fill = self.stored_heat_j / self.capacity_j
        return self.limits.ambient_c + fill * self.limits.headroom_c

    @property
    def melt_fraction(self) -> float:
        """Fraction of the PCM that is liquid (0 for backends without PCM state)."""
        return 0.0


class LinearReservoir(ThermalBackend):
    """The paper's rule-of-thumb reservoir: constant-rate drain.

    Capacity is the package sprint budget; drains run at the sustainable
    power regardless of how full the reservoir is.  This is exactly the
    arithmetic :class:`~repro.core.pacing.SprintPacer` inlined before
    backends existed — the default, and regression-locked bit-identical.
    """

    name = "linear"

    def __init__(
        self, capacity_j: float, drain_power_w: float, limits: ThermalLimits
    ) -> None:
        if capacity_j < 0:
            raise ValueError("reservoir capacity must be non-negative")
        if drain_power_w <= 0:
            raise ValueError("drain power must be positive")
        super().__init__(limits)
        self._capacity_j = capacity_j
        self.drain_power_w = drain_power_w
        self._stored_j = 0.0

    @property
    def capacity_j(self) -> float:
        return self._capacity_j

    @property
    def stored_heat_j(self) -> float:
        return self._stored_j

    def projected_stored_heat_j(self, idle_s: float) -> float:
        return max(0.0, self._stored_j - self.drain_power_w * idle_s)

    def _apply_deposit(self, joules: float) -> None:
        self._stored_j += joules

    def _apply_drain(self, idle_s: float) -> None:
        self._stored_j = max(0.0, self._stored_j - self.drain_power_w * idle_s)

    def _reset_state(self) -> None:
        self._stored_j = 0.0

    def absorb_batch(
        self, stored_heat_j: float, deposited_j: float, drained_j: float
    ) -> None:
        """Apply a vectorized run's net effect in one step.

        The engine's batched fast path (:mod:`repro.traffic.fastpath`)
        replays this reservoir's exact arithmetic in numpy and hands back
        the final stored heat plus the run's ledger deltas, so the backend
        ends bit-identical to having processed every request scalar-wise.
        Only the linear reservoir has the closed vector form, hence the
        method lives here and not on the base class.
        """
        if stored_heat_j < 0 or deposited_j < 0 or drained_j < 0:
            raise ValueError("batch state must be non-negative")
        self._stored_j = stored_heat_j
        self._deposited_j += deposited_j
        self._drained_j += drained_j


class RCCooling(ThermalBackend):
    """Exponential Newtonian drain with the package time constant.

    A sprint's deposit re-heats the junction to the melt plateau, so
    cooling restarts at the sustainable power and decays as the package
    relaxes toward ambient: after ``t`` seconds of accumulated idle since
    the last deposit the instantaneous drain power is ``P_sus * e^(-t/tau)``.
    The cooling clock persists across idle gaps (a zero-deposit sustained
    task does not re-heat the storage block), so fragmented idle drains
    exactly as much as one contiguous gap of the same total length — the
    package approaching ambient drains ever slower, unlike the linear
    reservoir's constant rate, however the idle is sliced.  As ``tau``
    grows the exponential flattens into the linear model's constant rate
    (``lim tau→inf`` of the drained energy over any gap is ``P_sus * dt``).

    The decay envelope can return ``P_sus * tau`` joules in total, so time
    constants below ``capacity / drain_power`` would strand heat forever
    and are rejected.  The default sits exactly at that bound — it is the
    package RC constant ``R_total * C_eff`` with the reservoir's capacity
    spread over the sustained operating drop, and it makes a *full*
    reservoir's drain exactly Newtonian (``Q(t) = capacity * e^(-t/tau)``,
    asymptotically reaching ambient, never stranding).
    """

    name = "rc"

    def __init__(
        self,
        capacity_j: float,
        drain_power_w: float,
        time_constant_s: float,
        limits: ThermalLimits,
    ) -> None:
        if capacity_j < 0:
            raise ValueError("reservoir capacity must be non-negative")
        if drain_power_w <= 0:
            raise ValueError("drain power must be positive")
        if time_constant_s <= 0:
            raise ValueError("time constant must be positive")
        if time_constant_s < capacity_j / drain_power_w:
            raise ValueError(
                "rc time constant must be at least capacity / drain power "
                f"({capacity_j / drain_power_w:.3f}s here); a faster decay "
                "could never return every stored joule to ambient"
            )
        super().__init__(limits)
        self._capacity_j = capacity_j
        self.drain_power_w = drain_power_w
        self.time_constant_s = time_constant_s
        self._stored_j = 0.0
        self._idle_since_deposit_s = 0.0

    @property
    def capacity_j(self) -> float:
        return self._capacity_j

    @property
    def stored_heat_j(self) -> float:
        return self._stored_j

    def projected_stored_heat_j(self, idle_s: float) -> float:
        # Drained energy is the integral of P_sus * e^(-t/tau) from the
        # accumulated idle t0 to t0 + idle_s.  -expm1(-x) = 1 - e^(-x)
        # without cancellation, so a huge tau degrades gracefully to the
        # linear drain instead of losing bits.
        tau = self.time_constant_s
        drained = (
            self.drain_power_w
            * tau
            * math.exp(-self._idle_since_deposit_s / tau)
            * -math.expm1(-idle_s / tau)
        )
        return max(0.0, self._stored_j - drained)

    def _apply_deposit(self, joules: float) -> None:
        self._stored_j += joules
        # The sprint re-heated the junction: cooling restarts at full rate.
        self._idle_since_deposit_s = 0.0

    def _apply_drain(self, idle_s: float) -> None:
        self._stored_j = self.projected_stored_heat_j(idle_s)
        self._idle_since_deposit_s += idle_s

    def _reset_state(self) -> None:
        self._stored_j = 0.0
        self._idle_since_deposit_s = 0.0


class PcmReservoir(ThermalBackend):
    """Enthalpy-tracked reservoir reproducing the Figure 4 melt plateau.

    The state is a :class:`~repro.thermal.pcm.PhaseChangeBlock` holding the
    package's PCM plus the junction's sensible capacity (lumped into the
    block's specific heat, so the backend's capacity equals the package
    sprint budget).  Deposits raise the block's enthalpy; idle cooling
    integrates the piecewise Figure 4 physics toward ambient through the
    cooling-path resistance:

    * liquid (fully molten): temperature decays exponentially toward
      ambient until the block reaches the melting point,
    * melt plateau (mixed phase): temperature is pinned at the melting
      point, so the block sheds heat at the constant plateau power,
    * solid: exponential decay again, asymptotically approaching ambient —
      the last fraction of the reservoir drains ever more slowly, which is
      where the linear model's constant-rate drain is optimistic.

    ``temperature_c`` and ``melt_fraction`` are the block's own state, so
    per-request telemetry shows the plateau directly.
    """

    name = "pcm"

    def __init__(
        self,
        block: PhaseChangeBlock,
        cooling_resistance_k_w: float,
        limits: ThermalLimits,
    ) -> None:
        if cooling_resistance_k_w <= 0:
            raise ValueError("cooling resistance must be positive")
        super().__init__(limits)
        self.block = block
        self.cooling_resistance_k_w = cooling_resistance_k_w
        block.set_temperature(limits.ambient_c)
        # Enthalpy of the fully-cooled block; stored heat is measured above it.
        self._floor_j = block.enthalpy_j

    # -- derived constants -----------------------------------------------------

    @property
    def plateau_power_w(self) -> float:
        """Cooling power while the block sits at the melting point."""
        return (
            self.block.melting_point_c - self.limits.ambient_c
        ) / self.cooling_resistance_k_w

    @property
    def solid_time_constant_s(self) -> float:
        """RC time constant of single-phase cooling toward ambient."""
        return self.cooling_resistance_k_w * self.block.sensible_capacity_j_k

    @property
    def capacity_j(self) -> float:
        latent = self.block.latent_capacity_j
        sensible = self.block.sensible_capacity_j_k * self.limits.headroom_c
        return latent + sensible

    @property
    def stored_heat_j(self) -> float:
        return self.block.enthalpy_j - self._floor_j

    def projected_stored_heat_j(self, idle_s: float) -> float:
        return self._cooled_enthalpy(self.block.enthalpy_j, idle_s) - self._floor_j

    def _apply_deposit(self, joules: float) -> None:
        self.block.add_heat(joules)

    def _apply_drain(self, idle_s: float) -> None:
        cooled = self._cooled_enthalpy(self.block.enthalpy_j, idle_s)
        self.block.add_heat(cooled - self.block.enthalpy_j)

    def _reset_state(self) -> None:
        self.block.set_temperature(self.limits.ambient_c)

    def _cooled_enthalpy(self, h: float, idle_s: float) -> float:
        """Enthalpy after ``idle_s`` seconds of cooling toward ambient (pure).

        Piecewise closed form over the three phases; enthalpy ``h`` is the
        block's convention (0 = fully solid at the melting point).
        """
        if idle_s == 0.0:
            # Exact no-op: the piecewise round trip below is float-lossy.
            return h
        sensible = self.block.sensible_capacity_j_k
        latent = self.block.latent_capacity_j
        plateau_c = self.block.melting_point_c - self.limits.ambient_c
        tau = self.solid_time_constant_s
        remaining = idle_s

        if h > latent:
            # Liquid: Newton cooling until the block is back at the melt point.
            above_ambient = plateau_c + (h - latent) / sensible
            to_melt_s = tau * math.log(above_ambient / plateau_c)
            if remaining < to_melt_s:
                cooled = above_ambient * math.exp(-remaining / tau)
                return latent + sensible * (cooled - plateau_c)
            remaining -= to_melt_s
            h = latent

        if h > 0.0:
            # Melt plateau: temperature pinned, constant cooling power.
            to_solid_s = h / self.plateau_power_w
            if remaining < to_solid_s:
                return h - self.plateau_power_w * remaining
            remaining -= to_solid_s
            h = 0.0

        # Solid: Newton cooling asymptotically toward the ambient floor.
        above_ambient = plateau_c + h / sensible
        cooled = above_ambient * math.exp(-remaining / tau)
        return sensible * (cooled - plateau_c)

    # -- telemetry -------------------------------------------------------------

    @property
    def temperature_c(self) -> float:
        return self.block.temperature_c

    @property
    def melt_fraction(self) -> float:
        return self.block.melt_fraction


@dataclass(frozen=True)
class ThermalSpec:
    """A thermal backend plus its knobs, independent of any platform.

    The sweep-friendly form of a backend: frozen (hashable, so it can sit
    on a grid axis and cross process boundaries) and built into a live
    :class:`ThermalBackend` against a concrete
    :class:`~repro.core.config.SystemConfig`, which supplies the package
    constants (sprint budget, sustainable power, RC path, PCM block).

    Knobs by backend (all others must stay unset):

    * ``linear`` — none.
    * ``rc`` — ``time_constant_s`` (optional; default derived from the
      package RC constants).
    * ``pcm`` — none (the block comes from the config's package); requires
      a :class:`~repro.thermal.package.PcmPackage`.
    """

    backend: str = "linear"
    time_constant_s: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in THERMAL_BACKENDS:
            raise ValueError(
                f"unknown thermal backend {self.backend!r}; "
                f"available: {THERMAL_BACKENDS}"
            )
        if self.time_constant_s is not None:
            if self.backend != "rc":
                raise ValueError(
                    f"{self.backend} backend does not take time_constant_s"
                )
            if not 0.0 < self.time_constant_s < math.inf:
                raise ValueError("time constant must be positive and finite (or None)")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def linear(cls) -> "ThermalSpec":
        return cls()

    @classmethod
    def rc(cls, time_constant_s: float | None = None) -> "ThermalSpec":
        return cls(backend="rc", time_constant_s=time_constant_s)

    @classmethod
    def pcm(cls) -> "ThermalSpec":
        return cls(backend="pcm")

    # -- use -------------------------------------------------------------------

    @property
    def label(self) -> str:
        """Compact form for sweep tables, e.g. ``rc[12s]`` or ``pcm``."""
        if self.backend == "rc" and self.time_constant_s is not None:
            return f"rc[{self.time_constant_s:g}s]"
        return self.backend

    def default_time_constant_s(self, config: SystemConfig) -> float:
        """Package time constant: total resistance x effective capacitance.

        The reservoir's effective capacitance is its capacity spread over
        the sustained operating drop, so the product equals
        ``capacity / sustainable_power`` — the smallest constant whose
        decay envelope can return every stored joule to ambient (see
        :class:`RCCooling`), tracking the package design rather than being
        a free parameter.
        """
        package = config.package
        capacity_j = package.sprint_budget_j(config.sprint_power_w)
        return capacity_j / config.sustainable_power_w

    def build(self, config: SystemConfig) -> ThermalBackend:
        """Instantiate the backend for a concrete platform."""
        package = config.package
        if self.backend == "pcm":
            if not isinstance(package, PcmPackage):
                raise TypeError(
                    "the pcm backend needs a PcmPackage; "
                    f"config has {type(package).__name__}"
                )
            # Lump the junction's sensible capacity into the block so the
            # backend's capacity equals the package sprint budget.
            material = replace(
                package.pcm_material,
                name=f"{package.pcm_material.name}+junction",
                specific_heat_j_gk=package.pcm_material.specific_heat_j_gk
                + package.junction_capacitance_j_k / package.pcm_mass_g,
            )
            block = PhaseChangeBlock(
                mass_g=package.pcm_mass_g,
                material=material,
                initial_temperature_c=package.limits.ambient_c,
            )
            return PcmReservoir(
                block, _cooling_resistance_k_w(package), package.limits
            )
        capacity_j = package.sprint_budget_j(config.sprint_power_w)
        if self.backend == "rc":
            tau = (
                self.time_constant_s
                if self.time_constant_s is not None
                else self.default_time_constant_s(config)
            )
            return RCCooling(
                capacity_j, config.sustainable_power_w, tau, package.limits
            )
        return LinearReservoir(
            capacity_j, config.sustainable_power_w, package.limits
        )
