"""Forward-Euler reference integrator for the thermal network tests.

:class:`repro.thermal.network.ThermalNetwork` solves the RC/PCM network
exactly.  This oracle integrates the same model the slow, obvious way:
fixed forward-Euler sub-steps of ``safety`` times the smallest node time
constant, with PCM nodes advanced through their enthalpy and their
time constant taken from :meth:`PhaseChangeBlock.effective_capacity_j_k`.
It mirrors the construction API of ``ThermalNetwork``, so a package's own
``build()`` can produce one (monkeypatch ``repro.thermal.package.ThermalNetwork``),
and it exists only as a differential check: as ``safety`` shrinks its
answer must converge on the exact solver's.
"""

from __future__ import annotations

import math

from repro.thermal.pcm import PhaseChangeBlock


class EulerNetwork:
    """Forward-Euler twin of ``ThermalNetwork`` (construction, step, readout)."""

    def __init__(self, ambient_c: float = 25.0, safety: float = 0.005) -> None:
        self.ambient_c = ambient_c
        self.safety = safety
        self._temperature: dict[str, float] = {}
        self._capacity: dict[str, float] = {}
        self._blocks: dict[str, PhaseChangeBlock] = {}
        self._conductance: dict[str, float] = {}
        self._edges: list[tuple[str, str, float]] = []

    def add_capacitance_node(self, name, capacitance_j_k, initial_temperature_c=None):
        start = self.ambient_c if initial_temperature_c is None else initial_temperature_c
        self._temperature[name] = start
        self._capacity[name] = capacitance_j_k
        self._conductance[name] = 0.0

    def add_pcm_node(self, name, block):
        self._blocks[name] = block
        self._conductance[name] = 0.0

    def add_fixed_node(self, name, temperature_c=None):
        self._temperature[name] = self.ambient_c if temperature_c is None else temperature_c
        self._conductance[name] = 0.0

    def connect(self, node_a, node_b, resistance_k_w):
        self._edges.append((node_a, node_b, resistance_k_w))
        self._conductance[node_a] += 1.0 / resistance_k_w
        self._conductance[node_b] += 1.0 / resistance_k_w

    @property
    def node_names(self) -> list[str]:
        return list(self._conductance)

    def temperature(self, name: str) -> float:
        if name in self._blocks:
            return self._blocks[name].temperature_c
        return self._temperature[name]

    def melt_fraction(self, name: str) -> float:
        return self._blocks[name].melt_fraction if name in self._blocks else 0.0

    def step(self, dt_s: float, power_w=None) -> None:
        power = dict(power_w or {})
        remaining = dt_s
        while remaining > 1e-15:
            sub_dt = min(remaining, self._stable_dt())
            self._substep(sub_dt, power)
            remaining -= sub_dt

    def _stable_dt(self) -> float:
        smallest = math.inf
        for name, conductance in self._conductance.items():
            if name in self._blocks:
                capacity = self._blocks[name].effective_capacity_j_k()
            elif name in self._capacity:
                capacity = self._capacity[name]
            else:
                continue
            if conductance > 0.0:
                smallest = min(smallest, capacity / conductance)
        return self.safety * smallest

    def _substep(self, dt_s: float, power: dict[str, float]) -> None:
        temps = {name: self.temperature(name) for name in self._conductance}
        heat = {name: power.get(name, 0.0) * dt_s for name in self._conductance}
        for node_a, node_b, resistance in self._edges:
            flow_j = (temps[node_a] - temps[node_b]) / resistance * dt_s
            heat[node_a] -= flow_j
            heat[node_b] += flow_j
        for name, joules in heat.items():
            if name in self._blocks:
                self._blocks[name].add_heat(joules)
            elif name in self._capacity:
                self._temperature[name] += joules / self._capacity[name]
