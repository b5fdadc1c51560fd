"""Lumped RC thermal network solver.

Figure 3 of the paper models the phone's thermal path as an equivalent
electrical circuit: heat sources inject power into capacitive nodes (die
junction, PCM block, case) connected by thermal resistances, with the
ambient environment acting as a fixed-temperature rail.  This module
implements that abstraction as a small graph-based solver:

* :class:`ThermalNetwork` holds nodes and resistive connections,
* capacitive nodes integrate ``C dT/dt = sum of heat flows + injected power``,
* PCM nodes use the enthalpy formulation from :mod:`repro.thermal.pcm`,
* fixed nodes (ambient) never change temperature and absorb whatever heat
  reaches them.

The solver is exact, not a time-stepping approximation.  The network is
linear except for the PCM phase, so while every PCM node stays in one phase
it is a linear time-invariant system.  A PCM node that is solid or liquid is
*free*: it behaves like a capacitance node with the block's sensible
capacity.  A PCM node on its melt plateau is *clamped* at the melting point,
like a fixed node, and its enthalpy absorbs the net heat that reaches it.
For the free temperatures ``x`` and the clamped temperatures ``T_K``::

    C dx/dt = -L_FF x - L_FK T_K + P_F

where ``L`` is the conductance (graph Laplacian) matrix.  The network
compiles this system once per PCM phase set: it factors the symmetric
``C^-1/2 L_FF C^-1/2`` with :func:`numpy.linalg.eigh` and, for each step
length ``dt``, caches one affine propagator that maps the node temperatures
and injected powers to the heat every node absorbs over the step.  Free
nodes take ``e^{A dt}`` and the ``phi_1`` term; clamped nodes (ambient, a
melting PCM) take the integrated flow, the ``phi_2`` term.  A step is then
one small matrix-vector product.

Energy is conserved to float rounding: the heat a step hands to the
ambient and to a melting PCM is integrated from the flows themselves, not
inferred from the energy balance, so the conservation tests remain a real
check.  When a step would carry a PCM node across its solid/plateau/liquid
boundary, bisection finds the crossing time and the step is split there.
A crossing that reverses within a single step goes undetected; the
simulator's millisecond steps keep that far below any resolvable effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.thermal.pcm import PhaseChangeBlock

PowerMap = Mapping[str, float]

#: Phases of a PCM node as the solver sees them.
_SOLID, _MELTING, _LIQUID = "solid", "melting", "liquid"

#: Below this ``|lambda dt|`` the phi functions use their Taylor series, which
#: avoids the cancellation in ``(e^z - 1 - z) / z^2``.
_SERIES_BELOW = 0.1
_PHI1_SERIES = [1.0 / math.factorial(k + 1) for k in range(9)][::-1]
_PHI2_SERIES = [1.0 / math.factorial(k + 2) for k in range(9)][::-1]

#: Propagators kept per phase set; step lengths beyond this evict the cache.
_PROPAGATOR_CACHE = 32


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


@dataclass
class _CapacitanceNode:
    name: str
    capacitance_j_k: float
    temperature_c: float

    def add_heat(self, joules: float) -> None:
        self.temperature_c += joules / self.capacitance_j_k


@dataclass
class _PcmNode:
    name: str
    block: PhaseChangeBlock

    @property
    def temperature_c(self) -> float:
        return self.block.temperature_c

    def add_heat(self, joules: float) -> None:
        self.block.add_heat(joules)


@dataclass
class _FixedNode:
    name: str
    temperature_c: float
    absorbed_j: float = 0.0

    def add_heat(self, joules: float) -> None:
        self.absorbed_j += joules


@dataclass(frozen=True)
class _Edge:
    node_a: str
    node_b: str
    resistance_k_w: float


@dataclass
class NetworkState:
    """Snapshot of node temperatures and bookkeeping counters."""

    time_s: float
    temperatures_c: dict[str, float]
    melt_fractions: dict[str, float] = field(default_factory=dict)


def _phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``e^z - 1``, ``phi_1(z) = (e^z - 1)/z`` and ``phi_2(z) = (e^z - 1 - z)/z^2``."""
    em1 = np.expm1(z)
    small = np.abs(z) < _SERIES_BELOW
    safe = np.where(small, 1.0, z)
    phi1 = np.where(small, np.polyval(_PHI1_SERIES, z), em1 / safe)
    phi2 = np.where(small, np.polyval(_PHI2_SERIES, z), (em1 - z) / (safe * safe))
    return em1, phi1, phi2


class _LinearSystem:
    """The network linearised for one PCM phase set.

    ``propagator(dt)`` is the ``n x 2n`` matrix taking ``[T; P]`` (every
    node's temperature, then every node's injected power) to the heat each
    node absorbs over ``dt``.
    """

    def __init__(self, laplacian: np.ndarray, capacity: np.ndarray, clamped: np.ndarray) -> None:
        self._n = len(capacity)
        self._free = np.flatnonzero(~clamped)
        self._clamped = np.flatnonzero(clamped)
        free, fixed = self._free, self._clamped
        root = np.sqrt(capacity[free])
        symmetric = laplacian[np.ix_(free, free)] / np.outer(root, root)
        rates, modes = np.linalg.eigh(symmetric)
        # Rounding can leave a zero rate (a floating island) slightly negative.
        self._rates = np.maximum(rates, 0.0)
        self._heat_left = root[:, None] * modes  # C^1/2 V
        self._flow_left = modes / root[:, None]  # C^-1/2 V
        self._from_x = modes.T * root  # V^T C^1/2
        self._from_f = modes.T / root  # V^T C^-1/2
        # Free forcing f = coupling @ T_K + P_F; clamped heat rate is
        # drain @ x + hold @ T_K + P_K.
        self._coupling = -laplacian[np.ix_(free, fixed)]
        self._drain = -laplacian[np.ix_(fixed, free)]
        self._hold = -laplacian[np.ix_(fixed, fixed)]
        self._cache: dict[float, np.ndarray] = {}

    def propagator(self, dt_s: float) -> np.ndarray:
        matrix = self._cache.get(dt_s)
        if matrix is None:
            if len(self._cache) >= _PROPAGATOR_CACHE:
                self._cache.clear()
            matrix = self._cache[dt_s] = self.build(dt_s)
        return matrix

    def build(self, dt_s: float) -> np.ndarray:
        n, free, fixed = self._n, self._free, self._clamped
        em1, phi1, phi2 = _phi(-self._rates * dt_s)
        heat_x = (self._heat_left * em1) @ self._from_x
        heat_f = dt_s * (self._heat_left * phi1) @ self._from_f
        flow_x = dt_s * (self._flow_left * phi1) @ self._from_x
        flow_f = dt_s * dt_s * (self._flow_left * phi2) @ self._from_f

        matrix = np.zeros((n, 2 * n))
        matrix[np.ix_(free, free)] = heat_x
        matrix[np.ix_(free, fixed)] = heat_f @ self._coupling
        matrix[np.ix_(free, n + free)] = heat_f
        matrix[np.ix_(fixed, free)] = self._drain @ flow_x
        matrix[np.ix_(fixed, fixed)] = self._drain @ flow_f @ self._coupling + dt_s * self._hold
        matrix[np.ix_(fixed, n + free)] = self._drain @ flow_f
        matrix[fixed, n + fixed] = dt_s
        return matrix


class _Topology:
    """Node order, conductance matrix and compiled phase sets of a network."""

    def __init__(self, nodes: dict, edges: list[_Edge]) -> None:
        names = list(nodes)
        self.nodes = list(nodes.values())
        self.index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.laplacian = np.zeros((n, n))
        for edge in edges:
            a, b = self.index[edge.node_a], self.index[edge.node_b]
            g = 1.0 / edge.resistance_k_w
            self.laplacian[a, a] += g
            self.laplacian[b, b] += g
            self.laplacian[a, b] -= g
            self.laplacian[b, a] -= g
        self.pcm = [
            (i, node.block) for i, node in enumerate(self.nodes) if isinstance(node, _PcmNode)
        ]
        self.systems: dict[tuple[str, ...], _LinearSystem] = {}

    def system(self, phases: tuple[str, ...]) -> _LinearSystem:
        system = self.systems.get(phases)
        if system is None:
            capacity = np.ones(len(self.nodes))
            clamped = np.zeros(len(self.nodes), dtype=bool)
            for i, node in enumerate(self.nodes):
                if isinstance(node, _CapacitanceNode):
                    capacity[i] = node.capacitance_j_k
                elif isinstance(node, _FixedNode):
                    clamped[i] = True
            for (i, block), phase in zip(self.pcm, phases):
                capacity[i] = block.sensible_capacity_j_k
                clamped[i] = phase == _MELTING
            system = self.systems[phases] = _LinearSystem(self.laplacian, capacity, clamped)
        return system

    def phases(self) -> tuple[str, ...]:
        """Current phase of every PCM node.

        A block exactly on a phase boundary counts as single-phase; if the
        step drives it into the plateau, the crossing check splits the step
        at once.
        """
        phases = []
        for _, block in self.pcm:
            enthalpy = block.enthalpy_j
            if enthalpy <= 0.0:
                phases.append(_SOLID)
            elif enthalpy >= block.latent_capacity_j:
                phases.append(_LIQUID)
            else:
                phases.append(_MELTING)
        return tuple(phases)

    def crosses(self, phases: tuple[str, ...], heat: list[float]) -> bool:
        """Whether absorbing ``heat`` takes any PCM node out of its phase."""
        for (i, block), phase in zip(self.pcm, phases):
            enthalpy = block.enthalpy_j + heat[i]
            if phase == _SOLID:
                if enthalpy > 0.0:
                    return True
            elif phase == _LIQUID:
                if enthalpy < block.latent_capacity_j:
                    return True
            elif not 0.0 <= enthalpy <= block.latent_capacity_j:
                return True
        return False


class ThermalNetwork:
    """A lumped-parameter thermal RC network.

    Typical construction (mirroring Figure 3(d) of the paper)::

        net = ThermalNetwork(ambient_c=25.0)
        net.add_capacitance_node("junction", capacitance_j_k=0.1)
        net.add_pcm_node("pcm", PhaseChangeBlock(mass_g=0.150))
        net.add_capacitance_node("case", capacitance_j_k=20.0)
        net.add_fixed_node("ambient", temperature_c=25.0)
        net.connect("junction", "pcm", resistance_k_w=0.5)
        net.connect("pcm", "case", resistance_k_w=3.5)
        net.connect("case", "ambient", resistance_k_w=30.0)
        net.step(dt_s=0.01, power_w={"junction": 16.0})
    """

    def __init__(self, ambient_c: float = 25.0) -> None:
        _require_finite(ambient_c, "ambient temperature")
        self.ambient_c = ambient_c
        self._nodes: dict[str, _CapacitanceNode | _PcmNode | _FixedNode] = {}
        self._edges: list[_Edge] = []
        self._topology: _Topology | None = None
        self._time_s = 0.0
        self._injected_j = 0.0

    # -- construction ----------------------------------------------------------

    def add_capacitance_node(
        self,
        name: str,
        capacitance_j_k: float,
        initial_temperature_c: float | None = None,
    ) -> None:
        """Add a node with plain sensible heat capacity."""
        self._check_new_name(name)
        if not (math.isfinite(capacitance_j_k) and capacitance_j_k > 0):
            raise ValueError(f"capacitance must be positive and finite, got {capacitance_j_k}")
        temperature = (
            self.ambient_c if initial_temperature_c is None else initial_temperature_c
        )
        _require_finite(temperature, "initial temperature")
        self._nodes[name] = _CapacitanceNode(name, capacitance_j_k, temperature)
        self._topology = None

    def add_pcm_node(self, name: str, block: PhaseChangeBlock) -> None:
        """Add a node whose state is a :class:`PhaseChangeBlock`."""
        self._check_new_name(name)
        self._nodes[name] = _PcmNode(name, block)
        self._topology = None

    def add_fixed_node(self, name: str, temperature_c: float | None = None) -> None:
        """Add a fixed-temperature node (the ambient environment)."""
        self._check_new_name(name)
        temperature = self.ambient_c if temperature_c is None else temperature_c
        _require_finite(temperature, "fixed temperature")
        self._nodes[name] = _FixedNode(name, temperature)
        self._topology = None

    def connect(self, node_a: str, node_b: str, resistance_k_w: float) -> None:
        """Connect two nodes with a thermal resistance in K/W."""
        if not (math.isfinite(resistance_k_w) and resistance_k_w > 0):
            raise ValueError(f"resistance must be positive and finite, got {resistance_k_w}")
        for name in (node_a, node_b):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        if node_a == node_b:
            raise ValueError("cannot connect a node to itself")
        self._edges.append(_Edge(node_a, node_b, resistance_k_w))
        self._topology = None

    def _check_new_name(self, name: str) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")

    # -- introspection ---------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since construction (seconds)."""
        return self._time_s

    @property
    def node_names(self) -> list[str]:
        """Names of all nodes in insertion order."""
        return list(self._nodes)

    def temperature(self, name: str) -> float:
        """Temperature of a single node in Celsius."""
        return self._nodes[name].temperature_c

    def temperatures(self) -> dict[str, float]:
        """Mapping from node name to current temperature."""
        return {name: node.temperature_c for name, node in self._nodes.items()}

    def melt_fraction(self, name: str) -> float:
        """Melt fraction of a PCM node (0 for non-PCM nodes)."""
        node = self._nodes[name]
        if isinstance(node, _PcmNode):
            return node.block.melt_fraction
        return 0.0

    def pcm_block(self, name: str) -> PhaseChangeBlock:
        """Return the PCM block backing a PCM node."""
        node = self._nodes[name]
        if not isinstance(node, _PcmNode):
            raise TypeError(f"node {name!r} is not a PCM node")
        return node.block

    def state(self) -> NetworkState:
        """Snapshot of the current network state."""
        melt = {
            name: node.block.melt_fraction
            for name, node in self._nodes.items()
            if isinstance(node, _PcmNode)
        }
        return NetworkState(self._time_s, self.temperatures(), melt)

    # -- energy accounting ------------------------------------------------------

    @property
    def injected_energy_j(self) -> float:
        """Total energy injected through :meth:`step` power maps."""
        return self._injected_j

    @property
    def dissipated_energy_j(self) -> float:
        """Total energy absorbed by fixed-temperature (ambient) nodes."""
        return sum(
            node.absorbed_j
            for node in self._nodes.values()
            if isinstance(node, _FixedNode)
        )

    def stored_energy_j(self, reference_c: float | None = None) -> float:
        """Energy stored in capacitive/PCM nodes relative to a reference.

        The reference defaults to the ambient temperature, so that a network
        in equilibrium with the environment stores zero energy.
        """
        reference = self.ambient_c if reference_c is None else reference_c
        total = 0.0
        for node in self._nodes.values():
            if isinstance(node, _CapacitanceNode):
                total += node.capacitance_j_k * (node.temperature_c - reference)
            elif isinstance(node, _PcmNode):
                block = node.block
                baseline = block.sensible_capacity_j_k * (
                    reference - block.melting_point_c
                )
                if reference > block.melting_point_c:
                    baseline += block.latent_capacity_j
                total += block.enthalpy_j - baseline
        return total

    # -- integration -------------------------------------------------------------

    def step(self, dt_s: float, power_w: PowerMap | None = None) -> None:
        """Advance the network by ``dt_s`` seconds.

        Parameters
        ----------
        dt_s:
            Duration to advance; finite and non-negative.  The step is solved
            exactly, split only where a PCM node changes phase.
        power_w:
            Mapping from node name to injected power in watts, held constant
            over the step.  Unlisted nodes receive no power.  Every value
            must be finite.
        """
        if not (math.isfinite(dt_s) and dt_s >= 0):
            raise ValueError(f"dt must be finite and non-negative, got {dt_s}")
        topology = self._topology or self._compile()
        watts = [0.0] * len(topology.nodes)
        for name, value in (power_w or {}).items():
            index = topology.index.get(name)
            if index is None:
                raise KeyError(f"power injected into unknown node {name!r}")
            if not math.isfinite(value):
                raise ValueError(f"power into {name!r} must be finite, got {value}")
            watts[index] += value
        if dt_s == 0:
            return

        remaining = dt_s
        while remaining > 0.0:
            remaining -= self._advance(topology, remaining, watts)
        self._time_s += dt_s
        self._injected_j += sum(watts) * dt_s

    def run(
        self,
        duration_s: float,
        power_w: PowerMap | Callable[[float], PowerMap],
        sample_dt_s: float = 0.01,
        callback: Callable[[NetworkState], None] | None = None,
    ) -> list[NetworkState]:
        """Run for ``duration_s`` seconds, sampling the state periodically.

        ``power_w`` may be a constant mapping or a callable of simulated time
        returning a mapping.  Returns the list of sampled states including
        the initial state.
        """
        if not (math.isfinite(duration_s) and duration_s >= 0):
            raise ValueError(f"duration must be finite and non-negative, got {duration_s}")
        if not (math.isfinite(sample_dt_s) and sample_dt_s > 0):
            raise ValueError(f"sample_dt_s must be positive and finite, got {sample_dt_s}")
        states = [self.state()]
        if callback is not None:
            callback(states[0])
        elapsed = 0.0
        while elapsed < duration_s - 1e-12:
            step = min(sample_dt_s, duration_s - elapsed)
            current_power = power_w(self._time_s) if callable(power_w) else power_w
            self.step(step, current_power)
            elapsed += step
            snapshot = self.state()
            states.append(snapshot)
            if callback is not None:
                callback(snapshot)
        return states

    # -- internals ----------------------------------------------------------------

    def _compile(self) -> _Topology:
        self._topology = _Topology(self._nodes, self._edges)
        return self._topology

    def _advance(self, topology: _Topology, dt_s: float, watts: list[float]) -> float:
        """Advance up to ``dt_s`` within one phase set; returns the time taken."""
        phases = topology.phases()
        system = topology.system(phases)
        vector = np.array([node.temperature_c for node in topology.nodes] + watts)
        heat = (system.propagator(dt_s) @ vector).tolist()
        taken = dt_s
        if topology.crosses(phases, heat):
            # Bisect for the first phase crossing; ``taken`` always lies just
            # past it, so the crossing node leaves this step in its new phase.
            before = 0.0
            while taken - before > 1e-12 * dt_s:
                middle = 0.5 * (before + taken)
                trial = (system.build(middle) @ vector).tolist()
                if topology.crosses(phases, trial):
                    taken, heat = middle, trial
                else:
                    before = middle
        for node, joules in zip(topology.nodes, heat):
            node.add_heat(joules)
        return taken


def total_resistance_between(
    edges: Iterable[tuple[str, str, float]], path: list[str]
) -> float:
    """Sum series resistances along a node path.

    Convenience helper used by package builders and tests to reason about
    steady-state temperature drops: the sustained power budget of the paper's
    design is ``(T_melt - T_ambient) / total_resistance``.
    """
    lookup: dict[frozenset[str], float] = {}
    for node_a, node_b, resistance in edges:
        lookup[frozenset((node_a, node_b))] = resistance
    total = 0.0
    for node_a, node_b in zip(path, path[1:]):
        key = frozenset((node_a, node_b))
        if key not in lookup:
            raise KeyError(f"no edge between {node_a!r} and {node_b!r}")
        total += lookup[key]
    return total
