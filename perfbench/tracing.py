"""Span tracing from outside the simulator: timing wrappers on public calls.

The benchmark never edits the package it measures.  A :class:`Tracer`
wraps named public functions and methods of ``repro`` with a timing shim,
keeps one span per call in memory (name, start, end, parent span, run
id), and accumulates each layer's *self time*: a span's duration minus
the part of it covered by child spans.  ``uninstall`` restores every
original object, so an untraced run in the same process executes the
original code.

A call that re-enters the layer it is already in (``SprintDevice.serve``
calling ``SprintDevice.execute``, a cascade acquire calling a level
acquire) is folded into the outer span, so a layer's call count is the
number of times control entered it from another layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: Spans that mark a unit of work rather than a layer of the simulator.
#: Their self time is host time no instrumented layer accounts for.
STRUCTURAL = ("unit", "item", "shard_run")

#: Layer name -> public call sites, as ``module:Qualified.name`` strings.
#: A class method patched on a base class is also patched on every
#: subclass that overrides it.  Targets missing from the package are
#: skipped and reported, so the benchmark outlives refactors that remove
#: an entry point.
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "item": (
        "repro.core.simulation:SprintSimulation.run",
        "repro.traffic.experiments:Scenario.simulate",
    ),
    "shard_run": ("repro.traffic.shard:run_sharded",),
    "arch.advance": ("repro.arch.simulator:ExecutionEngine.advance",),
    "thermal.step": ("repro.thermal.network:ThermalNetwork.step",),
    "core.controller": (
        "repro.core.controller:SprintController.begin_task",
        "repro.core.controller:SprintController.on_quantum",
    ),
    "core.thermal_backend": (
        "repro.core.thermal_backend:ThermalBackend.deposit",
        "repro.core.thermal_backend:ThermalBackend.drain",
        "repro.core.thermal_backend:ThermalBackend.projected_stored_heat_j",
    ),
    "workloads.suite": (
        "repro.workloads.suite:kernel_suite",
        "repro.workloads.suite:KernelWorkloadFamily.workload",
    ),
    "traffic.requests": (
        "repro.traffic.experiments:Scenario.requests",
        "repro.traffic.request:generate_requests",
    ),
    "traffic.build_fleet": ("repro.traffic.experiments:Scenario.build_fleet",),
    "traffic.engine": (
        "repro.traffic.engine:ServingEngine.run",
        "repro.traffic.engine:ServingEngine.run_blocks",
    ),
    "traffic.device": (
        "repro.traffic.device:SprintDevice.serve",
        "repro.traffic.device:SprintDevice.execute",
        "repro.traffic.device:SprintDevice.absorb_batch",
    ),
    "traffic.governor": (
        "repro.traffic.governor:SprintGovernor.acquire",
        "repro.traffic.governor:SprintGovernor.release",
    ),
    "traffic.telemetry": (
        "repro.traffic.telemetry:TrafficTelemetry.observe",
        "repro.traffic.telemetry:TrafficTelemetry.observe_batch",
        "repro.traffic.telemetry:TrafficTelemetry.observe_rejected",
        "repro.traffic.telemetry:TrafficTelemetry.observe_abandoned",
        "repro.traffic.telemetry:TimelineProbe.on_*",
    ),
    "traffic.shard_plan": (
        "repro.traffic.shard:plan_shards",
        "repro.traffic.topology:slice_schedules",
    ),
    "traffic.pool": ("repro.traffic.sweep:pool_map",),
    "traffic.summary": (
        "repro.traffic.fleet:FleetResult.summary",
        "repro.traffic.experiments:ExperimentResult.estimate",
    ),
}


#: Spans kept in the log; beyond it only the per-layer totals grow.
SPAN_CAPACITY = 2_000_000

#: Columns of the span log: layer index (into ``layers``), span id,
#: start and end (``perf_counter`` seconds), parent span id (-1 at the
#: root) and run id (one per work item).
LOG_FIELDS = ("layer", "span", "start_s", "end_s", "parent", "run")

#: Layers whose calls carry a sized batch of work: (keyword, position) of
#: the argument whose length is added to the layer's job count.
SIZED_ARGUMENT = {"traffic.pool": ("jobs", 1)}


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder with per-layer self time and call counts."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._index: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self._jobs: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self.spans_dropped = 0
        # One flat row of LOG_FIELDS per closed span (ids are exact in float64).
        self._log = array("d")
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._item = self._layer("item")

    # -- spans ---------------------------------------------------------------------

    def _layer(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._index[name]

    def _open(self, layer: int) -> list:
        if layer == self._item and not any(f[0] == layer for f in self._stack):
            self.run_id += 1
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1][3] if self._stack else -1
        frame = [layer, 0.0, 0.0, span_id, parent]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        layer, start, child_s, span_id, parent = frame
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self._log) < SPAN_CAPACITY * len(LOG_FIELDS):
            self._log.extend((layer, span_id, start, end, parent, self.run_id))
        else:
            self.spans_dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        frame = self._open(self._layer(name))
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span of layer ``name``."""
        layer = self._layer(name)
        stack = self._stack
        open_, close = self._open, self._close
        sized = SIZED_ARGUMENT.get(name)
        jobs = self._jobs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if sized is not None:
                keyword, position = sized
                batch = kwargs.get(keyword, args[position] if len(args) > position else ())
                if hasattr(batch, "__len__"):
                    jobs[name] = jobs.get(name, 0) + len(batch)
            frame = open_(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return traced

    # -- installation ----------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod | classmethod):
            wrapped = type(raw)(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _install_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        # ``from x import f`` copies the reference: rebind every copy.
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _install_method(self, cls: type, pattern: str, name: str) -> bool:
        found = False
        for sub in _subclasses(cls):
            for attr, value in list(vars(sub).items()):
                matches = (
                    attr.startswith(pattern[:-1])
                    if pattern.endswith("*")
                    else attr == pattern
                )
                if not matches or not callable(getattr(value, "__func__", value)):
                    continue
                if getattr(value, "__isabstractmethod__", False):
                    continue
                self._patch(sub, attr, name)
                found = True
        return found

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.absent = []
        for name, sites in LAYER_TARGETS.items():
            for site in sites:
                module_name, _, qualname = site.partition(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(site)
                    continue
                head, _, tail = qualname.partition(".")
                owner = getattr(module, head, None)
                if owner is None:
                    self.absent.append(site)
                elif not tail:
                    self._install_function(module, head, name)
                elif not self._install_method(owner, tail, name):
                    self.absent.append(site)

    def uninstall(self) -> None:
        """Restore every patched object, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def self_time(self, name: str) -> float:
        return self.self_s[self._index[name]] if name in self._index else 0.0

    def call_count(self, name: str) -> int:
        return self.calls[self._index[name]] if name in self._index else 0

    def jobs(self, name: str) -> int:
        """Work items handed to a layer with a sized batch argument."""
        return self._jobs.get(name, 0)

    def unattributed_s(self) -> float:
        """Self time of the structural spans: host time in no named layer."""
        return sum(self.self_time(name) for name in STRUCTURAL)

    def _columns(self) -> dict[str, np.ndarray]:
        rows = np.frombuffer(self._log, dtype=np.float64).reshape(-1, len(LOG_FIELDS))
        return dict(zip(LOG_FIELDS, rows.T))

    def durations(self, name: str, within: str) -> np.ndarray:
        """Inclusive durations of the ``name`` spans inside a ``within`` span."""
        if name not in self._index or within not in self._index:
            return np.zeros(0)
        log = self._columns()
        names, starts, ends = log["layer"], log["start_s"], log["end_s"]
        picked = np.flatnonzero(names == self._index[name])
        inside = np.zeros(picked.size, dtype=bool)
        for row in np.flatnonzero(names == self._index[within]):
            inside |= (starts[picked] >= starts[row]) & (ends[picked] <= ends[row])
        picked = picked[inside]
        return ends[picked] - starts[picked]

    def span_count(self) -> int:
        return len(self._log) // len(LOG_FIELDS) + self.spans_dropped

    def dump(self, path: Path) -> None:
        """Write the span log (columnar, compressed) for offline analysis."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(self.layers), **self._columns())
