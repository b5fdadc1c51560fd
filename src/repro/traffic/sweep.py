"""Scenario sweeps: a base :class:`~repro.traffic.experiments.Scenario`
crossed with named axes of overrides.

One fleet run answers one question; the interesting questions — how much
fleet does a target SLO need, which dispatch policy wins under overload,
how much admission control buys at the tail, how tight a shared power
budget can be before the tail pays — are surfaces over a grid of
scenarios.  A :class:`SweepSpec` describes that grid as one base scenario
plus an ordered tuple of ``(scenario field, values)`` axes; every cell is
``base.with_options(**overrides)`` for one combination, so a sweep cell
is exactly the experiment a :class:`~repro.traffic.experiments.Scenario`
describes, simulated through :meth:`Scenario.simulate`.

:func:`run_sweep` fans the cells across worker processes with
:mod:`multiprocessing`, seeding each cell deterministically from the
sweep's base seed and the cell's position, so the full sweep is
reproducible and bit-identical whether it runs serially or on any number
of workers.  The request stream of a cell depends only on its position
along the request-stream axes (``arrivals``, ``service``, ``n_requests``,
``deadline_s``), so cells that differ in policy, fleet size, dispatch
mode, governor, thermal backend, or topology replay the same stream —
comparisons along every other axis are paired.

Redundant cells collapse, so no scenario is ever simulated twice:

* immediate-dispatch cells ignore the ``discipline`` and ``queue_bound``
  axes (they report the defaults, ``"fifo"`` and no bound), and
  central-queue cells ignore ``policy`` (first value kept);
* a sprint-disabled cell ignores the ``governor`` and ``thermal`` axes (a
  fleet that never sprints deposits no heat and asks for no grant);
* a topology cell takes its device count and budgets from its
  :class:`~repro.traffic.topology.TopologySpec`, so it ignores the
  ``n_devices`` and ``governor`` axes;
* a cell whose scenario equals an earlier cell's (duplicate axis values)
  collapses to its first occurrence.

Usage — the grid is the cross product of the axes:

>>> from repro.traffic.arrivals import PoissonArrivals
>>> from repro.traffic.experiments import Scenario
>>> from repro.traffic.request import FixedService
>>> from repro.traffic.sweep import SweepSpec, expand_cells
>>> base = Scenario(PoissonArrivals(0.1), FixedService(5.0), n_requests=50)
>>> spec = SweepSpec(
...     base,
...     axes=(
...         ("arrivals", (PoissonArrivals(0.1), PoissonArrivals(0.2))),
...         ("mode", ("immediate", "central_queue")),
...     ),
... )
>>> len(expand_cells(spec))
4
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.config import SystemConfig
from repro.traffic.arrivals import seed_stream
from repro.traffic.experiments import PAIRING_MODES, Scenario, pool_map
from repro.traffic.governor import GovernorSpec
from repro.traffic.metrics import MetricEstimate, TrafficSummary, mean_ci
from repro.traffic.telemetry import RunTelemetry, TrafficTelemetry

__all__ = [
    "CellResult",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "expand_cells",
    "run_cell",
    "run_sweep",
]

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))

#: Scenario fields that shape the request stream.  A cell's stream key is
#: its position along these axes only, so every other axis stays paired.
_STREAM_FIELDS = ("arrivals", "service", "n_requests", "deadline_s")


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario, the axes that vary it, and the replication design.

    ``axes`` is an ordered tuple of ``(field, values)`` pairs naming
    :class:`~repro.traffic.experiments.Scenario` fields; the grid is their
    cross product in axis order (the last axis varies fastest), and a
    spec without axes is the single base cell.

    ``replications`` runs every cell that many times under distinct
    replication seed streams and reports all replicate summaries on its
    :class:`CellResult` (confidence intervals via
    :meth:`CellResult.estimate`).  ``pairing`` selects the replication
    seeding: ``"crn"`` (default) keeps cells with the same request stream
    on common streams per replication — paired comparisons along every
    other axis, with replication 0 replaying the single-run stream — while
    ``"independent"`` keys every replication of every cell by its grid
    index, so no two cells share a stream.  Deterministic cells
    (:attr:`Scenario.is_deterministic`) collapse to a single replication:
    re-running an identical simulation is redundant.
    """

    base: Scenario
    axes: tuple[tuple[str, tuple], ...] = ()
    replications: int = 1
    pairing: str = "crn"
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base, Scenario):
            raise TypeError(
                f"a sweep's base must be a Scenario, not {type(self.base).__name__}"
            )
        axes = tuple((name, tuple(values)) for name, values in self.axes)
        object.__setattr__(self, "axes", axes)
        names = [name for name, _ in axes]
        unknown = sorted(set(names) - _SCENARIO_FIELDS)
        if unknown:
            raise ValueError(f"sweep axes name unknown scenario fields: {unknown}")
        if len(set(names)) != len(names):
            raise ValueError("each scenario field can be swept on one axis only")
        if any(not values for _, values in axes):
            raise ValueError("every grid axis needs at least one value")
        if self.replications < 1:
            raise ValueError("at least one replication per cell is required")
        if self.pairing not in PAIRING_MODES:
            raise ValueError(
                f"unknown pairing mode {self.pairing!r}; available: {PAIRING_MODES}"
            )
        expand_cells(self)  # fail fast: every cell must be a valid Scenario


@dataclass(frozen=True)
class SweepCell:
    """One scenario in the grid, with its deterministic seed material."""

    index: int
    #: Position along the request-stream axes.  Every other axis is
    #: deliberately excluded, so cells differing only in fleet, dispatch,
    #: governance, or thermal settings replay the exact same stream.
    stream_key: tuple[int, ...]
    scenario: Scenario


@dataclass(frozen=True)
class CellResult:
    """A cell and its serving metrics.

    ``summary`` is replication 0 (the single-run stream); a replicated
    sweep additionally carries every replicate's summary in
    ``replicates`` and reduces them to confidence intervals with
    :meth:`estimate`.
    """

    cell: SweepCell
    summary: TrafficSummary
    #: All replicate summaries, in replication order (empty tuple means the
    #: cell ran once; :attr:`summaries` normalises that to ``(summary,)``).
    replicates: tuple[TrafficSummary, ...] = ()
    #: True when the sweep collapsed this cell's replications because the
    #: scenario is deterministic (its single value is exact, not sampled).
    collapsed: bool = False
    #: Per-replication streaming instruments, in replication order (empty
    #: when the sweep ran with telemetry off).  :meth:`pooled_stream`
    #: merges the sketches into one cell-level distribution.
    telemetries: tuple[RunTelemetry | None, ...] = ()
    #: True when replication 0 rode the vectorized fast path (always False
    #: under ``engine="exact"``).
    fast_path: bool = False
    #: Why the batched engine fell back to the exact loop for this cell
    #: (None when the fast path engaged or was never requested).
    fast_path_reason: str | None = None

    @property
    def summaries(self) -> tuple[TrafficSummary, ...]:
        """Every replication's summary (always at least ``(summary,)``)."""
        return self.replicates or (self.summary,)

    @property
    def telemetry(self) -> RunTelemetry | None:
        """Replication 0's instruments (None when telemetry was off)."""
        return self.telemetries[0] if self.telemetries else None

    def pooled_stream(self) -> TrafficTelemetry:
        """Merge every replication's streaming telemetry into one stream.

        The merged sketch summarises the cell's pooled latency
        distribution across replications in fixed memory — the sweep-side
        counterpart of
        :meth:`repro.traffic.experiments.ExperimentResult.pooled_stream`.
        """
        streams = [t.stream for t in self.telemetries if t is not None and t.stream]
        if not streams:
            raise ValueError(
                "no streaming telemetry to pool (run the sweep with "
                "keep_samples=False or an explicit TelemetrySpec)"
            )
        pooled = TrafficTelemetry(sketch_capacity=streams[0].latency.capacity)
        for stream in streams:
            pooled.merge(stream)
        return pooled

    def estimate(
        self, field: str = "p99_latency_s", confidence: float = 0.95
    ) -> MetricEstimate:
        """Replication-averaged mean / CI half-width of one summary field.

        A cell that ran once reports an exact zero-width estimate when the
        sweep collapsed it as deterministic, and an unbounded one when it
        simply was not replicated.
        """
        values = [getattr(s, field) for s in self.summaries]
        if any(v is None for v in values):
            raise ValueError(
                f"field {field!r} is unset on at least one replicate "
                "(set slo_s on the base scenario to aggregate slo_attainment)"
            )
        if len(values) == 1 and self.collapsed:
            return MetricEstimate.exact(float(values[0]), confidence=confidence)
        return mean_ci(values, confidence=confidence)


#: What an immediate-dispatch cell reports for the queue fields it never
#: reads (the scenario defaults: no queue to discipline or bound).
_IMMEDIATE_QUEUE = {"discipline": "fifo", "queue_bound": None}


def _first_equal_indices(name: str, values: tuple) -> list[int]:
    """Map each axis value to the index of the first value equal to it.

    Values compare as the scenario stores them, so ``"rc"`` and
    ``ThermalSpec(backend="rc")`` are one value.  Axes are short, so the
    pairwise scan is cheap, and it needs no hashing (a
    :class:`~repro.traffic.request.SuiteService` is unhashable).
    """
    stored = [Scenario.stored_value(name, value) for value in values]
    return [stored.index(value) for value in stored]


def expand_cells(spec: SweepSpec) -> list[SweepCell]:
    """Enumerate the grid in axis order, collapsing redundant cells.

    A cell's value on an axis its settings ignore (see the module
    docstring) is pinned to that axis's first value, except that an
    immediate-dispatch cell reports the default ``discipline="fifo"`` and
    ``queue_bound=None``; a topology cell takes its device count from the
    topology and runs ungoverned at the fleet level (its budgets live on
    the topology's nodes).  Every cell is keyed by, per axis, the index of
    the first value equal to its own (a pinned axis keys as one fixed
    value), and a cell whose key was already enumerated is dropped, so
    every cell is the first occurrence of its scenario, indices stay
    dense, and enumeration is linear in the grid size.
    """
    names = [name for name, _ in spec.axes]
    firsts = {name: values[0] for name, values in spec.axes}
    canonical = [_first_equal_indices(name, values) for name, values in spec.axes]
    defaults = {name: getattr(spec.base, name) for name in _SCENARIO_FIELDS}
    stream_axes = [i for i, name in enumerate(names) if name in _STREAM_FIELDS]
    cells: list[SweepCell] = []
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.product(*(range(len(values)) for _, values in spec.axes)):
        overrides = {name: values[i] for (name, values), i in zip(spec.axes, combo)}
        key = [canon[i] for canon, i in zip(canonical, combo)]
        settings = {**defaults, **overrides}
        pinned = {}
        if settings["mode"] == "immediate":
            pinned.update(_IMMEDIATE_QUEUE)
        else:
            pinned["policy"] = firsts.get("policy", settings["policy"])
        if not settings["sprint_enabled"]:
            pinned["governor"] = firsts.get("governor", settings["governor"])
            pinned["thermal"] = firsts.get("thermal", settings["thermal"])
        if settings["topology"] is not None:
            pinned["n_devices"] = settings["topology"].total_devices
            pinned["governor"] = GovernorSpec()
        for axis, name in enumerate(names):
            if name in pinned:
                key[axis] = 0
        key = tuple(key)
        if key in seen:
            continue
        seen.add(key)
        overrides.update(pinned)
        stream = 0
        for i in stream_axes:
            stream = stream * len(spec.axes[i][1]) + combo[i]
        cells.append(
            SweepCell(
                index=len(cells),
                stream_key=(stream,),
                scenario=spec.base.with_options(**overrides),
            )
        )
    return cells


# Domain tags keeping the sweep's replication streams disjoint from each
# other and from every other seed universe (the single-run cell streams
# use shorter keys; repro.traffic.experiments uses its own tags).
_REP_REQUEST_DOMAIN = 17
_REP_DISPATCH_DOMAIN = 19


def _cell_seeds(
    spec: SweepSpec, cell: SweepCell, replication: int
) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Request-stream and dispatch seeds of one replication of one cell.

    Under ``"crn"`` pairing, replication 0 replays the single-run streams
    — so default (``replications=1``) sweeps are bit-identical across
    engine versions — and later replications append a domain tag and the
    replication index to the stream key, keeping same-stream cells paired
    per replication.  ``"independent"`` pairing instead keys *every*
    replication (including 0) by the cell's grid index, so no two cells
    share a stream — which is the point of the mode, and why it forgoes
    the single-run replay.  The domain tags keep the request and dispatch
    universes disjoint even where ``cell.index`` happens to equal a
    stream-key word.
    """
    base_seed = spec.base_seed
    if spec.pairing == "independent":
        return (
            seed_stream(
                base_seed,
                _REP_REQUEST_DOMAIN,
                *cell.stream_key,
                replication,
                1 + cell.index,
            ),
            seed_stream(base_seed, _REP_DISPATCH_DOMAIN, cell.index, replication),
        )
    if replication == 0:
        return (
            np.random.SeedSequence([base_seed, *cell.stream_key]),
            np.random.SeedSequence([base_seed, cell.index]),
        )
    return (
        seed_stream(base_seed, _REP_REQUEST_DOMAIN, *cell.stream_key, replication),
        seed_stream(base_seed, _REP_DISPATCH_DOMAIN, cell.index, replication),
    )


def run_cell(
    spec: SweepSpec, cell: SweepCell, config: SystemConfig, replication: int = 0
) -> CellResult:
    """Simulate one replication of one grid cell end to end."""
    request_seed, run_seed = _cell_seeds(spec, cell, replication)
    result = cell.scenario.simulate(config, request_seed, run_seed)
    return CellResult(
        cell=cell,
        summary=result.summary(slo_s=cell.scenario.slo_s),
        telemetries=(result.telemetry,) if result.telemetry is not None else (),
        fast_path=result.fast_path,
        fast_path_reason=result.fast_path_reason,
    )


def _run_cell_job(job: tuple[SweepSpec, SweepCell, SystemConfig, int]) -> CellResult:
    """Module-level unpacking shim so the worker pool can pickle work items."""
    spec, cell, config, replication = job
    return run_cell(spec, cell, config, replication=replication)


def _dispatch_label(scenario: Scenario) -> str:
    """Immediate cells show their policy, central-queue cells their queue."""
    if scenario.mode == "immediate":
        label = scenario.policy
    else:
        bound = "∞" if scenario.queue_bound is None else str(scenario.queue_bound)
        label = f"{scenario.discipline}[{bound}]"
    if scenario.topology is not None:
        label = f"{label}@{scenario.topology.n_racks}r"
    return label


@dataclass(frozen=True)
class SweepResult:
    """All cell results of one sweep, in grid order."""

    spec: SweepSpec
    cells: tuple[CellResult, ...]

    def filtered(self, **fields) -> list[CellResult]:
        """Cells whose scenario has every given field value, e.g.
        ``filtered(policy="round_robin", n_devices=2)``.

        Values match as the scenario stores them, so ``thermal="rc"``
        selects the cells whose thermal spec is ``ThermalSpec("rc")``.
        """
        unknown = sorted(set(fields) - _SCENARIO_FIELDS)
        if unknown:
            raise ValueError(f"unknown scenario fields: {unknown}")
        wanted = {k: Scenario.stored_value(k, v) for k, v in fields.items()}
        return [
            result
            for result in self.cells
            if all(getattr(result.cell.scenario, k) == v for k, v in wanted.items())
        ]

    def best_cell(self, key: str = "p99_latency_s") -> CellResult:
        """The cell minimising a :class:`TrafficSummary` attribute."""
        return min(self.cells, key=lambda r: getattr(r.summary, key))

    def format_table(self) -> str:
        """Human-readable grid summary (one row per cell).

        Immediate cells show their policy; central-queue cells show the
        queue discipline and bound (the policy is not consulted there).
        The thermal column is the cell's pacing-fidelity backend and the
        rate column its arrival process's mean rate.  The lifecycle columns
        count rejected and abandoned requests; the governance columns show
        the cell's power budget and its denied-sprint and breaker-trip
        counts.  The ``path`` column shows how each cell executed:
        ``vector`` (the batched fast path engaged) or ``exact`` (the event
        loop — see :attr:`CellResult.fast_path_reason` for why).  A
        replicated sweep (``spec.replications > 1``) reports the
        replication-mean p99 with its CI half-width in place of the
        single-run p99.
        """
        replicated = self.spec.replications > 1
        p99_head = f"{'p99':>8} {'±95%':>7}" if replicated else f"{'p99':>8}"
        header = (
            f"{'dispatch':>16} {'governor':>16} {'thermal':>10} {'rate':>8} "
            f"{'fleet':>6} {'p50':>8} {p99_head} "
            f"{'sprint%':>8} {'full%':>6} {'rps':>8} {'rej':>5} {'abn':>5} "
            f"{'den':>5} {'trip':>4} {'path':>6}"
        )
        rows = [header]
        for result in self.cells:
            scenario, s = result.cell.scenario, result.summary
            if replicated:
                p99 = result.estimate("p99_latency_s")
                p99_text = f"{p99.mean:7.2f}s {p99.half_width:6.2f}s"
            else:
                p99_text = f"{s.p99_latency_s:7.2f}s"
            path = "vector" if result.fast_path else "exact"
            rows.append(
                f"{_dispatch_label(scenario):>16} {scenario.governor.label:>16} "
                f"{scenario.thermal.label:>10} "
                f"{scenario.arrivals.mean_rate_hz():7.3f}/s {scenario.n_devices:6d} "
                f"{s.p50_latency_s:7.2f}s {p99_text} "
                f"{s.sprint_fraction * 100:7.0f}% {s.mean_sprint_fullness * 100:5.0f}% "
                f"{s.throughput_rps:8.3f} {s.rejected_count:5d} {s.abandoned_count:5d} "
                f"{s.sprints_denied:5d} {s.breaker_trips:4d} {path:>6}"
            )
        return "\n".join(rows)


def run_sweep(
    spec: SweepSpec,
    config: SystemConfig | None = None,
    workers: int = 1,
) -> SweepResult:
    """Run every cell of the grid, optionally fanned across processes.

    ``workers=1`` runs serially in-process; ``workers>1`` fans the cell ×
    replication jobs through :func:`pool_map`.  Results are returned in
    grid order and are bit-identical for any worker count because every
    job's randomness is derived deterministically from the spec alone: the
    request stream from ``(base_seed, stream_key[, replication])`` — only
    the request-stream axes (plus the replication index), so every other
    comparison is paired — and the dispatch RNG from ``(base_seed, cell
    index[, replication])``.  Deterministic cells collapse to a single
    replication (see :attr:`Scenario.is_deterministic`).
    """
    config = config or SystemConfig.paper_default()
    cells = expand_cells(spec)
    reps = [
        1 if cell.scenario.is_deterministic else spec.replications for cell in cells
    ]
    jobs = [
        (spec, cell, config, replication)
        for cell, n in zip(cells, reps)
        for replication in range(n)
    ]
    results = pool_map(_run_cell_job, jobs, workers)
    grouped: list[CellResult] = []
    offset = 0
    for cell, n in zip(cells, reps):
        group = results[offset : offset + n]
        offset += n
        replicates = tuple(r.summary for r in group)
        telemetries = tuple(r.telemetry for r in group)
        grouped.append(
            CellResult(
                cell=cell,
                summary=replicates[0],
                replicates=replicates if len(replicates) > 1 else (),
                collapsed=n == 1 and spec.replications > 1,
                telemetries=(
                    telemetries if any(t is not None for t in telemetries) else ()
                ),
                fast_path=group[0].fast_path,
                fast_path_reason=group[0].fast_path_reason,
            )
        )
    return SweepResult(spec=spec, cells=tuple(grouped))
