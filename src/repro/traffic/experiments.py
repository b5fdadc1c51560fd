"""Replicated experiments: error bars and paired comparisons for fleet runs.

One stochastic replication of a fleet scenario produces a point estimate
with no notion of its own error; every headline number of the traffic
stack (p99 latency, SLO attainment, breaker trips) is a random variable
of the arrival and service draws.  This module is the measurement
discipline on top of the simulator:

* :class:`Scenario` — a frozen, picklable description of one fleet
  experiment (arrival process × service model × fleet configuration),
  the unit everything below replicates,
* :class:`ReplicationPlan` — scenario × replication count × pairing
  mode × base seed, with deterministic per-replication seed streams
  derived through :func:`repro.traffic.arrivals.seed_stream`,
* :func:`run_replications` — N independent replications (fanned across
  worker processes via :func:`pool_map`) reduced to per-metric
  mean / Student-t confidence intervals (:class:`ExperimentResult`),
* :func:`run_until` — sequential stopping: add replications until the
  target metric's CI half-width falls under a threshold,
* :func:`compare` — a paired baseline-vs-treatment experiment.  Under
  ``pairing="crn"`` (common random numbers) both arms of replication
  ``r`` consume *identical* arrival and service draws, so per-replication
  deltas cancel the shared traffic noise and the paired-difference CI is
  much tighter than independent seeding at the same replication budget —
  the standard variance-reduction technique for simulation comparisons.

Seed discipline
---------------
Replication ``r`` of an experiment draws its request stream from
``seed_stream(base_seed, REQUEST_DOMAIN, r, ...)`` and its dispatch RNG
from ``seed_stream(base_seed, DISPATCH_DOMAIN, r, ...)``.  Under CRN the
arm index is *excluded* from both keys, so every arm replays the same
draws; under independent pairing it is appended, so arms are decoupled.
The streams depend only on ``(base_seed, r)`` — never on worker count,
chunking, or how many replications were ultimately run — so sequential
stopping and multiprocessing are bit-identical to a serial run.

Quick start::

    from repro import SystemConfig
    from repro.traffic import (
        GammaService, PoissonArrivals, Scenario, compare, run_replications,
        ReplicationPlan,
    )

    scenario = Scenario(
        arrivals=PoissonArrivals(0.3), service=GammaService(5.0, cv=1.0),
        n_requests=200, n_devices=4, slo_s=2.0,
    )
    result = run_replications(ReplicationPlan(scenario, n_replications=16))
    print(result.estimate("p99_latency_s"))          # mean ± half-width

    duel = compare(
        scenario.with_options(sprint_enabled=False), scenario,
        n_replications=16,
    )
    print(duel.delta("p99_latency_s"))               # paired Δ with sign test

A fully deterministic scenario has no randomness to average over, so its
plan collapses to a single replication:

>>> from repro.traffic.arrivals import DeterministicArrivals
>>> from repro.traffic.experiments import ReplicationPlan, Scenario
>>> from repro.traffic.request import FixedService
>>> scenario = Scenario(
...     arrivals=DeterministicArrivals(30.0),
...     service=FixedService(5.0),
...     n_requests=4,
... )
>>> ReplicationPlan(scenario=scenario, n_replications=8).effective_replications
1
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import SystemConfig
from repro.core.thermal_backend import ThermalSpec
from repro.traffic.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    TraceArrivals,
    seed_stream,
)
from repro.traffic.engine import (
    DISPATCH_MODES,
    DISPATCH_POLICIES,
    EXECUTION_MODES,
    QUEUE_DISCIPLINES,
)
from repro.traffic.fleet import FleetResult, FleetSimulator, resolve_telemetry
from repro.traffic.governor import GovernorSpec
from repro.traffic.metrics import (
    MetricEstimate,
    PairedDelta,
    TrafficSummary,
    aggregate_summaries,
    mean_ci,
    paired_delta,
)
from repro.traffic.request import FixedService, Request, ServiceModel, generate_requests
from repro.traffic.telemetry import (
    FleetTimeline,
    RunTelemetry,
    TelemetrySpec,
    TrafficTelemetry,
)
from repro.traffic.topology import TopologySpec

__all__ = [
    "ComparisonResult",
    "ExperimentResult",
    "ReplicationPlan",
    "Scenario",
    "compare",
    "run_replications",
    "run_until",
]

#: Replication seeding modes: ``"crn"`` (common random numbers — arms and
#: cells that share a request stream replay the same draws per
#: replication, so comparisons stay paired) or ``"independent"`` (each arm
#: or cell draws its own streams — the noisy classical design, kept so the
#: variance reduction can be measured).
PAIRING_MODES = ("crn", "independent")


def pool_map(fn, jobs, workers: int) -> list:
    """Map ``fn`` over ``jobs``, optionally fanned across worker processes.

    The shared fan-out primitive of the traffic stack: replication jobs
    (:func:`run_replications`), sweep cells
    (:func:`repro.traffic.sweep.run_sweep`) and topology shards
    (:func:`repro.traffic.shard.run_sharded`) all spread through it.
    ``workers=1`` (or a single job) runs serially in-process; results
    always come back in job order, so callers are bit-identical for any
    worker count provided ``fn`` is deterministic per job.
    """
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    jobs = list(jobs)
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with multiprocessing.Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(fn, jobs)


# Domain tags separating the seed universes of an experiment's streams.
# Appending a tag word keeps replication streams disjoint from the legacy
# single-run and sweep streams, which use shorter keys.
_REQUEST_DOMAIN = 11
_DISPATCH_DOMAIN = 13


@dataclass(frozen=True)
class Scenario:
    """A frozen fleet experiment: what is simulated, minus the seeds.

    The scenario pins everything except randomness — the arrival process,
    the service-demand model, the fleet and its dispatch/governance/thermal
    configuration — so a :class:`ReplicationPlan` can replay it under
    controlled seed streams.  It is hashable and picklable (worker-pool
    safe), and :meth:`with_options` derives treatment variants for paired
    comparisons without retyping the scenario.
    """

    arrivals: ArrivalProcess
    service: ServiceModel
    n_requests: int
    n_devices: int = 1
    policy: str = "least_loaded"
    mode: str = "immediate"
    discipline: str = "fifo"
    queue_bound: int | None = None
    governor: GovernorSpec | str = GovernorSpec()
    thermal: ThermalSpec | str = ThermalSpec()
    sprint_speedup: float = 10.0
    sprint_enabled: bool = True
    refuse_partial_sprints: bool = False
    deadline_s: float | None = None
    slo_s: float | None = None
    #: When False replications keep no per-request sample lists — memory
    #: stays flat over any horizon and summaries come from the streaming
    #: quantile sketch (within its documented rank-error bound).
    keep_samples: bool = True
    #: Streaming instruments each replication runs (see
    #: :func:`repro.traffic.fleet.resolve_telemetry` for the knob's
    #: semantics).  Replication telemetry lands in
    #: :attr:`ExperimentResult.telemetries` and merges across workers.
    telemetry: TelemetrySpec | bool | None = None
    #: Engine execution strategy for the discrete-event modes:
    #: ``"batched"`` (default — vectorized fast path where eligible,
    #: bit-identical to the event loop) or ``"exact"`` (always the scalar
    #: event loop).
    engine: str = "batched"
    #: Hierarchical fleet shape (:class:`~repro.traffic.topology.TopologySpec`).
    #: When set, ``n_devices`` is taken from the topology (leave it at the
    #: default or set it to the matching total) and per-level budgets come
    #: from the spec's nodes, so ``governor`` must stay unlimited.
    topology: TopologySpec | None = None
    #: Worker processes a sharded (non-flat topology) replication fans its
    #: racks across.  Results are bit-identical for any value, so this is
    #: a speed knob, never a treatment variable.
    shard_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("a scenario needs at least one request")
        if self.topology is not None:
            if self.n_devices not in (1, self.topology.total_devices):
                raise ValueError(
                    f"n_devices={self.n_devices} conflicts with the "
                    f"topology's {self.topology.total_devices} devices; "
                    "leave n_devices unset"
                )
            object.__setattr__(self, "n_devices", self.topology.total_devices)
            governor = self.governor
            if isinstance(governor, str):
                governor = GovernorSpec(policy=governor)
            if governor.policy != "unlimited":
                raise ValueError(
                    "a topology scenario takes its budgets from the "
                    "topology spec; leave governor at 'unlimited'"
                )
        if self.shard_workers < 1:
            raise ValueError("shard worker count must be at least 1")
        if self.n_devices < 1:
            raise ValueError("a scenario needs at least one device")
        if self.policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {self.policy!r}; "
                f"available: {sorted(DISPATCH_POLICIES)}"
            )
        if self.mode not in DISPATCH_MODES:
            raise ValueError(
                f"unknown fleet mode {self.mode!r}; available: {DISPATCH_MODES}"
            )
        if self.engine not in EXECUTION_MODES:
            raise ValueError(
                f"unknown engine execution {self.engine!r}; "
                f"available: {EXECUTION_MODES}"
            )
        if self.discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline {self.discipline!r}; "
                f"available: {QUEUE_DISCIPLINES}"
            )
        if self.queue_bound is not None and not self.queue_bound >= 0:
            raise ValueError("queue bound must be non-negative (or None)")
        if not 1.0 <= self.sprint_speedup < math.inf:
            raise ValueError("sprint speedup must be a finite factor of at least 1x")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline must be positive (or None)")
        if self.slo_s is not None and not self.slo_s > 0:
            raise ValueError("SLO must be positive (or None)")
        # Normalise names to frozen specs so scenarios stay hashable and
        # equal whenever they mean the same experiment.
        for name in ("governor", "thermal"):
            object.__setattr__(self, name, self.stored_value(name, getattr(self, name)))
        resolve_telemetry(self.telemetry, self.keep_samples)  # fail fast

    @staticmethod
    def stored_value(field: str, value):
        """The value a scenario stores when ``field`` is set to ``value``.

        Governor and thermal names become their frozen specs; every other
        value is stored as given.
        """
        if isinstance(value, str):
            if field == "governor":
                return GovernorSpec(policy=value)
            if field == "thermal":
                return ThermalSpec(backend=value)
        return value

    def with_options(self, **changes) -> "Scenario":
        """A treatment variant of this scenario (``dataclasses.replace``)."""
        return replace(self, **changes)

    @property
    def is_deterministic(self) -> bool:
        """True when replications cannot differ (no stochastic draw left).

        Deterministic arrivals (periodic or trace replay) with fixed
        service demands leave only the dispatch RNG, which is consumed
        solely by the ``random`` immediate-mode policy.  Replicating such
        a scenario is redundant; plans collapse it to one replication.
        """
        if not isinstance(self.arrivals, (DeterministicArrivals, TraceArrivals)):
            return False
        if not isinstance(self.service, FixedService):
            return False
        return not (self.mode == "immediate" and self.policy == "random")

    def requests(self, seed: int | np.random.SeedSequence) -> list[Request]:
        """Materialise the scenario's request stream under one seed."""
        return generate_requests(
            self.arrivals,
            self.service,
            self.n_requests,
            seed=seed,
            deadline_s=self.deadline_s,
        )

    def build_fleet(self, config: SystemConfig) -> FleetSimulator:
        """A fresh fleet simulator for this scenario on a platform."""
        return FleetSimulator(
            config,
            n_devices=self.n_devices,
            policy=self.policy,
            sprint_speedup=self.sprint_speedup,
            sprint_enabled=self.sprint_enabled,
            refuse_partial_sprints=self.refuse_partial_sprints,
            mode=self.mode,
            discipline=self.discipline,
            queue_bound=self.queue_bound,
            governor=self.governor,
            thermal=self.thermal,
            keep_samples=self.keep_samples,
            telemetry=self.telemetry,
            engine=self.engine,
            topology=self.topology,
            shard_workers=self.shard_workers,
        )

    def simulate(
        self,
        config: SystemConfig,
        request_seed: int | np.random.SeedSequence,
        run_seed: int | np.random.SeedSequence,
    ) -> FleetResult:
        """One full replication: generate the request columns, run the fleet.

        The stream goes from :func:`~repro.traffic.request.generate_request_blocks`
        straight into the fleet (:meth:`FleetSimulator.run_stream`), the
        same draws :meth:`requests` materialises.
        """
        return self.build_fleet(config).run_stream(
            self.arrivals,
            self.service,
            self.n_requests,
            request_seed=request_seed,
            run_seed=run_seed,
            deadline_s=self.deadline_s,
        )


@dataclass(frozen=True)
class ReplicationPlan:
    """Scenario × replication count × pairing mode × seed universe.

    The plan owns the seed discipline: :meth:`request_seed` and
    :meth:`run_seed` derive replication ``r``'s streams deterministically
    from ``(base_seed, domain, r)`` alone, so results never depend on
    worker count or on how many replications end up being run.  ``arm``
    distinguishes the sides of a paired comparison: under ``"crn"``
    pairing it is ignored (both arms replay identical draws — common
    random numbers), under ``"independent"`` it decouples them.
    """

    scenario: Scenario
    n_replications: int = 8
    pairing: str = "crn"
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_replications < 1:
            raise ValueError("a plan needs at least one replication")
        if self.pairing not in PAIRING_MODES:
            raise ValueError(
                f"unknown pairing mode {self.pairing!r}; available: {PAIRING_MODES}"
            )

    @property
    def effective_replications(self) -> int:
        """Replications actually worth running (1 for a deterministic scenario)."""
        return 1 if self.scenario.is_deterministic else self.n_replications

    def _stream(self, domain: int, replication: int, arm: int) -> np.random.SeedSequence:
        if replication < 0:
            raise ValueError("replication index must be non-negative")
        if arm < 0:
            raise ValueError("arm index must be non-negative")
        if self.pairing == "crn":
            return seed_stream(self.base_seed, domain, replication)
        return seed_stream(self.base_seed, domain, replication, 1 + arm)

    def request_seed(self, replication: int, arm: int = 0) -> np.random.SeedSequence:
        """Arrival/service stream of one replication (shared across CRN arms)."""
        return self._stream(_REQUEST_DOMAIN, replication, arm)

    def run_seed(self, replication: int, arm: int = 0) -> np.random.SeedSequence:
        """Dispatch-RNG stream of one replication (shared across CRN arms)."""
        return self._stream(_DISPATCH_DOMAIN, replication, arm)

    def with_replications(self, n: int) -> "ReplicationPlan":
        """The same plan at a different replication budget (seeds unchanged)."""
        return replace(self, n_replications=n)


def _replication_job(
    job: tuple[Scenario, SystemConfig, np.random.SeedSequence, np.random.SeedSequence],
) -> tuple[TrafficSummary, RunTelemetry | None]:
    """Module-level shim so the worker pool can pickle replication work.

    Returns the replication's summary *and* its telemetry bundle, so
    sketches and timelines stream back from worker processes and merge —
    fleet-wide tail quantiles never require shipping sample lists.
    """
    scenario, config, request_seed, run_seed = job
    result = scenario.simulate(config, request_seed, run_seed)
    return result.summary(slo_s=scenario.slo_s), result.telemetry


@dataclass(frozen=True)
class ExperimentResult:
    """All replications of one scenario, with CI-bearing aggregation."""

    plan: ReplicationPlan
    summaries: tuple[TrafficSummary, ...]
    #: Per-replication telemetry bundles, aligned with ``summaries``
    #: (``None`` entries for replications that ran without instruments).
    telemetries: tuple[RunTelemetry | None, ...] = ()

    @property
    def n_replications(self) -> int:
        """Replications actually run (1 for a collapsed deterministic plan)."""
        return len(self.summaries)

    def pooled_stream(self) -> TrafficTelemetry:
        """All replications' telemetry streams merged into one.

        The pooled latency sketch answers *aggregate* tail-quantile
        queries — "p99 over every request of every replication" — which
        per-replication summaries cannot express, in O(capacity) memory.
        """
        streams = [
            t.stream
            for t in self.telemetries
            if t is not None and t.stream is not None
        ]
        if not streams:
            raise ValueError(
                "no replication carried a telemetry stream; run the scenario "
                "with keep_samples=False or telemetry=TelemetrySpec()"
            )
        merged = TrafficTelemetry(sketch_capacity=streams[0].latency.capacity)
        for stream in streams:
            merged.merge(stream)
        return merged

    def pooled_quantile(self, q: float) -> float:
        """Aggregate latency quantile across every replication's requests."""
        return self.pooled_stream().latency.quantile(q)

    def merged_timeline(self) -> FleetTimeline:
        """All replications' fleet timelines merged window-by-window."""
        timelines = [
            t.timeline
            for t in self.telemetries
            if t is not None and t.timeline is not None
        ]
        if not timelines:
            raise ValueError(
                "no replication carried a timeline; set a timeline cadence "
                "on the scenario's TelemetrySpec"
            )
        merged = timelines[0]
        for timeline in timelines[1:]:
            merged = merged.merge(timeline)
        return merged

    def values(self, field: str) -> np.ndarray:
        """Per-replication values of one :class:`TrafficSummary` field."""
        values = [getattr(s, field) for s in self.summaries]
        if any(v is None for v in values):
            raise ValueError(
                f"field {field!r} is unset on at least one replication "
                "(set an SLO on the scenario to aggregate slo_attainment)"
            )
        return np.asarray(values, dtype=float)

    def estimate(
        self, field: str = "p99_latency_s", confidence: float = 0.95
    ) -> MetricEstimate:
        """Mean / CI half-width of one metric across replications.

        A collapsed deterministic scenario reports a zero-width interval
        (the value is exact by construction); a genuinely stochastic
        single-replication result reports an infinite half-width.
        """
        if self.n_replications == 1 and self.plan.scenario.is_deterministic:
            return MetricEstimate.exact(
                float(self.values(field)[0]), confidence=confidence
            )
        return mean_ci(self.values(field), confidence=confidence)

    def estimates(self, confidence: float = 0.95) -> dict[str, MetricEstimate]:
        """Mean / CI per aggregatable :class:`TrafficSummary` field."""
        if self.n_replications == 1 and self.plan.scenario.is_deterministic:
            return {
                field: MetricEstimate.exact(est.mean, confidence=confidence)
                for field, est in aggregate_summaries(
                    self.summaries, confidence=confidence
                ).items()
            }
        return aggregate_summaries(self.summaries, confidence=confidence)

    def format_report(
        self,
        fields: tuple[str, ...] = (
            "p50_latency_s",
            "p99_latency_s",
            "mean_latency_s",
            "throughput_rps",
            "sprint_fraction",
        ),
        confidence: float = 0.95,
    ) -> str:
        """One line per metric: ``name  mean ± half-width (CI, n)``."""
        width = max(len(f) for f in fields)
        return "\n".join(
            f"{field:>{width}}  {self.estimate(field, confidence)}" for field in fields
        )


def run_replications(
    plan: ReplicationPlan,
    config: SystemConfig | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Run a plan's replications, optionally fanned across processes.

    Fans out through :func:`pool_map`, and is bit-identical for any
    worker count because every replication's seed streams derive from the
    plan alone.  A deterministic scenario
    collapses to a single replication (see
    :attr:`ReplicationPlan.effective_replications`).
    """
    config = config or SystemConfig.paper_default()
    jobs = [
        (plan.scenario, config, plan.request_seed(r), plan.run_seed(r))
        for r in range(plan.effective_replications)
    ]
    outcomes = pool_map(_replication_job, jobs, workers)
    return ExperimentResult(
        plan=plan,
        summaries=tuple(summary for summary, _ in outcomes),
        telemetries=tuple(telemetry for _, telemetry in outcomes),
    )


def run_until(
    plan: ReplicationPlan,
    target_half_width: float,
    metric: str = "p99_latency_s",
    config: SystemConfig | None = None,
    workers: int = 1,
    batch: int | None = None,
    max_replications: int = 64,
    confidence: float = 0.95,
) -> ExperimentResult:
    """Sequential stopping: replicate until the CI is tight enough.

    Starts from the plan's replication count (at least two — one
    replication has no measurable width), then adds ``batch`` replications
    at a time until the ``metric`` CI half-width falls to
    ``target_half_width`` or ``max_replications`` is reached.  Replication
    ``r``'s streams depend only on ``(base_seed, r)``, so the result is
    bit-identical to a fixed-count run of the same final size — stopping
    early never changes what was measured, only how much.
    """
    if target_half_width <= 0:
        raise ValueError("target half-width must be positive")
    if max_replications < 2:
        raise ValueError("sequential stopping needs max_replications >= 2")
    config = config or SystemConfig.paper_default()
    if plan.scenario.is_deterministic:
        return run_replications(plan, config=config, workers=workers)
    batch = max(1, workers if batch is None else batch)
    n = min(max(2, plan.n_replications), max_replications)
    summaries: list[TrafficSummary] = []
    telemetries: list[RunTelemetry | None] = []
    while True:
        jobs = [
            (plan.scenario, config, plan.request_seed(r), plan.run_seed(r))
            for r in range(len(summaries), n)
        ]
        for summary, telemetry in pool_map(_replication_job, jobs, workers):
            summaries.append(summary)
            telemetries.append(telemetry)
        result = ExperimentResult(
            plan=plan.with_replications(len(summaries)),
            summaries=tuple(summaries),
            telemetries=tuple(telemetries),
        )
        if result.estimate(metric, confidence).half_width <= target_half_width:
            return result
        if n >= max_replications:
            return result
        n = min(n + batch, max_replications)


@dataclass(frozen=True)
class ComparisonResult:
    """Baseline and treatment experiments, paired replication by replication."""

    baseline: ExperimentResult
    treatment: ExperimentResult

    @property
    def pairing(self) -> str:
        """Seeding mode the two arms ran under (``"crn"`` or ``"independent"``)."""
        return self.baseline.plan.pairing

    @property
    def n_replications(self) -> int:
        """Replications per arm."""
        return self.baseline.n_replications

    def delta(
        self, field: str = "p99_latency_s", confidence: float = 0.95
    ) -> PairedDelta:
        """Treatment-minus-baseline CI and sign test for one metric."""
        return paired_delta(
            self.baseline.values(field), self.treatment.values(field), confidence
        )

    def format_report(
        self,
        fields: tuple[str, ...] = ("p50_latency_s", "p99_latency_s", "mean_latency_s"),
        confidence: float = 0.95,
    ) -> str:
        """One line per metric: the paired delta with its CI and sign test."""
        width = max(len(f) for f in fields)
        return "\n".join(
            f"{field:>{width}}  {self.delta(field, confidence)}" for field in fields
        )


def compare(
    baseline: Scenario,
    treatment: Scenario,
    n_replications: int = 8,
    pairing: str = "crn",
    base_seed: int = 0,
    config: SystemConfig | None = None,
    workers: int = 1,
) -> ComparisonResult:
    """Run a paired baseline-vs-treatment experiment.

    Under ``pairing="crn"`` both arms of replication ``r`` replay identical
    arrival and service draws, so the paired deltas measure only the
    configuration difference — the common-random-numbers variance
    reduction.  ``pairing="independent"`` seeds the arms separately (the
    noisy classical design, kept for measuring how much CRN buys).  The
    deterministic-scenario collapse applies only when *both* arms are
    deterministic, since pairing needs arms of equal length.
    """
    config = config or SystemConfig.paper_default()
    base_plan = ReplicationPlan(
        scenario=baseline,
        n_replications=n_replications,
        pairing=pairing,
        base_seed=base_seed,
    )
    treat_plan = replace(base_plan, scenario=treatment)
    if baseline.is_deterministic and treatment.is_deterministic:
        n = 1
    else:
        n = n_replications
    jobs = [
        (plan.scenario, config, plan.request_seed(r, arm), plan.run_seed(r, arm))
        for arm, plan in enumerate((base_plan, treat_plan))
        for r in range(n)
    ]
    outcomes = pool_map(_replication_job, jobs, workers)
    summaries = [summary for summary, _ in outcomes]
    telemetries = [telemetry for _, telemetry in outcomes]
    return ComparisonResult(
        baseline=ExperimentResult(
            plan=base_plan,
            summaries=tuple(summaries[:n]),
            telemetries=tuple(telemetries[:n]),
        ),
        treatment=ExperimentResult(
            plan=treat_plan,
            summaries=tuple(summaries[n:]),
            telemetries=tuple(telemetries[n:]),
        ),
    )
