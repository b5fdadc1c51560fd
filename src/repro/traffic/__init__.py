"""Sprint-aware fleet serving under stochastic request load.

The paper evaluates one device running one task; this package asks the
question the paper's motivation implies: what happens when a *fleet* of
sprint-capable devices serves a *stream* of requests whose arrivals are
bursty, diurnal, or measured from a trace?  It is organised as a pipeline:

* :mod:`repro.traffic.arrivals` — seeded stochastic arrival processes
  (deterministic, Poisson, bursty on-off MMPP, diurnal, trace-driven),
* :mod:`repro.traffic.request` — the request model and service-demand
  samplers, including draws from the Table 1 kernel suite,
* :mod:`repro.traffic.device` — a serving wrapper around the sprint
  pacing model, so consecutive requests share one thermal budget whose
  physics is a pluggable backend
  (:class:`~repro.core.thermal_backend.ThermalSpec`: linear
  rule-of-thumb, RC cooling, or PCM enthalpy with melt telemetry),
* :mod:`repro.traffic.engine` — the heap-based discrete-event core:
  arrival/device-free/deadline plus grant-release/breaker-reset events,
  immediate and central-queue dispatch modes, bounded queues with
  rejection, deadline abandonment, and an O(log n) least-loaded device
  index,
* :mod:`repro.traffic.governor` — the fleet power-budget governor:
  sprints acquire grants from a shared budget (unlimited, greedy,
  token-bucket, or cooperative-threshold policies) with breaker-trip
  modelling, so racks cannot sprint past their provisioned supply,
* :mod:`repro.traffic.fleet` — the fleet simulator built on the engine,
  with round-robin, least-loaded, thermal-aware and random dispatch,
* :mod:`repro.traffic.metrics` — p50/p95/p99 latency, SLO attainment,
  sprint fraction, throughput, lifecycle (rejected/abandoned/
  deadline-miss) and sprint-governance (granted/denied/trips/time-at-cap)
  summaries,
* :mod:`repro.traffic.telemetry` — streaming observability: fixed-memory
  mergeable quantile sketches (deterministic KLL-style compaction),
  windowed fleet timelines (queue depth, in-flight sprints, granted
  power, thermal peaks), and ring-buffered structured event traces,
* :mod:`repro.traffic.topology` — hierarchical rack/row/datacenter
  power topologies: each level carries its own budget and breaker, and
  a sprint grant must clear *every* ancestor budget (the grant cascade),
* :mod:`repro.traffic.shard` — sharded parallel execution of a
  topology: each rack becomes an independent engine job fanned over a
  process pool, with pre-planned arrivals and per-window budget slices
  so results are bit-identical for any worker count,
* :mod:`repro.traffic.experiments` — the replicated-experiment layer:
  frozen scenarios replayed N times under controlled seed streams, with
  per-metric confidence intervals, common-random-numbers paired
  comparisons (variance reduction), and CI-driven sequential stopping,
* :mod:`repro.traffic.sweep` — a multiprocessing sweep of a base scenario
  over named axes of scenario fields, with deterministic seeding and a
  replication axis.

The package namespace exports the types a user constructs and the entry
points a user calls; result types and internals (engine, fast path,
telemetry instruments, statistics helpers) are imported from their own
modules.

Quick start:

>>> from repro import SystemConfig
>>> from repro.traffic import FleetSimulator, PoissonArrivals, FixedService
>>> from repro.traffic import generate_requests
>>> requests = generate_requests(
...     PoissonArrivals(rate_hz=0.2), FixedService(5.0), n=50, seed=42
... )
>>> fleet = FleetSimulator(SystemConfig.paper_default(), n_devices=4)
>>> result = fleet.run(requests)
>>> result.summary(slo_s=2.0).request_count
50
"""

from repro.core.thermal_backend import ThermalSpec
from repro.traffic.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.traffic.device import SprintDevice
from repro.traffic.experiments import (
    ReplicationPlan,
    Scenario,
    compare,
    run_replications,
    run_until,
)
from repro.traffic.fleet import FleetResult, FleetSimulator
from repro.traffic.governor import GovernorSpec
from repro.traffic.metrics import TrafficSummary
from repro.traffic.request import (
    FixedService,
    GammaService,
    LognormalService,
    Request,
    ServiceModel,
    SuiteService,
    generate_requests,
)
from repro.traffic.sweep import SweepSpec, run_sweep
from repro.traffic.telemetry import TelemetrySpec
from repro.traffic.topology import RackSpec, RowSpec, TopologySpec

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "DiurnalArrivals",
    "FixedService",
    "FleetResult",
    "FleetSimulator",
    "GammaService",
    "GovernorSpec",
    "LognormalService",
    "MMPPArrivals",
    "PoissonArrivals",
    "RackSpec",
    "ReplicationPlan",
    "Request",
    "RowSpec",
    "Scenario",
    "ServiceModel",
    "SprintDevice",
    "SuiteService",
    "SweepSpec",
    "TelemetrySpec",
    "ThermalSpec",
    "TopologySpec",
    "TraceArrivals",
    "TrafficSummary",
    "compare",
    "generate_requests",
    "run_replications",
    "run_sweep",
    "run_until",
]
