"""The benchmark's four workloads, built only from public ``repro`` entry points.

Each workload class does its set-up in ``__init__`` (what ``setup_s``
times), runs one fixed unit of work in :meth:`run_unit` (what ``wall_s``
times), turns a unit's result into an :class:`Observation` outside the
timed region, and checks that result in :meth:`check`.

The benchmark never chooses an engine, never calls ``run_stream``,
``run_blocks``, fluid mode or ``SweepSpec``: it describes experiments
with ``SprintSimulation``, ``Scenario``/``ReplicationPlan``/
``run_replications`` and ``TopologySpec``/``GovernorSpec`` and lets the
package pick its own execution path.  That keeps the benchmark valid
across refactors that reshape those internals.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

#: Seed whose traffic outputs are stored bit-for-bit in ``expected.json``.
DEFAULT_SEED = 1
#: Seed kept out of every tuning run; a later speed claim must also hold on it.
HELD_OUT_SEED = 7919

SIZES = ("full", "tiny")

#: Figure 7 kernels, in the paper's order.
PAPER_KERNELS = ("sobel", "feature", "kmeans", "disparity", "texture", "segment")
#: Paper-reported mean 16-core speedup with the 150 mg PCM package.
PAPER_SPEEDUP = 10.2


@dataclass(frozen=True)
class Failure:
    """A failed output check: the work items it implicates (None = all)."""

    message: str
    items: tuple[int, ...] | None = None


@dataclass
class Observation:
    """What one unit produced, reduced to the numbers the benchmark reports."""

    #: Work items in the unit (runs, replications or streams).
    items: int
    #: Simulated requests resolved (served + rejected + abandoned).
    resolved: int
    #: Simulated execution quanta.
    quanta: int
    #: Canonical simulated outputs: identical across runs of one seed.
    doc: dict
    #: Per engine run, whether it took the vector core (None: not exposed).
    vector_core: list = field(default_factory=list)
    #: Sprint grants issued and attempted by every governor in the unit.
    granted: int = 0
    grant_attempts: int = 0
    #: Workload-specific figures printed in the report (not metrics).
    extra: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest(self.doc)


def canonical(doc) -> dict:
    """A JSON round trip: tuples become lists, floats keep every bit."""
    return json.loads(json.dumps(doc, sort_keys=True))


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _seq(seed: int, stream: int) -> np.random.SeedSequence:
    # SeedSequence.spawn mutates its parent, so every unit gets fresh ones.
    return np.random.SeedSequence([seed, stream])


#: Engine-path record of a run whose result type does not say which core ran.
NOT_EXPOSED = {"vector_core": None, "reason": "not exposed by the result type"}


def engine_path(result) -> dict:
    """Which core an engine run took, from the public result fields.

    ``getattr`` keeps this working after those fields are removed.
    """
    if not hasattr(result, "fast_path"):
        return {"vector_core": None, "reason": "result has no fast_path field"}
    return {
        "vector_core": result.fast_path,
        "reason": getattr(result, "fast_path_reason", None),
    }


def _finite(value) -> bool:
    return value is None or isinstance(value, str) or math.isfinite(value)


# -- shared traffic checks ---------------------------------------------------------------


def summary_failures(summary, offered: int, where: str) -> list[str]:
    """Conservation and ordering laws every summary obeys, for any seed."""
    out = []
    if summary.offered_count != offered:
        out.append(
            f"{where}: served+rejected+abandoned = {summary.offered_count}, "
            f"offered {offered}"
        )
    bad = [k for k, v in summary.to_dict().items() if not _finite(v)]
    if bad:
        out.append(f"{where}: non-finite summary fields {bad}")
    if summary.request_count:
        ordered = (
            summary.p50_latency_s
            <= summary.p95_latency_s
            <= summary.p99_latency_s
            <= summary.max_latency_s
        )
        if not ordered:
            out.append(f"{where}: latency percentiles out of order")
    if not 0.0 <= summary.sprint_fraction <= 1.0:
        out.append(f"{where}: sprint_fraction {summary.sprint_fraction} outside [0, 1]")
    return out


def ledger_failures(stats, where: str, cap: int | None = None) -> list[str]:
    """Internal consistency of one governor's grant ledger."""
    if stats is None:
        return []
    out = []
    if stats.sprints_granted < 0 or stats.sprints_denied < 0:
        out.append(f"{where}: negative grant counts")
    if stats.grants_released_unused > stats.sprints_granted:
        out.append(f"{where}: more unused releases than grants")
    if stats.breaker_trips != len(stats.trip_times_s):
        out.append(f"{where}: trip count does not match trip times")
    if list(stats.trip_times_s) != sorted(stats.trip_times_s):
        out.append(f"{where}: trip times out of order")
    if not 0 <= stats.peak_concurrent_sprints <= stats.sprints_granted:
        out.append(f"{where}: peak concurrency outside [0, granted]")
    if cap is not None and stats.peak_concurrent_sprints > cap:
        out.append(f"{where}: peak concurrency {stats.peak_concurrent_sprints} > cap {cap}")
    if stats.time_at_cap_s < 0:
        out.append(f"{where}: negative time at cap")
    return out


def expected_failures(doc: dict, expected: dict | None, item_of) -> list[Failure]:
    """Bit-for-bit comparison against the stored outputs of the default seed."""
    if expected is None:
        return [Failure("no stored expected outputs for this workload and size")]
    failures = []
    for key in sorted(set(doc) | set(expected)):
        if doc.get(key) != expected.get(key):
            got, want = doc.get(key), expected.get(key)
            fields = (
                sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                if isinstance(got, dict) and isinstance(want, dict)
                else []
            )
            failures.append(
                Failure(
                    f"{key}: differs from the stored expected output"
                    + (f" in {fields[:8]}" if fields else ""),
                    item_of(key),
                )
            )
    return failures


# -- sprint_paper --------------------------------------------------------------------


class SprintPaper:
    """Figure 7: six kernels x (baseline, parallel, DVFS) x (150 mg, 1.5 mg)."""

    name = "sprint_paper"

    def __init__(self, size: str, seed: int, workers: int) -> None:
        import repro.workloads as rw
        from repro.core.config import SystemConfig
        from repro.core.simulation import SprintSimulation

        self.kernels = PAPER_KERNELS if size == "full" else ("texture", "segment")
        full, small = SystemConfig.paper_default(), SystemConfig.small_pcm()
        self.sims = {"150mg": SprintSimulation(full), "1.5mg": SprintSimulation(small)}
        suite = rw.kernel_suite()
        self.tasks = {k: suite[k].workload() for k in self.kernels}
        self.dvfs_bound = full.policy.dvfs.max_boost_for_headroom(
            full.policy.power_headroom
        )
        self.keys = [
            (kernel, run)
            for kernel in self.kernels
            for run in ("baseline", "parallel@150mg", "parallel@1.5mg", "dvfs@150mg", "dvfs@1.5mg")
        ]
        self.items = len(self.keys)

    def params(self) -> dict:
        return {
            "kernels": list(self.kernels),
            "input_class": "default",
            "packages": list(self.sims),
            "runs": len(self.keys),
            "baseline_quantum_s": 2e-3,
            "seed_use": "none: the paper's fixed matrix has nothing to draw",
        }

    def run_unit(self) -> dict:
        out = {}
        for kernel, run in self.keys:
            task = self.tasks[kernel]
            mode, _, package = run.partition("@")
            if mode == "baseline":
                out[kernel, run] = self.sims["150mg"].run_baseline(task, quantum_s=2e-3)
            elif mode == "parallel":
                out[kernel, run] = self.sims[package].run(task)
            else:
                out[kernel, run] = self.sims[package].run_dvfs_sprint(task)
        return out

    def _speedups(self, result: dict) -> dict:
        return {
            (kernel, run): result[kernel, run].speedup_over(result[kernel, "baseline"])
            for kernel, run in self.keys
            if run != "baseline"
        }

    def observe(self, result: dict) -> Observation:
        doc = {}
        quanta = 0
        for kernel, run in self.keys:
            r = result[kernel, run]
            steps = len(r.junction_trace_c) - 1
            quanta += steps
            doc[f"{kernel}/{run}"] = [
                r.total_time_s,
                r.total_energy_j,
                r.peak_junction_c,
                r.sprint_completion_fraction,
                r.sprint_exhausted_at_s,
                steps,
            ]
        speedups = self._speedups(result)
        mean_full = float(
            np.mean([speedups[k, "parallel@150mg"] for k in self.kernels])
        )
        return Observation(
            items=len(self.keys),
            resolved=len(self.keys),
            quanta=quanta,
            doc=canonical(doc),
            extra={
                "mean_parallel_150mg_speedup": mean_full,
                "paper_speedup_rel_err": abs(mean_full - PAPER_SPEEDUP) / PAPER_SPEEDUP,
            },
        )

    def check(self, result: dict, obs: Observation, seed: int, expected) -> list[Failure]:
        """Per-run sanity plus the Figure 7 claims at the tier-1 tolerances."""
        failures = []
        for i, key in enumerate(self.keys):
            r = result[key]
            if not (r.completed and math.isfinite(r.total_time_s) and r.total_time_s > 0):
                failures.append(Failure(f"{key}: did not complete with a finite time", (i,)))
        s = self._speedups(result)
        for k in self.kernels:
            row = tuple(i for i, key in enumerate(self.keys) if key[0] == k)
            parallel = s[k, "parallel@150mg"]
            if not parallel > 2.0:
                failures.append(Failure(f"{k}: parallel speedup {parallel:.2f} <= 2", row))
            if not s[k, "parallel@1.5mg"] <= parallel * 1.05:
                failures.append(Failure(f"{k}: 1.5 mg package beats 150 mg", row))
            if not s[k, "dvfs@150mg"] <= self.dvfs_bound * 1.1:
                failures.append(Failure(f"{k}: DVFS speedup above its analytic bound", row))
        full = np.mean([s[k, "parallel@150mg"] for k in self.kernels])
        small = np.mean([s[k, "parallel@1.5mg"] for k in self.kernels])
        dvfs = np.mean([s[k, "dvfs@150mg"] for k in self.kernels])
        if not 7.0 <= full <= 14.0:
            failures.append(Failure(f"mean parallel speedup {full:.2f} outside [7, 14]"))
        if not small < full:
            failures.append(Failure("mean 1.5 mg speedup not below 150 mg"))
        if not dvfs < 3.0:
            failures.append(Failure(f"mean DVFS speedup {dvfs:.2f} >= 3"))
        if not full > 3.0 * dvfs:
            failures.append(Failure("parallel sprint not 3x the DVFS sprint"))
        return failures


# -- fleet_stream --------------------------------------------------------------------


class FleetStream:
    """One long flat-memory replication on 256 devices under a greedy cap."""

    name = "fleet_stream"
    cap = 64
    items = 1

    def __init__(self, size: str, seed: int, workers: int) -> None:
        from repro.core.config import SystemConfig
        from repro.traffic import (
            FixedService,
            GovernorSpec,
            PoissonArrivals,
            Scenario,
            TelemetrySpec,
        )

        self.seed = seed
        self.config = SystemConfig.paper_default()
        self.scenario = Scenario(
            arrivals=PoissonArrivals(50.0),
            service=FixedService(5.0),
            n_requests=200_000 if size == "full" else 2_000,
            n_devices=256,
            policy="round_robin",
            mode="central_queue",
            discipline="fifo",
            governor=GovernorSpec.greedy(self.cap),
            keep_samples=False,
            telemetry=TelemetrySpec(),
        )

    def params(self) -> dict:
        s = self.scenario
        return {
            "devices": s.n_devices,
            "requests": s.n_requests,
            "arrivals": "poisson 50 Hz",
            "service": "fixed 5 s",
            "dispatch": s.policy,
            "queue": f"central {s.discipline}",
            "governor": s.governor.label,
            "keep_samples": s.keep_samples,
        }

    def run_unit(self):
        result = self.scenario.simulate(self.config, _seq(self.seed, 1), _seq(self.seed, 2))
        return result, result.summary()

    def observe(self, unit) -> Observation:
        result, summary = unit
        stats = result.governor_stats
        doc = {
            "stream": {
                "summary": summary.to_dict(),
                "governor": None if stats is None else asdict(stats),
                "counts": [result.served_count, result.rejected_count, result.abandoned_count],
            }
        }
        return Observation(
            items=1,
            resolved=summary.offered_count,
            quanta=result.served_count,
            doc=canonical(doc),
            vector_core=[engine_path(result)],
            granted=summary.sprints_granted,
            grant_attempts=summary.sprints_granted + summary.sprints_denied,
        )

    def check(self, unit, obs: Observation, seed: int, expected) -> list[Failure]:
        result, summary = unit
        found = summary_failures(summary, self.scenario.n_requests, "stream")
        found += ledger_failures(result.governor_stats, "stream governor", cap=self.cap)
        failures = [Failure(msg) for msg in found]
        if seed == DEFAULT_SEED:
            failures += expected_failures(obs.doc, expected, lambda key: None)
        return failures


# -- datacenter_sharded --------------------------------------------------------------


class DatacenterSharded:
    """10 rows x 10 racks x 100 devices, greedy budgets at rack and row level."""

    name = "datacenter_sharded"
    items = 1

    def __init__(self, size: str, seed: int, workers: int) -> None:
        from repro.core.config import SystemConfig
        from repro.traffic import (
            DiurnalArrivals,
            GammaService,
            GovernorSpec,
            Scenario,
            TopologySpec,
        )

        self.seed, self.workers = seed, workers
        self.config = SystemConfig.paper_default()
        rows, racks, per_rack, n = (10, 10, 100, 100_000) if size == "full" else (2, 2, 5, 2_000)
        # Tight enough that both levels deny grants at the diurnal peak.
        self.rack_cap, self.row_cap = (2, 12) if size == "full" else (1, 2)
        self.topology = TopologySpec.uniform(
            rows,
            racks,
            per_rack,
            rack_governor=GovernorSpec.greedy(self.rack_cap),
            row_governor=GovernorSpec.greedy(self.row_cap),
            window_s=60.0,
        )
        self.scenario = Scenario(
            arrivals=DiurnalArrivals(base_rate_hz=200.0, amplitude=0.8, period_s=600.0),
            service=GammaService(5.0, cv=0.5),
            n_requests=n,
            policy="least_loaded",
            thermal="rc",
            topology=self.topology,
            shard_workers=workers,
        )

    def params(self) -> dict:
        s, t = self.scenario, self.topology
        return {
            "rows": len(t.rows),
            "racks": t.n_racks,
            "devices": t.total_devices,
            "requests": s.n_requests,
            "arrivals": "diurnal 200 Hz, amplitude 0.8, period 600 s",
            "service": "gamma 5 s, cv 0.5",
            "dispatch": f"{t.dispatch} + {s.policy}",
            "budgets": f"greedy[{self.rack_cap}] per rack, greedy[{self.row_cap}] per row",
            "thermal": s.thermal.backend,
            "shard_workers": s.shard_workers,
        }

    def _simulate(self, scenario):
        result = scenario.simulate(self.config, _seq(self.seed, 1), _seq(self.seed, 2))
        return result, result.summary()

    def run_unit(self):
        return self._simulate(self.scenario)

    def _doc(self, unit) -> dict:
        result, summary = unit
        return canonical(
            {
                "datacenter": {
                    "summary": summary.to_dict(),
                    "topology": (
                        None if result.topology_stats is None else asdict(result.topology_stats)
                    ),
                    "counts": [result.served_count, result.rejected_count, result.abandoned_count],
                    # Dataclass reprs print every float exactly.
                    "devices_sha": hashlib.sha256(
                        repr(result.device_stats).encode()
                    ).hexdigest()[:16],
                }
            }
        )

    def observe(self, unit) -> Observation:
        result, summary = unit
        return Observation(
            items=1,
            resolved=summary.offered_count,
            quanta=result.served_count,
            doc=self._doc(unit),
            vector_core=[engine_path(result)],
            granted=summary.sprints_granted,
            grant_attempts=summary.sprints_granted + summary.sprints_denied,
        )

    def check(self, unit, obs: Observation, seed: int, expected) -> list[Failure]:
        result, summary = unit
        found = summary_failures(summary, self.scenario.n_requests, "datacenter")
        stats = result.topology_stats
        if stats is None:
            found.append("datacenter: governed topology produced no ledger")
        else:
            found += ledger_failures(stats.overall, "cascade")
            for path, rack in zip(stats.rack_paths, stats.racks):
                found += ledger_failures(rack, f"rack {path}", cap=self.rack_cap)
            for i, row in enumerate(stats.rows):
                found += ledger_failures(row, f"row {i}")
            if stats.overall.sprints_denied > sum(stats.denied_by_level().values()):
                found.append("datacenter: cascade denials not attributed to any level")
        served = sum(d.requests_served for d in result.device_stats)
        if served != result.served_count:
            found.append(f"datacenter: devices served {served}, fleet {result.served_count}")
        failures = [Failure(msg) for msg in found]
        if seed == DEFAULT_SEED:
            failures += expected_failures(obs.doc, expected, lambda key: None)
        return failures

    def untimed_check(self, obs: Observation) -> list[Failure]:
        """Shard-worker invariance: 1 and 2 workers give identical results."""
        other = 1 if self.workers != 1 else 2
        rerun = self._simulate(self.scenario.with_options(shard_workers=other))
        if self._doc(rerun) != obs.doc:
            return [Failure(f"shard_workers={other} differs from shard_workers={self.workers}")]
        return []


# -- replicated_study ----------------------------------------------------------------


class ReplicatedStudy:
    """Three governance/thermal arms of a bursty EDF study, 8 replications each."""

    name = "replicated_study"
    fields = (
        "p50_latency_s",
        "p99_latency_s",
        "mean_latency_s",
        "slo_attainment",
        "sprint_fraction",
    )

    def __init__(self, size: str, seed: int, workers: int) -> None:
        from repro.core.config import SystemConfig
        from repro.traffic import (
            GammaService,
            GovernorSpec,
            MMPPArrivals,
            Scenario,
            TelemetrySpec,
        )

        self.seed, self.workers = seed, workers
        self.config = SystemConfig.paper_default()
        self.replications = 8 if size == "full" else 2
        base = Scenario(
            arrivals=MMPPArrivals.bursty(burst_rate_hz=5.0, mean_burst_s=8.0, mean_idle_s=24.0),
            service=GammaService(mean_s=5.0, cv=0.8),
            n_requests=2_000 if size == "full" else 100,
            n_devices=16,
            mode="central_queue",
            discipline="edf",
            queue_bound=32,
            deadline_s=8.0,
            slo_s=2.0,
            sprint_speedup=8.0,
            telemetry=TelemetrySpec(timeline_cadence_s=30.0),
        )
        self.base = base
        self.arms = {
            "greedy_rc": base.with_options(
                governor=GovernorSpec.greedy(6, trip_headroom_w=75.0, penalty_s=20.0),
                thermal="rc",
            ),
            "token_pcm": base.with_options(
                governor=GovernorSpec.token_bucket(0.5, 8.0), thermal="pcm"
            ),
            "coop_fifo_linear": base.with_options(
                governor=GovernorSpec.cooperative(75.0), discipline="fifo", thermal="linear"
            ),
        }
        self.items = len(self._keys())

    def params(self) -> dict:
        b = self.base
        return {
            "arms": {
                name: f"{arm.governor.label}, {arm.discipline}, {arm.thermal.backend}"
                for name, arm in self.arms.items()
            },
            "replications_per_arm": self.replications,
            "requests_per_replication": b.n_requests,
            "devices": b.n_devices,
            "arrivals": "bursty MMPP 5 Hz bursts, 8 s on / 24 s off",
            "service": "gamma 5 s, cv 0.8",
            "queue": f"central, bound {b.queue_bound}, deadline {b.deadline_s} s",
            "workers": self.workers,
        }

    def run_unit(self) -> dict:
        from repro.traffic import ReplicationPlan, run_replications

        out = {}
        for name, arm in self.arms.items():
            plan = ReplicationPlan(arm, n_replications=self.replications, base_seed=self.seed)
            result = run_replications(plan, self.config, workers=self.workers)
            out[name] = (result, {f: result.estimate(f) for f in self.fields})
        return out

    def _keys(self) -> list[str]:
        return [f"{arm}/{r}" for arm in self.arms for r in range(self.replications)]

    def observe(self, unit: dict) -> Observation:
        doc, resolved, granted, attempts = {}, 0, 0, 0
        for name, (result, estimates) in unit.items():
            for r, summary in enumerate(result.summaries):
                doc[f"{name}/{r}"] = summary.to_dict()
                resolved += summary.offered_count
                granted += summary.sprints_granted
                attempts += summary.sprints_granted + summary.sprints_denied
            doc[f"{name}/estimates"] = {f: asdict(e) for f, e in estimates.items()}
        served = sum(s.request_count for result, _ in unit.values() for s in result.summaries)
        return Observation(
            items=len(self._keys()),
            resolved=resolved,
            quanta=served,
            doc=canonical(doc),
            vector_core=[NOT_EXPOSED] * len(self._keys()),
            granted=granted,
            grant_attempts=attempts,
        )

    def check(self, unit: dict, obs: Observation, seed: int, expected) -> list[Failure]:
        keys = self._keys()
        failures = []
        for name, (result, estimates) in unit.items():
            arm = self.arms[name]
            if len(result.summaries) != self.replications:
                failures.append(Failure(f"{name}: {len(result.summaries)} replications"))
            for r, summary in enumerate(result.summaries):
                item = (keys.index(f"{name}/{r}"),)
                for msg in summary_failures(summary, arm.n_requests, f"{name}/{r}"):
                    failures.append(Failure(msg, item))
            for f, est in estimates.items():
                if not (est.n == self.replications and math.isfinite(est.mean)):
                    failures.append(Failure(f"{name}: estimate of {f} is {est}"))

        def item_of(key: str):
            return (keys.index(key),) if key in keys else None

        if seed == DEFAULT_SEED:
            failures += expected_failures(obs.doc, expected, item_of)
        return failures


WORKLOADS = {
    cls.name: cls for cls in (SprintPaper, FleetStream, DatacenterSharded, ReplicatedStudy)
}
