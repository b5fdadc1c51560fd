"""Latency and throughput summaries for fleet runs.

The paper argues sprinting buys *responsiveness*; at fleet scale that claim
lives in the tail of the latency distribution.  This module reduces a list
of :class:`~repro.traffic.device.ServedRequest` to the numbers a serving
team actually watches: median and tail latency percentiles, the fraction of
requests meeting a latency SLO, the fraction that sprinted, delivered
throughput over the run's makespan — and, for central-queue runs with a
request lifecycle, how many requests were rejected at admission, abandoned
in the queue, or served past their deadline.  Power-governed runs
additionally report the grant ledger (sprints granted and denied, breaker
trips, time at the budget cap) from the run's
:class:`~repro.traffic.governor.GovernorStats`.

Thermal telemetry from the devices' pacing backends
(:mod:`repro.core.thermal_backend`) is summarised too: peak and mean
stored heat across all served requests, the peak package temperature, and
the peak PCM melt fraction — under the ``pcm`` backend a peak melt
fraction pinned near 1.0 means the fleet is serving off the far edge of
the Figure 4 plateau.

Usage:

>>> from repro.traffic.metrics import latency_percentiles, slo_attainment
>>> latency_percentiles([1.0, 2.0, 3.0, 4.0], percentiles=(50.0,))
(2.5,)
>>> slo_attainment([1.0, 2.0, 3.0, 4.0], slo_s=2.0)
0.5
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.traffic.device import ServedColumns, ServedRequest
from repro.traffic.governor import GovernorStats


@dataclass(frozen=True)
class TrafficSummary:
    """Aggregate serving metrics for one fleet run.

    An empty run (no served requests) is valid and reports zeros
    throughout, so sweeps over sparse arrival processes never crash.
    """

    request_count: int
    makespan_s: float
    throughput_rps: float
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    mean_queueing_s: float
    #: Fraction of requests that sprinted at all (partial sprints included).
    sprint_fraction: float
    #: Mean realised fraction of the achievable sprint speedup — unlike
    #: ``sprint_fraction`` this distinguishes a thermally exhausted fleet
    #: (many barely-partial sprints) from a healthy one.
    mean_sprint_fullness: float = 0.0
    slo_s: float | None = None
    slo_attainment: float | None = None
    #: Lifecycle counts (central-queue runs): arrivals bounced by a full
    #: bounded queue, queued requests abandoned at their deadline, and
    #: served requests that completed past their deadline.
    rejected_count: int = 0
    abandoned_count: int = 0
    deadline_miss_count: int = 0
    #: Thermal telemetry over all served requests, from the devices'
    #: pacing backends: stored heat right after each request (peak and
    #: mean), the hottest package temperature reported, and the largest
    #: PCM melt fraction reached (0 unless the fleet paces with ``pcm``).
    peak_stored_heat_j: float = 0.0
    mean_stored_heat_j: float = 0.0
    peak_temperature_c: float = 0.0
    peak_melt_fraction: float = 0.0
    #: Power-governance ledger (governed runs; ``unlimited`` reports the
    #: defaults): the policy that gated sprints, grants issued and denied,
    #: breaker trips, and total time the shared budget was exhausted.
    governor_policy: str | None = None
    sprints_granted: int = 0
    sprints_denied: int = 0
    breaker_trips: int = 0
    time_at_cap_s: float = 0.0
    #: Where the latency statistics came from: ``"samples"`` when computed
    #: exactly from a materialised per-request list, ``"sketch"`` when
    #: streamed through a fixed-memory quantile sketch
    #: (:class:`repro.traffic.telemetry.TrafficTelemetry`).
    telemetry_source: str = "samples"
    #: Normalised rank-error bound of the percentile/SLO fields when
    #: ``telemetry_source == "sketch"`` (``None`` for exact summaries).
    sketch_rank_error: float | None = None

    @property
    def sprint_denial_fraction(self) -> float:
        """Denied fraction of all sprint-grant requests (0.0 if none made)."""
        attempts = self.sprints_granted + self.sprints_denied
        if attempts == 0:
            return 0.0
        return self.sprints_denied / attempts

    @property
    def offered_count(self) -> int:
        """Every request that reached the frontend, whatever its fate."""
        return self.request_count + self.rejected_count + self.abandoned_count

    @property
    def deadline_miss_fraction(self) -> float:
        """Deadline misses among *served* requests (0.0 for an empty run)."""
        if self.request_count == 0:
            return 0.0
        return self.deadline_miss_count / self.request_count

    def to_dict(self) -> dict:
        """Plain-JSON form (used by golden regression fixtures and reports)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficSummary":
        """Rebuild a summary from its :meth:`to_dict` form (exact round-trip)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown TrafficSummary fields: {sorted(unknown)}")
        return cls(**data)


def validate_latencies(
    latencies_s: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Coerce latencies to a float array, rejecting an empty input.

    The single validation gate for every sample-based latency reduction
    (:func:`latency_percentiles`, :func:`slo_attainment`), so the
    "at least one latency" contract lives in exactly one place.
    """
    values = np.asarray(latencies_s, dtype=float)
    if values.size == 0:
        raise ValueError("at least one latency is required")
    return values


def validate_slo(slo_s: float | None) -> None:
    """Reject a non-positive SLO (``None`` means no SLO and is fine)."""
    if slo_s is not None and slo_s <= 0:
        raise ValueError("SLO must be positive")


def latency_percentiles(
    latencies_s: Sequence[float] | np.ndarray,
    percentiles: Sequence[float] = (50.0, 95.0, 99.0),
) -> tuple[float, ...]:
    """Linear-interpolated latency percentiles (numpy's default method)."""
    values = validate_latencies(latencies_s)
    return tuple(float(p) for p in np.percentile(values, percentiles))


def slo_attainment(
    latencies_s: Sequence[float] | np.ndarray, slo_s: float
) -> float:
    """Fraction of requests with latency at or below the SLO."""
    validate_slo(slo_s)
    values = validate_latencies(latencies_s)
    return float(np.mean(values <= slo_s))


# -- replication statistics ---------------------------------------------------------
#
# The experiment layer (:mod:`repro.traffic.experiments`) reduces N
# replications of a scenario to per-metric mean / confidence-interval
# estimates and paired-difference tests.  The Student-t machinery is
# implemented here from first principles (regularised incomplete beta via
# the Numerical Recipes continued fraction, quantile by bisection) so the
# package keeps its numpy-only dependency surface.

#: TrafficSummary fields the experiment layer aggregates across
#: replications.  ``slo_attainment`` is included but skipped per-experiment
#: when no SLO was set (the field is then None on every replication).
SUMMARY_STAT_FIELDS: tuple[str, ...] = (
    "request_count",
    "makespan_s",
    "throughput_rps",
    "mean_latency_s",
    "p50_latency_s",
    "p95_latency_s",
    "p99_latency_s",
    "max_latency_s",
    "mean_queueing_s",
    "sprint_fraction",
    "mean_sprint_fullness",
    "slo_attainment",
    "rejected_count",
    "abandoned_count",
    "deadline_miss_count",
    "peak_stored_heat_j",
    "mean_stored_heat_j",
    "peak_temperature_c",
    "peak_melt_fraction",
    "sprints_granted",
    "sprints_denied",
    "breaker_trips",
    "time_at_cap_s",
)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta (NR ``betacf``)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-15:
            break
    return h


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), exact to ~1e-14 for the (a, b) ranges the t CDF needs."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    tail = 0.5 * _regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


def student_t_ppf(p: float, df: float) -> float:
    """Quantile (inverse CDF) of Student's t, by bisection on the CDF.

    Deterministic and accurate to ~1e-10, which is far below the Monte
    Carlo noise of any replication count the CIs are built from.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile probability must be in (0, 1)")
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_ppf(1.0 - p, df)
    hi = 1.0
    while student_t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - p astronomically close to 1
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MetricEstimate:
    """A replication-averaged metric with its confidence interval.

    ``half_width`` is the Student-t confidence half-width of the mean:
    ``t_{(1+confidence)/2, n-1} * stddev / sqrt(n)``.  A single
    replication cannot bound its own error, so ``n == 1`` reports an
    infinite half-width — except for estimates built by
    :meth:`MetricEstimate.exact`, which assert the scenario was
    deterministic (zero-width by construction, not by measurement).
    """

    n: int
    mean: float
    stddev: float
    half_width: float
    confidence: float = 0.95

    @property
    def ci_low(self) -> float:
        """Lower edge of the confidence interval."""
        return self.mean - self.half_width

    @property
    def ci_high(self) -> float:
        """Upper edge of the confidence interval."""
        return self.mean + self.half_width

    @classmethod
    def exact(cls, value: float, confidence: float = 0.95) -> "MetricEstimate":
        """A deterministic metric: known exactly from one replication."""
        return cls(n=1, mean=float(value), stddev=0.0, half_width=0.0, confidence=confidence)

    def __str__(self) -> str:
        if math.isinf(self.half_width):
            return f"{self.mean:.4g} ± ? (n=1)"
        return (
            f"{self.mean:.4g} ± {self.half_width:.2g} "
            f"({self.confidence * 100:.0f}% CI, n={self.n})"
        )


def mean_ci(
    values: Sequence[float] | np.ndarray, confidence: float = 0.95
) -> MetricEstimate:
    """Student-t confidence interval of the mean of i.i.d. replications.

    ``n == 1`` yields an infinite half-width (one replication bounds
    nothing); identical values yield a zero half-width.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("at least one value is required")
    n = int(data.size)
    mean = float(data.mean())
    if n == 1:
        return MetricEstimate(
            n=1, mean=mean, stddev=0.0, half_width=math.inf, confidence=confidence
        )
    stddev = float(data.std(ddof=1))
    if stddev == 0.0:
        half = 0.0
    else:
        half = student_t_ppf(0.5 * (1.0 + confidence), n - 1) * stddev / math.sqrt(n)
    return MetricEstimate(
        n=n, mean=mean, stddev=stddev, half_width=half, confidence=confidence
    )


def batch_means_ci(
    series: Sequence[float] | np.ndarray,
    n_batches: int = 10,
    confidence: float = 0.95,
) -> MetricEstimate:
    """Batch-means confidence interval for a (possibly correlated) series.

    The classic single-run output-analysis method: split the series into
    ``n_batches`` contiguous batches, average each, and treat the batch
    means as approximately independent draws — valid when batches are much
    longer than the series' correlation length.  A remainder that does not
    divide evenly is dropped from the *front* of the series (the transient
    end of a simulation run, so trimming doubles as warmup deletion).
    """
    if n_batches < 2:
        raise ValueError("batch means need at least two batches")
    data = np.asarray(series, dtype=float)
    if data.size < n_batches:
        raise ValueError(
            f"series of {data.size} values cannot fill {n_batches} batches"
        )
    batch_len = data.size // n_batches
    trimmed = data[data.size - n_batches * batch_len :]
    batches = trimmed.reshape(n_batches, batch_len).mean(axis=1)
    return mean_ci(batches, confidence=confidence)


def sign_test_p(n_positive: int, n_negative: int) -> float:
    """Exact two-sided sign-test p-value (ties excluded by the caller).

    Under the null hypothesis of no systematic difference, each non-zero
    paired delta is positive with probability one half; the p-value is the
    doubled binomial tail of the rarer sign.  No deltas at all (every pair
    tied) is maximally uninformative: p = 1.
    """
    if n_positive < 0 or n_negative < 0:
        raise ValueError("sign counts must be non-negative")
    n = n_positive + n_negative
    if n == 0:
        return 1.0
    k = min(n_positive, n_negative)
    tail = sum(math.comb(n, i) for i in range(k + 1)) * 0.5**n
    return min(1.0, 2.0 * tail)


@dataclass(frozen=True)
class PairedDelta:
    """Treatment-minus-baseline difference over paired replications.

    Under common-random-numbers pairing the two arms of replication ``r``
    consumed identical stochastic draws, so the per-replication deltas
    cancel the shared arrival/service noise and their CI is (often much)
    tighter than the difference of two independent CIs.  ``sign_test_p``
    is the exact two-sided sign test over the non-zero deltas — a
    distribution-free check that does not lean on the t assumptions.
    """

    n: int
    mean_delta: float
    stddev: float
    half_width: float
    confidence: float = 0.95
    n_positive: int = 0
    n_negative: int = 0
    sign_test_p: float = 1.0

    @property
    def ci_low(self) -> float:
        """Lower edge of the delta's confidence interval."""
        return self.mean_delta - self.half_width

    @property
    def ci_high(self) -> float:
        """Upper edge of the delta's confidence interval."""
        return self.mean_delta + self.half_width

    @property
    def significant(self) -> bool:
        """True when the CI excludes zero (no difference is implausible)."""
        return self.ci_low > 0.0 or self.ci_high < 0.0

    def __str__(self) -> str:
        return (
            f"Δ {self.mean_delta:+.4g} ± {self.half_width:.2g} "
            f"({self.confidence * 100:.0f}% CI, n={self.n}, "
            f"sign test p={self.sign_test_p:.3g})"
        )


def paired_delta(
    baseline: Sequence[float] | np.ndarray,
    treatment: Sequence[float] | np.ndarray,
    confidence: float = 0.95,
) -> PairedDelta:
    """Reduce paired per-replication values to a treatment-minus-baseline CI."""
    base = np.asarray(baseline, dtype=float)
    treat = np.asarray(treatment, dtype=float)
    if base.size != treat.size:
        raise ValueError(
            f"paired arms must match: {base.size} baseline vs {treat.size} treatment"
        )
    deltas = treat - base
    estimate = mean_ci(deltas, confidence=confidence)
    positive = int(np.sum(deltas > 0))
    negative = int(np.sum(deltas < 0))
    return PairedDelta(
        n=estimate.n,
        mean_delta=estimate.mean,
        stddev=estimate.stddev,
        half_width=estimate.half_width,
        confidence=confidence,
        n_positive=positive,
        n_negative=negative,
        sign_test_p=sign_test_p(positive, negative),
    )


def aggregate_summaries(
    summaries: Sequence[TrafficSummary], confidence: float = 0.95
) -> dict[str, MetricEstimate]:
    """Mean/CI/half-width per :data:`SUMMARY_STAT_FIELDS` field.

    Fields that are ``None`` on any replication (``slo_attainment`` without
    an SLO, or on an empty run) are skipped rather than poisoning the rest.
    """
    if not summaries:
        raise ValueError("at least one replication summary is required")
    estimates: dict[str, MetricEstimate] = {}
    for field in SUMMARY_STAT_FIELDS:
        values = [getattr(s, field) for s in summaries]
        if any(v is None for v in values):
            continue
        estimates[field] = mean_ci(values, confidence=confidence)
    return estimates


def _governor_fields(stats: GovernorStats | None) -> dict:
    if stats is None:
        return {}
    return dict(
        governor_policy=stats.policy,
        sprints_granted=stats.sprints_granted,
        sprints_denied=stats.sprints_denied,
        breaker_trips=stats.breaker_trips,
        time_at_cap_s=stats.time_at_cap_s,
    )


def build_summary(
    source: str = "samples",
    rank_error: float | None = None,
    governor_stats: GovernorStats | None = None,
    **fields,
) -> TrafficSummary:
    """Construct a :class:`TrafficSummary` with all-zero defaults.

    The shared assembly point of the exact (:func:`summarize`) and
    sketch-backed (:meth:`repro.traffic.telemetry.TrafficTelemetry.summarize`)
    paths: omitted fields default to the empty-run zeros, ``source`` and
    ``rank_error`` fill the telemetry provenance fields, and
    ``governor_stats`` expands into the grant-ledger fields.
    """
    values = dict(
        request_count=0,
        makespan_s=0.0,
        throughput_rps=0.0,
        mean_latency_s=0.0,
        p50_latency_s=0.0,
        p95_latency_s=0.0,
        p99_latency_s=0.0,
        max_latency_s=0.0,
        mean_queueing_s=0.0,
        sprint_fraction=0.0,
        telemetry_source=source,
        sketch_rank_error=rank_error,
    )
    values.update(fields)
    values.update(_governor_fields(governor_stats))
    return TrafficSummary(**values)


def summarize(
    served: Sequence[ServedRequest] | ServedColumns,
    slo_s: float | None = None,
    rejected_count: int = 0,
    abandoned_count: int = 0,
    governor_stats: GovernorStats | None = None,
) -> TrafficSummary:
    """Reduce a fleet run to its serving metrics.

    ``served`` is a sequence of :class:`~repro.traffic.device.ServedRequest`
    or the same rows as :class:`~repro.traffic.device.ServedColumns`; both
    reduce through the same numpy operations on the same columns, so they
    give bit-identical summaries.  An empty ``served`` yields an all-zero
    summary rather than raising, and a zero makespan (conceivable only for
    hand-built instantaneous requests) reports zero throughput rather than
    ``inf``.  ``governor_stats`` (from a power-governed run) fills the
    grant-ledger fields; ``None`` leaves them at their ungoverned defaults.

    This is the exact, sample-based path (``telemetry_source ==
    "samples"``); long-horizon runs that kept no samples summarise
    through the sketch instead
    (:meth:`repro.traffic.telemetry.TrafficTelemetry.summarize`).
    """
    validate_slo(slo_s)
    if not isinstance(served, ServedColumns):
        served = ServedColumns.from_served(served)
    if not len(served):
        return build_summary(
            slo_s=slo_s,
            slo_attainment=None,
            rejected_count=rejected_count,
            abandoned_count=abandoned_count,
            governor_stats=governor_stats,
        )
    latencies = served.latency_s
    arrivals = served.requests.arrival_s
    completions = arrivals + latencies
    stored_heat = served.stored_heat_after_j
    deadline_at = served.requests.deadline_at_s
    p50, p95, p99 = latency_percentiles(latencies)
    makespan = float(completions.max() - arrivals.min())
    return TrafficSummary(
        request_count=len(served),
        makespan_s=makespan,
        throughput_rps=len(served) / makespan if makespan > 0 else 0.0,
        mean_latency_s=float(latencies.mean()),
        p50_latency_s=p50,
        p95_latency_s=p95,
        p99_latency_s=p99,
        max_latency_s=float(latencies.max()),
        mean_queueing_s=float(served.queueing_delay_s.mean()),
        sprint_fraction=float(np.mean(served.sprinted)),
        mean_sprint_fullness=float(np.mean(served.sprint_fullness)),
        peak_stored_heat_j=float(stored_heat.max()),
        mean_stored_heat_j=float(stored_heat.mean()),
        peak_temperature_c=float(served.package_temperature_c.max()),
        peak_melt_fraction=float(served.melt_fraction.max()),
        slo_s=slo_s,
        slo_attainment=None if slo_s is None else slo_attainment(latencies, slo_s),
        rejected_count=rejected_count,
        abandoned_count=abandoned_count,
        deadline_miss_count=(
            0 if deadline_at is None else int(np.count_nonzero(completions > deadline_at))
        ),
        **_governor_fields(governor_stats),
    )
