"""Non-finite and out-of-range input is rejected at the traffic boundary.

A NaN arrival time or demand used to flow through the engine into a NaN
``p99_latency_s`` (NaNs also silently break the quantile sketch's rank
guarantee), and scenario knobs such as a sub-1x sprint speedup only
failed deep inside a run — inside a worker process for a sweep.  Every
check below fires at construction with a ``ValueError``; the comparisons
are written so that NaN fails them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.thermal_backend import ThermalSpec
from repro.traffic import (
    FixedService,
    GammaService,
    GovernorSpec,
    PoissonArrivals,
    Request,
    Scenario,
    TopologySpec,
    TraceArrivals,
)
from repro.traffic.request import RequestBlock, generate_request_blocks

NAN = math.nan
INF = math.inf


@pytest.mark.parametrize(
    "arrival_s, sustained_s",
    [(NAN, 1.0), (INF, 1.0), (0.0, INF), (0.0, NAN)],
    ids=["nan-arrival", "inf-arrival", "inf-demand", "nan-demand"],
)
def test_request_rejects_non_finite_times(arrival_s, sustained_s):
    with pytest.raises(ValueError):
        Request(0, arrival_s, sustained_s)


def test_request_rejects_nan_deadline():
    with pytest.raises(ValueError, match="deadline"):
        Request(0, 0.0, 1.0, deadline_s=NAN)


@pytest.mark.parametrize(
    "arrivals, demands",
    [([0.0, NAN], [1.0, 1.0]), ([0.0, 1.0], [1.0, INF]), ([-1.0, 1.0], [1.0, 1.0])],
    ids=["nan-arrival", "inf-demand", "negative-arrival"],
)
def test_request_block_rejects_bad_columns(arrivals, demands):
    with pytest.raises(ValueError):
        RequestBlock(0, np.array(arrivals), np.array(demands))


class _NanService(FixedService):
    """A custom service model that emits a NaN demand."""

    def sample_block(self, n, rng):
        demands, kernel, label = super().sample_block(n, rng)
        demands[-1] = NAN
        return demands, kernel, label


def test_generated_blocks_reject_nan_demands():
    blocks = generate_request_blocks(PoissonArrivals(1.0), _NanService(1.0), 8, seed=0)
    with pytest.raises(ValueError, match="sustained"):
        list(blocks)


def test_trace_rejects_nan_gap():
    with pytest.raises(ValueError):
        TraceArrivals.from_array((1, NAN, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FixedService(NAN),
        lambda: GammaService(5.0, cv=NAN),
        lambda: GammaService(NAN),
        lambda: PoissonArrivals(NAN),
        lambda: PoissonArrivals(INF),
    ],
    ids=["fixed-nan", "gamma-cv-nan", "gamma-mean-nan", "poisson-nan", "poisson-inf"],
)
def test_specs_reject_non_finite_parameters(build):
    with pytest.raises(ValueError):
        build()


def _scenario(**options) -> Scenario:
    return Scenario(
        arrivals=PoissonArrivals(0.5),
        service=FixedService(5.0),
        n_requests=10,
        **options,
    )


@pytest.mark.parametrize(
    "options",
    [
        dict(slo_s=0.0),
        dict(slo_s=NAN),
        dict(sprint_speedup=0.5),
        dict(sprint_speedup=NAN),
        dict(sprint_speedup=INF),
        dict(deadline_s=0.0),
        dict(deadline_s=NAN),
        dict(queue_bound=-1, mode="central_queue"),
    ],
    ids=[
        "slo-zero",
        "slo-nan",
        "speedup-below-1",
        "speedup-nan",
        "speedup-inf",
        "deadline-zero",
        "deadline-nan",
        "negative-bound",
    ],
)
def test_scenario_rejects_bad_knobs_at_construction(options):
    with pytest.raises(ValueError):
        _scenario(**options)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: GovernorSpec.greedy(2, trip_headroom_w=NAN), "trip headroom"),
        (lambda: GovernorSpec.greedy(2, trip_headroom_w=INF), "trip headroom"),
        (lambda: GovernorSpec.cooperative(NAN), "trip headroom"),
        (lambda: GovernorSpec.greedy(2, penalty_s=NAN), "penalty"),
        (lambda: GovernorSpec.token_bucket(INF, 3.0), "sprint_rate_hz"),
        (lambda: GovernorSpec.token_bucket(NAN, 3.0), "sprint_rate_hz"),
        (lambda: GovernorSpec.token_bucket(0.5, INF), "burst_sprints"),
        (lambda: TopologySpec.uniform(1, 2, 2, window_s=NAN), "window"),
        (lambda: TopologySpec.uniform(1, 2, 2, window_s=INF), "window"),
        (lambda: ThermalSpec(backend="rc", time_constant_s=NAN), "time constant"),
        (lambda: ThermalSpec(backend="rc", time_constant_s=INF), "time constant"),
    ],
    ids=[
        "headroom-nan",
        "headroom-inf",
        "coop-headroom-nan",
        "penalty-nan",
        "token-rate-inf",
        "token-rate-nan",
        "token-burst-inf",
        "window-nan",
        "window-inf",
        "tau-nan",
        "tau-inf",
    ],
)
def test_budget_and_thermal_specs_reject_non_finite_knobs(build, match):
    with pytest.raises(ValueError, match=match):
        build()
