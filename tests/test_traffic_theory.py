"""Queueing-theory oracles: the fleet against closed-form results.

The golden fixtures and the exact/batched differential tests only prove
the engine agrees with itself.  With sprinting disabled, a central FIFO
queue, Poisson arrivals and exponential service demands
(``GammaService(mean, cv=1.0)``), the fleet *is* a textbook M/M/c system,
so its answers can be checked against theory that owes nothing to this
code base:

* Erlang C — the mean wait in queue of M/M/c, and with it the mean
  sojourn time ``Wq + 1/mu``;
* Erlang B — the blocking probability of the M/M/c/c loss system, which
  a central queue bounded at zero (``queue_bound=0``) implements: an
  arrival that finds every device busy is rejected;
* Pollaczek–Khinchine — the mean wait in queue of M/G/1,
  ``Wq = lambda E[S^2] / (2 (1 - rho))``, on one device with fixed
  (M/D/1) and gamma (cv 0.5) service demands.

Each metric is measured through the replication layer: :func:`run_until`
adds replications until the 95% confidence interval is tighter than a
target half-width, and the theory value must fall inside that interval.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import SystemConfig
from repro.traffic import (
    FixedService,
    GammaService,
    PoissonArrivals,
    ReplicationPlan,
    Scenario,
    run_until,
)

CONFIG = SystemConfig.paper_default()

SERVERS = 4
ARRIVAL_RATE_HZ = 0.6
MEAN_SERVICE_S = 5.0
REQUESTS = 20_000


def erlang_b(servers: int, offered_load: float) -> float:
    """Blocking probability of M/M/c/c (the Erlang B formula)."""
    terms = [offered_load**k / math.factorial(k) for k in range(servers + 1)]
    return terms[-1] / sum(terms)


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an M/M/c arrival waits (the Erlang C formula)."""
    top = offered_load**servers / math.factorial(servers)
    top *= servers / (servers - offered_load)
    below = sum(offered_load**k / math.factorial(k) for k in range(servers))
    return top / (below + top)


def mmc_scenario(**options) -> Scenario:
    return Scenario(
        arrivals=PoissonArrivals(ARRIVAL_RATE_HZ),
        service=GammaService(MEAN_SERVICE_S, cv=1.0),
        n_requests=REQUESTS,
        n_devices=SERVERS,
        mode="central_queue",
        discipline="fifo",
        sprint_enabled=False,
        keep_samples=False,
        **options,
    )


def test_erlang_formulas_match_hand_values():
    # a = 3 Erlangs on 4 servers: B = (81/24) / (1 + 3 + 9/2 + 27/6 + 81/24)
    assert erlang_b(4, 3.0) == pytest.approx(3.375 / 16.375)
    assert erlang_c(4, 3.0) == pytest.approx(13.5 / 26.5)


class TestErlangC:
    """M/M/4 at utilisation 0.75: Wq = C(4, 3) / (4 mu - lambda)."""

    offered_load = ARRIVAL_RATE_HZ * MEAN_SERVICE_S
    wait_s = erlang_c(SERVERS, offered_load) / (SERVERS / MEAN_SERVICE_S - ARRIVAL_RATE_HZ)

    @pytest.fixture(scope="class")
    def experiment(self):
        plan = ReplicationPlan(mmc_scenario(), n_replications=8)
        return run_until(plan, target_half_width=0.25, metric="mean_queueing_s", config=CONFIG)

    def test_theory_values(self):
        assert self.wait_s == pytest.approx(2.547, abs=1e-3)

    def test_mean_queueing_delay(self, experiment):
        estimate = experiment.estimate("mean_queueing_s")
        assert estimate.half_width <= 0.25
        assert estimate.ci_low <= self.wait_s <= estimate.ci_high, estimate

    def test_mean_sojourn_time(self, experiment):
        estimate = experiment.estimate("mean_latency_s")
        sojourn_s = self.wait_s + MEAN_SERVICE_S
        assert estimate.ci_low <= sojourn_s <= estimate.ci_high, estimate

    def test_nothing_is_lost(self, experiment):
        assert all(s.rejected_count == 0 for s in experiment.summaries)
        assert all(s.request_count == REQUESTS for s in experiment.summaries)


class TestErlangB:
    """M/M/4/4 at 3 Erlangs: a bound-0 central queue rejects with B(4, 3)."""

    blocking = erlang_b(SERVERS, ARRIVAL_RATE_HZ * MEAN_SERVICE_S)

    def test_rejected_fraction(self):
        plan = ReplicationPlan(mmc_scenario(queue_bound=0), n_replications=8)
        experiment = run_until(
            plan,
            target_half_width=0.005 * REQUESTS,
            metric="rejected_count",
            config=CONFIG,
        )
        estimate = experiment.estimate("rejected_count")
        assert estimate.half_width <= 0.005 * REQUESTS
        low, high = estimate.ci_low / REQUESTS, estimate.ci_high / REQUESTS
        assert low <= self.blocking <= high, (low, self.blocking, high)
        # Every accepted request starts at once: a loss system never queues.
        assert all(s.mean_queueing_s == 0.0 for s in experiment.summaries)


def pollaczek_khinchine_wait(rate_hz: float, mean_s: float, cv: float) -> float:
    """Mean wait in queue of M/G/1: lambda E[S^2] / (2 (1 - rho))."""
    second_moment = (1.0 + cv * cv) * mean_s * mean_s
    return rate_hz * second_moment / (2.0 * (1.0 - rate_hz * mean_s))


class TestPollaczekKhinchine:
    """M/D/1 and M/G/1 at utilisation 0.6 on a single sprint-disabled device."""

    rate_hz = 0.12

    def experiment(self, service):
        scenario = Scenario(
            arrivals=PoissonArrivals(self.rate_hz),
            service=service,
            n_requests=REQUESTS,
            n_devices=1,
            mode="central_queue",
            discipline="fifo",
            sprint_enabled=False,
            keep_samples=False,
        )
        plan = ReplicationPlan(scenario, n_replications=8)
        return run_until(plan, target_half_width=0.25, metric="mean_queueing_s", config=CONFIG)

    def test_theory_values(self):
        assert pollaczek_khinchine_wait(self.rate_hz, MEAN_SERVICE_S, 0.0) == pytest.approx(3.75)
        assert pollaczek_khinchine_wait(self.rate_hz, MEAN_SERVICE_S, 0.5) == pytest.approx(4.6875)

    @pytest.mark.parametrize(
        "service, cv",
        [(FixedService(MEAN_SERVICE_S), 0.0), (GammaService(MEAN_SERVICE_S, cv=0.5), 0.5)],
        ids=["M/D/1", "M/G/1-gamma"],
    )
    def test_mean_wait(self, service, cv):
        wait_s = pollaczek_khinchine_wait(self.rate_hz, MEAN_SERVICE_S, cv)
        experiment = self.experiment(service)
        estimate = experiment.estimate("mean_queueing_s")
        assert estimate.half_width <= 0.25
        assert estimate.ci_low <= wait_s <= estimate.ci_high, estimate
        sojourn = experiment.estimate("mean_latency_s")
        assert sojourn.ci_low <= wait_s + MEAN_SERVICE_S <= sojourn.ci_high, sojourn
