"""Tests for the arrival processes and request generation of repro.traffic."""

import numpy as np
import pytest

from repro.traffic.arrivals import (
    BURST_FACTOR,
    BURST_MEAN_REQUESTS,
    DeterministicArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.traffic.request import (
    FixedService,
    GammaService,
    LognormalService,
    Request,
    SuiteService,
    generate_request_blocks,
    generate_requests,
)

ALL_PROCESSES = [
    DeterministicArrivals(2.0),
    PoissonArrivals(0.5),
    MMPPArrivals.bursty(2.0, mean_burst_s=5.0, mean_idle_s=15.0),
    DiurnalArrivals(0.5, amplitude=0.6, period_s=600.0),
    TraceArrivals((1.0, 0.5, 2.0)),
]


class TestArrivalProcesses:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_times_are_non_decreasing(self, process):
        times = process.times(200, seed=5)
        assert times.shape == (200,)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_same_seed_same_stream(self, process):
        assert np.array_equal(process.times(100, seed=9), process.times(100, seed=9))

    @pytest.mark.parametrize(
        "process",
        [p for p in ALL_PROCESSES if not isinstance(p, (DeterministicArrivals, TraceArrivals))],
        ids=lambda p: type(p).__name__,
    )
    def test_different_seeds_differ(self, process):
        assert not np.array_equal(process.times(100, seed=1), process.times(100, seed=2))

    def test_deterministic_is_periodic_from_zero(self):
        times = DeterministicArrivals(3.0).times(4)
        assert np.allclose(times, [0.0, 3.0, 6.0, 9.0])

    def test_poisson_mean_rate_approximately_right(self):
        times = PoissonArrivals(2.0).times(5000, seed=0)
        empirical = 5000 / times[-1]
        assert empirical == pytest.approx(2.0, rel=0.1)

    def test_bursty_is_burstier_than_poisson(self):
        """The on-off source's inter-arrival CV must exceed the Poisson CV of 1."""
        bursty = MMPPArrivals.bursty(5.0, mean_burst_s=2.0, mean_idle_s=18.0)
        gaps = np.diff(bursty.times(5000, seed=3))
        cv = gaps.std() / gaps.mean()
        assert cv > 1.5

    def test_bursty_at_rate_preserves_mean_rate_with_fixed_burst_shape(self):
        process = MMPPArrivals.bursty_at_rate(0.2)
        assert process.mean_rate_hz() == pytest.approx(0.2)
        assert process.rates_hz == (BURST_FACTOR * 0.2, 0.0)
        # A burst carries BURST_MEAN_REQUESTS expected requests and the
        # source is on for 1 / BURST_FACTOR of the time.
        burst_s, idle_s = process.mean_dwell_s
        assert burst_s * process.rates_hz[0] == pytest.approx(BURST_MEAN_REQUESTS)
        assert burst_s / (burst_s + idle_s) == pytest.approx(1.0 / BURST_FACTOR)
        with pytest.raises(ValueError, match="mean arrival rate"):
            MMPPArrivals.bursty_at_rate(0.0)

    def test_mmpp_mean_rate_weights_dwell_times(self):
        process = MMPPArrivals(rates_hz=(4.0, 1.0), mean_dwell_s=(1.0, 3.0))
        assert process.mean_rate_hz() == pytest.approx((4.0 + 3.0) / 4.0)

    def test_diurnal_rate_peaks_at_phase(self):
        process = DiurnalArrivals(1.0, amplitude=0.5, period_s=100.0, peak_at_s=25.0)
        assert process.rate_at(25.0) == pytest.approx(1.5)
        assert process.rate_at(75.0) == pytest.approx(0.5)

    def test_diurnal_concentrates_arrivals_near_peak(self):
        process = DiurnalArrivals(1.0, amplitude=0.9, period_s=100.0)
        times = process.times(4000, seed=1)
        phases = np.mod(times, 100.0)
        near_peak = np.mean((phases < 25.0) | (phases > 75.0))
        assert near_peak > 0.6

    def test_trace_cycles_and_truncates(self):
        trace = TraceArrivals((1.0, 2.0), cycle=True)
        assert np.allclose(trace.times(5), [1.0, 3.0, 4.0, 6.0, 7.0])
        strict = TraceArrivals((1.0, 2.0), cycle=False)
        with pytest.raises(ValueError):
            strict.times(3)

    def test_trace_from_array(self):
        trace = TraceArrivals.from_array(np.array([0.5, 0.5]))
        assert trace.interarrivals_s == (0.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeterministicArrivals(0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0)
        with pytest.raises(ValueError):
            MMPPArrivals(rates_hz=(0.0, 0.0), mean_dwell_s=(1.0, 1.0))
        with pytest.raises(ValueError):
            DiurnalArrivals(1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            TraceArrivals(())
        with pytest.raises(ValueError):
            PoissonArrivals(1.0).times(0)


class TestServiceModels:
    def test_fixed_service(self):
        rng = np.random.default_rng(0)
        draws = FixedService(5.0).sample(3, rng)
        assert draws == [(5.0, "fixed", "")] * 3

    def test_gamma_service_mean_and_cv(self):
        rng = np.random.default_rng(0)
        draws = np.array([d[0] for d in GammaService(4.0, cv=0.5).sample(20000, rng)])
        assert draws.mean() == pytest.approx(4.0, rel=0.05)
        assert draws.std() / draws.mean() == pytest.approx(0.5, rel=0.1)
        assert np.all(draws > 0)

    def test_gamma_high_cv_never_draws_zero(self):
        """Tiny gamma shapes can underflow to exact 0.0; draws must stay
        positive so Request construction cannot crash mid-sweep."""
        rng = np.random.default_rng(0)
        draws = np.array([d[0] for d in GammaService(5.0, cv=10.0).sample(200_000, rng)])
        assert np.all(draws > 0)

    def test_gamma_cv_zero_is_fixed(self):
        rng = np.random.default_rng(0)
        draws = GammaService(4.0, cv=0.0).sample(5, rng)
        assert all(d[0] == 4.0 for d in draws)

    def test_lognormal_median(self):
        rng = np.random.default_rng(0)
        draws = np.array([d[0] for d in LognormalService(2.0, sigma=0.8).sample(20000, rng)])
        assert np.median(draws) == pytest.approx(2.0, rel=0.05)

    def test_suite_service_draws_real_workloads(self):
        service = SuiteService(kernels=("sobel", "kmeans"))
        rng = np.random.default_rng(1)
        draws = service.sample(50, rng)
        kernels = {d[1] for d in draws}
        assert kernels <= {"sobel", "kmeans"}
        assert all(d[0] > 0 for d in draws)
        assert all(d[2] in "ABCD" for d in draws)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedService(0.0)
        with pytest.raises(ValueError):
            GammaService(-1.0)
        with pytest.raises(ValueError):
            LognormalService(1.0, sigma=-0.1)
        with pytest.raises(ValueError):
            SuiteService(weights=(1.0, -1.0))
        with pytest.raises(ValueError):
            SuiteService(weights=(0.0, 0.0))

    def test_suite_service_wrong_weight_count_fails_at_construction(self):
        """A weights tuple that doesn't match the suite table fails fast,
        not deep inside a sweep worker on the first sample."""
        with pytest.raises(ValueError, match="suite entries"):
            SuiteService(kernels=("sobel",), weights=(1.0, 2.0))


class TestGenerateRequests:
    def test_request_fields_and_order(self):
        requests = generate_requests(
            PoissonArrivals(1.0), FixedService(2.0), 50, seed=4
        )
        assert len(requests) == 50
        assert [r.index for r in requests] == list(range(50))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(r.sustained_time_s == 2.0 for r in requests)

    def test_seed_reproducibility(self):
        a = generate_requests(PoissonArrivals(1.0), GammaService(3.0), 30, seed=8)
        b = generate_requests(PoissonArrivals(1.0), GammaService(3.0), 30, seed=8)
        assert a == b

    def test_service_model_does_not_perturb_arrivals(self):
        """Arrival and demand streams are split from the seed independently."""
        a = generate_requests(PoissonArrivals(1.0), FixedService(1.0), 30, seed=8)
        b = generate_requests(PoissonArrivals(1.0), GammaService(3.0, cv=1.0), 30, seed=8)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(index=0, arrival_s=-1.0, sustained_time_s=1.0)
        with pytest.raises(ValueError):
            Request(index=0, arrival_s=0.0, sustained_time_s=0.0)
        with pytest.raises(ValueError):
            generate_requests(PoissonArrivals(1.0), FixedService(1.0), 0)


ALL_SERVICES = [
    FixedService(2.0),
    GammaService(3.0, cv=0.0),
    GammaService(3.0, cv=1.5),
    LognormalService(2.0, sigma=0.8),
    SuiteService(kernels=("sobel", "kmeans")),
]

CHUNK_SIZES = [1, 7, 64, 1000]


class TestBlockDeterminism:
    """Chunked block pre-generation is bit-identical to the scalar stream.

    The batched engine fast path consumes pre-generated numpy blocks; these
    properties are what make that safe — any chunk size must reproduce the
    whole-``n`` draw exactly, so streaming a workload never changes it.
    """

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_arrival_blocks_match_scalar_sample(self, process, chunk):
        n = 500
        whole = process.sample(n, np.random.default_rng(11))
        blocks = list(process.sample_blocks(n, np.random.default_rng(11), chunk))
        assert all(b.size <= chunk for b in blocks)
        assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_arrival_blocks_cover_exactly_n(self, process):
        blocks = list(process.sample_blocks(333, np.random.default_rng(2), 100))
        assert sum(b.size for b in blocks) == 333

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("service", ALL_SERVICES, ids=lambda s: type(s).__name__)
    def test_service_block_chunks_match_whole_draw(self, service, chunk):
        n = 500
        whole, _, _ = service.sample_block(n, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        pieces = [
            service.sample_block(min(chunk, n - start), rng)[0]
            for start in range(0, n, chunk)
        ]
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("service", ALL_SERVICES, ids=lambda s: type(s).__name__)
    def test_service_block_matches_scalar_sample(self, service):
        n = 200
        scalar = service.sample(n, np.random.default_rng(3))
        demands, kernels, labels = service.sample_block(n, np.random.default_rng(3))
        assert np.array_equal(demands, np.array([d[0] for d in scalar]))
        for i in range(n):
            kernel = kernels if isinstance(kernels, str) else kernels[i]
            label = labels if isinstance(labels, str) else labels[i]
            assert kernel == scalar[i][1]
            assert label == scalar[i][2]

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_request_blocks_match_generate_requests(self, chunk):
        scalar = generate_requests(
            PoissonArrivals(0.8),
            GammaService(2.0, cv=1.0),
            n=400,
            seed=21,
            deadline_s=9.0,
        )
        blocks = generate_request_blocks(
            PoissonArrivals(0.8),
            GammaService(2.0, cv=1.0),
            n=400,
            seed=21,
            deadline_s=9.0,
            chunk_size=chunk,
        )
        streamed = [r for block in blocks for r in block.to_requests()]
        assert streamed == scalar

    def test_request_blocks_preserve_suite_metadata(self):
        scalar = generate_requests(
            DeterministicArrivals(1.0), SuiteService(), n=60, seed=5
        )
        blocks = generate_request_blocks(
            DeterministicArrivals(1.0), SuiteService(), n=60, seed=5, chunk_size=17
        )
        streamed = [r for block in blocks for r in block.to_requests()]
        assert streamed == scalar
        assert {r.kernel for r in streamed} == {r.kernel for r in scalar}

    def test_request_blocks_validation(self):
        with pytest.raises(ValueError):
            list(generate_request_blocks(PoissonArrivals(1.0), FixedService(1.0), 0))


def _reference_diurnal_sample(process, n, rng):
    """The original scalar thinning loop, kept as the bit-identity reference."""
    peak = process.base_rate_hz * (1.0 + process.amplitude)
    times = np.empty(n)
    count = 0
    t = 0.0
    while count < n:
        t += rng.exponential(1.0 / peak)
        if rng.uniform() * peak <= process.rate_at(t):
            times[count] = t
            count += 1
    return times


class TestDiurnalThinning:
    """The locally bound thinning loop draws exactly what the scalar one did."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7919])
    @pytest.mark.parametrize(
        "process",
        [
            DiurnalArrivals(200.0, amplitude=0.8, period_s=600.0),
            DiurnalArrivals(0.5, amplitude=0.0, period_s=60.0),
            DiurnalArrivals(3.0, amplitude=0.95, period_s=86_400.0, peak_at_s=1234.5),
        ],
        ids=["dc", "flat", "offset"],
    )
    def test_matches_reference_loop(self, process, seed):
        reference = _reference_diurnal_sample(process, 3_000, np.random.default_rng(seed))
        whole = process.sample(3_000, np.random.default_rng(seed))
        blocks = np.concatenate(
            list(process.sample_blocks(3_000, np.random.default_rng(seed), 700))
        )
        assert np.array_equal(whole, reference)
        assert np.array_equal(blocks, reference)
