"""Tests for the parallel scenario sweep engine."""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.thermal_backend import ThermalSpec
from repro.traffic import (
    DeterministicArrivals,
    DiurnalArrivals,
    FixedService,
    GammaService,
    MMPPArrivals,
    PoissonArrivals,
    Scenario,
)
from repro.traffic.governor import GovernorSpec
from repro.traffic.sweep import (
    CellResult,
    SweepSpec,
    _cell_seeds,
    expand_cells,
    run_cell,
    run_sweep,
)

CONFIG = SystemConfig.paper_default()


def poisson(*rates):
    return tuple(PoissonArrivals(rate) for rate in rates)


def base(**options):
    options.setdefault("arrivals", PoissonArrivals(0.1))
    options.setdefault("service", FixedService(5.0))
    options.setdefault("n_requests", 25)
    return Scenario(**options)


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(
        base(slo_s=2.0),
        axes=(
            ("policy", ("round_robin", "least_loaded")),
            ("arrivals", poisson(0.05, 0.2)),
            ("n_devices", (1, 2)),
        ),
        base_seed=7,
    )


class TestGridExpansion:
    def test_cell_count_and_order(self, small_spec):
        cells = expand_cells(small_spec)
        assert len(cells) == 8
        assert [c.index for c in cells] == list(range(8))
        assert cells[0].scenario.policy == "round_robin"
        assert cells[-1].scenario.policy == "least_loaded"

    def test_cells_are_base_with_overrides(self, small_spec):
        cells = expand_cells(small_spec)
        expected = [
            small_spec.base.with_options(policy=p, arrivals=a, n_devices=n)
            for p in ("round_robin", "least_loaded")
            for a in poisson(0.05, 0.2)
            for n in (1, 2)
        ]
        assert [c.scenario for c in cells] == expected

    def test_spec_without_axes_is_the_base_cell(self):
        spec = SweepSpec(base())
        (cell,) = expand_cells(spec)
        assert cell.scenario == spec.base
        assert cell.stream_key == (0,)

    def test_stream_key_depends_only_on_arrivals(self, small_spec):
        """Cells differing in policy or fleet size must replay the same
        request stream; only the arrival process changes it."""
        cells = expand_cells(small_spec)
        by_arrivals = {}
        for cell in cells:
            by_arrivals.setdefault(cell.scenario.arrivals, set()).add(cell.stream_key)
        for keys in by_arrivals.values():
            assert len(keys) == 1
        assert len({keys.pop() for keys in by_arrivals.values()}) == len(by_arrivals)

    def test_stream_key_spans_every_request_stream_axis(self):
        spec = SweepSpec(
            base(),
            axes=(
                ("arrivals", poisson(0.1, 0.2)),
                ("n_devices", (1, 2)),
                ("service", (FixedService(5.0), GammaService(5.0, cv=1.0))),
            ),
        )
        keys = [c.stream_key for c in expand_cells(spec)]
        assert keys == [(0,), (1,), (0,), (1,), (2,), (3,), (2,), (3,)]

    def test_seed_derives_from_base_seed(self, small_spec):
        cell = expand_cells(small_spec)[0]
        other = replace(small_spec, base_seed=99)
        a, _ = _cell_seeds(small_spec, cell, 0)
        b, _ = _cell_seeds(other, cell, 0)
        assert a.entropy != b.entropy

    def test_dispatch_seed_distinguishes_base_seed_from_cell_index(self):
        """The dispatch RNG is seeded from the (base_seed, index) *pair*, so
        swapping the components — which an additive seed would conflate —
        must give a different random-dispatch assignment."""
        from repro.traffic import FleetSimulator, generate_requests

        requests = generate_requests(PoissonArrivals(0.5), FixedService(5.0), 60, seed=1)

        def assignments(seed_pair):
            fleet = FleetSimulator(CONFIG, 8, policy="random")
            result = fleet.run(requests, seed=np.random.SeedSequence(seed_pair))
            return [s.device_id for s in result.served]

        assert assignments([0, 5]) == assignments([0, 5])
        assert assignments([0, 5]) != assignments([5, 0])

    def test_mode_and_bound_axes_expand_the_grid(self, small_spec):
        spec = replace(
            small_spec,
            axes=small_spec.axes
            + (("mode", ("immediate", "central_queue")), ("queue_bound", (None, 4))),
        )
        cells = expand_cells(spec)
        # Redundant combinations are collapsed: immediate cells ignore the
        # bound axis (8 = 2 policies x 2 rates x 2 fleets), central cells
        # ignore the policy axis (8 = 2 rates x 2 fleets x 2 bounds).
        assert len(cells) == 16
        central = [c.scenario for c in cells if c.scenario.mode == "central_queue"]
        immediate = [c.scenario for c in cells if c.scenario.mode == "immediate"]
        assert {s.queue_bound for s in central} == {None, 4}
        assert all(s.queue_bound is None for s in immediate)
        assert {s.policy for s in central} == {"round_robin"}
        assert [c.index for c in cells] == list(range(16))

    def test_discipline_axis_collapses_on_immediate_cells(self):
        spec = SweepSpec(
            base(),
            axes=(
                ("mode", ("immediate", "central_queue")),
                ("discipline", ("fifo", "edf")),
            ),
        )
        modes = [(c.scenario.mode, c.scenario.discipline) for c in expand_cells(spec)]
        assert modes == [
            ("immediate", "fifo"),
            ("central_queue", "fifo"),
            ("central_queue", "edf"),
        ]

    def test_immediate_cells_report_default_queue_fields(self):
        """Immediate cells never read the queue fields, so they report the
        scenario defaults rather than whichever value heads each axis."""
        spec = SweepSpec(
            base(),
            axes=(
                ("mode", ("immediate", "central_queue")),
                ("discipline", ("edf", "fifo")),
                ("queue_bound", (2, None)),
            ),
        )
        cells = [c.scenario for c in expand_cells(spec)]
        immediate = [s for s in cells if s.mode == "immediate"]
        assert [(s.discipline, s.queue_bound) for s in immediate] == [("fifo", None)]
        central = [(s.discipline, s.queue_bound) for s in cells if s.mode != "immediate"]
        assert central == [("edf", 2), ("edf", None), ("fifo", 2), ("fifo", None)]

    def test_duplicate_values_collapse_to_first_occurrence(self):
        spec = SweepSpec(
            base(),
            axes=(
                ("n_devices", (2, 1, 2)),
                # A name and its spec are one value, as the scenario stores it.
                ("thermal", ("linear", "rc", ThermalSpec.rc())),
            ),
        )
        cells = expand_cells(spec)
        assert [(c.scenario.n_devices, c.scenario.thermal.backend) for c in cells] == [
            (2, "linear"),
            (2, "rc"),
            (1, "linear"),
            (1, "rc"),
        ]

    def test_large_grid_expands_in_linear_time(self):
        """A grid of thousands of combinations, most of them collapsing,
        expands in well under a second per thousand cells."""
        spec = SweepSpec(
            base(),
            axes=(
                ("policy", ("round_robin", "random", "least_loaded", "thermal_aware")),
                ("arrivals", poisson(*(0.05 * k for k in range(1, 11)))),
                ("n_devices", tuple(range(1, 9))),
                ("mode", ("immediate", "central_queue")),
                ("discipline", ("fifo", "edf")),
                ("queue_bound", (None, 0, 2, 8)),
                ("sprint_enabled", (True, False)),
            ),
        )
        start = time.perf_counter()
        cells = expand_cells(spec)
        elapsed = time.perf_counter() - start
        # 4 x 10 x 8 immediate cells (x 2 sprint settings), plus
        # 10 x 8 x 2 x 4 central-queue cells (x 2): 640 + 1280.
        assert len(cells) == 1920
        assert elapsed < 2.0


class TestSweepExecution:
    def test_serial_matches_parallel(self, small_spec):
        serial = run_sweep(small_spec, workers=1)
        parallel = run_sweep(small_spec, workers=3)
        assert serial.cells == parallel.cells

    def test_sweep_is_reproducible(self, small_spec):
        assert run_sweep(small_spec).cells == run_sweep(small_spec).cells

    def test_one_device_cells_identical_across_policies(self, small_spec):
        """With a single device every dispatch policy is a no-op, and since the
        request stream is policy-independent the summaries must coincide."""
        result = run_sweep(small_spec)
        for arrivals in poisson(0.05, 0.2):
            summaries = [
                c.summary for c in result.filtered(arrivals=arrivals, n_devices=1)
            ]
            assert len(summaries) == 2
            assert all(s == summaries[0] for s in summaries)

    def test_run_cell_matches_sweep(self, small_spec):
        cells = expand_cells(small_spec)
        direct = run_cell(small_spec, cells[3], CONFIG)
        swept = run_sweep(small_spec, CONFIG).cells[3]
        assert direct == swept

    def test_cell_runs_its_scenario(self, small_spec):
        cell = expand_cells(small_spec)[5]
        request_seed, run_seed = _cell_seeds(small_spec, cell, 0)
        alone = cell.scenario.simulate(CONFIG, request_seed, run_seed)
        assert run_cell(small_spec, cell, CONFIG).summary == alone.summary(slo_s=2.0)

    def test_arrival_families_all_run(self):
        processes = (
            PoissonArrivals(0.1),
            MMPPArrivals.bursty(burst_rate_hz=0.5, mean_burst_s=20.0, mean_idle_s=80.0),
            DiurnalArrivals(0.1, period_s=600.0),
            DeterministicArrivals(10.0),
        )
        spec = SweepSpec(
            base(n_requests=15, n_devices=2), axes=(("arrivals", processes),)
        )
        result = run_sweep(spec)
        assert len(result.cells) == 4
        assert all(c.summary.request_count == 15 for c in result.cells)

    def test_service_axis_changes_demands(self):
        spec = SweepSpec(
            base(n_requests=30),
            axes=(("service", (GammaService(5.0, cv=1.0), FixedService(5.0))),),
        )
        gamma, fixed = run_sweep(spec).cells
        assert gamma.summary != fixed.summary

    def test_central_queue_cells_run_and_report_lifecycle(self):
        spec = SweepSpec(
            base(
                arrivals=PoissonArrivals(1.0),
                n_requests=40,
                n_devices=2,
                mode="central_queue",
                queue_bound=2,
                deadline_s=20.0,
            ),
            axes=(("discipline", ("fifo", "edf")),),
        )
        result = run_sweep(spec)
        assert len(result.cells) == 2
        for cell_result in result.cells:
            s = cell_result.summary
            assert s.offered_count == 40
            assert s.request_count + s.rejected_count + s.abandoned_count == 40
            assert s.rejected_count > 0  # overloaded bounded queue must shed

    def test_deadline_reaches_requests(self):
        spec = SweepSpec(
            base(arrivals=PoissonArrivals(0.5), n_requests=20, deadline_s=1.0)
        )
        result = run_sweep(spec)
        # Immediate mode never abandons, but completion-past-deadline
        # misses are counted.
        assert result.cells[0].summary.deadline_miss_count > 0

    def test_sprint_disabled_sweeps_are_slower(self, small_spec):
        sprint = run_sweep(small_spec)
        sustained = run_sweep(
            replace(small_spec, base=small_spec.base.with_options(sprint_enabled=False))
        )
        mean_sprint = np.mean([c.summary.p50_latency_s for c in sprint.cells])
        mean_sustained = np.mean([c.summary.p50_latency_s for c in sustained.cells])
        assert mean_sprint < mean_sustained


class TestSweepResult:
    def test_filtered(self, small_spec):
        result = run_sweep(small_spec)
        subset = result.filtered(policy="round_robin", n_devices=2)
        assert len(subset) == 2
        assert all(c.cell.scenario.policy == "round_robin" for c in subset)
        with pytest.raises(ValueError, match="unknown scenario fields"):
            result.filtered(fleet_size=2)

    def test_filtered_matches_names_as_the_scenario_stores_them(self):
        spec = SweepSpec(
            base(n_requests=10),
            axes=(
                ("thermal", ("linear", "rc")),
                ("governor", ("unlimited", GovernorSpec.greedy(1))),
            ),
        )
        result = run_sweep(spec)
        rc = result.filtered(thermal="rc")
        assert len(rc) == 2
        assert all(c.cell.scenario.thermal == ThermalSpec.rc() for c in rc)
        assert result.filtered(thermal="rc", governor="unlimited") == [
            c for c in rc if c.cell.scenario.governor == GovernorSpec()
        ]

    def test_best_cell(self, small_spec):
        result = run_sweep(small_spec)
        best = result.best_cell("p99_latency_s")
        assert isinstance(best, CellResult)
        assert best.summary.p99_latency_s == min(
            c.summary.p99_latency_s for c in result.cells
        )

    def test_format_table(self, small_spec):
        table = run_sweep(small_spec).format_table()
        assert "dispatch" in table
        assert "rej" in table
        assert "0.200/s" in table
        assert len(table.splitlines()) == 9


class TestValidation:
    def test_spec_validation(self):
        with pytest.raises(TypeError):
            SweepSpec(base=None)
        with pytest.raises(ValueError, match="at least one value"):
            SweepSpec(base(), axes=(("policy", ()),))
        with pytest.raises(ValueError, match="unknown scenario fields"):
            SweepSpec(base(), axes=(("fleet_sizes", (1, 2)),))
        with pytest.raises(ValueError, match="one axis"):
            SweepSpec(base(), axes=(("n_devices", (1,)), ("n_devices", (2,))))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("policy", "nope"),
            ("mode", "fluid"),
            ("discipline", "lifo"),
            ("queue_bound", -1),
            ("n_devices", 0),
            ("n_requests", 0),
            ("deadline_s", 0.0),
            ("slo_s", 0.0),
            ("sprint_speedup", 0.5),
            ("engine", "warp"),
        ],
    )
    def test_axis_values_validate_as_scenarios(self, field, value):
        """Every cell is a Scenario, so a bad axis value fails at spec
        construction — never inside a worker process."""
        with pytest.raises(ValueError):
            SweepSpec(base(mode="central_queue"), axes=((field, (value,)),))

    def test_worker_validation(self, small_spec):
        with pytest.raises(ValueError):
            run_sweep(small_spec, workers=0)

    def test_replication_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(base(), replications=0)
        with pytest.raises(ValueError):
            SweepSpec(base(), pairing="antithetic")


class TestReplicationAxis:
    """The replications/pairing axis and its seed-stream determinism."""

    @pytest.fixture(scope="class")
    def replicated_spec(self):
        return SweepSpec(
            base(n_requests=20, service=GammaService(5.0, cv=0.8), slo_s=2.0),
            axes=(("arrivals", poisson(0.1, 0.3)), ("n_devices", (2,))),
            base_seed=5,
            replications=3,
        )

    @staticmethod
    def with_sizes(spec, *sizes, **changes):
        axes = tuple(a for a in spec.axes if a[0] != "n_devices")
        return replace(spec, axes=axes + (("n_devices", sizes),), **changes)

    def test_single_replication_sweep_replays_the_single_run_streams(self, small_spec):
        """``replications=1`` replays exactly the single-run streams."""
        single = run_sweep(small_spec, CONFIG)
        for result in single.cells:
            rerun = run_cell(small_spec, result.cell, CONFIG, replication=0)
            assert rerun.summary == result.summary
            assert result.replicates == ()
            assert not result.collapsed

    def test_cells_carry_all_replicates(self, replicated_spec):
        result = run_sweep(replicated_spec, CONFIG)
        for cell_result in result.cells:
            assert len(cell_result.summaries) == 3
            assert cell_result.summary == cell_result.summaries[0]
            estimate = cell_result.estimate("p99_latency_s")
            assert estimate.n == 3
            assert estimate.half_width >= 0.0

    def test_serial_matches_parallel_with_replications(self, replicated_spec):
        """The determinism satellite: seed streams are pool-size independent."""
        serial = run_sweep(replicated_spec, CONFIG, workers=1)
        pooled = run_sweep(replicated_spec, CONFIG, workers=3)
        assert serial == pooled

    def test_serial_matches_parallel_with_independent_pairing(self, replicated_spec):
        spec = replace(replicated_spec, pairing="independent")
        assert run_sweep(spec, CONFIG, workers=1) == run_sweep(spec, CONFIG, workers=3)

    def test_crn_pairs_cells_per_replication(self, replicated_spec):
        """Under CRN, cells differing only in fleet size share request
        streams replication by replication — offered counts match."""
        spec = self.with_sizes(replicated_spec, 1, 2)
        result = run_sweep(spec, CONFIG)
        for arrivals in poisson(0.1, 0.3):
            cells = result.filtered(arrivals=arrivals)
            assert len(cells) == 2
            for a, b in zip(cells[0].summaries, cells[1].summaries):
                assert a.offered_count == b.offered_count

    def test_independent_pairing_decouples_cells(self, replicated_spec):
        """Independent seeding gives each cell its own replication streams
        — every replication, including 0; makespans (a fingerprint of the
        arrival draw) diverge pairwise."""
        spec = self.with_sizes(replicated_spec, 1, 2, pairing="independent")
        result = run_sweep(spec, CONFIG)
        cells = result.filtered(arrivals=PoissonArrivals(0.1))
        paired_makespans = [
            (a.makespan_s, b.makespan_s)
            for a, b in zip(cells[0].summaries, cells[1].summaries)
        ]
        assert all(a != b for a, b in paired_makespans)

    def test_replication_seed_universes_never_collide(self, replicated_spec):
        """Request and dispatch streams stay disjoint even where
        cell.index equals a stream-key word (cell 0 at stream 0), and
        dispatch streams are unique per (cell, replication).  Request
        streams may be shared across cells — that is what CRN pairing
        means — but never with a dispatch stream."""
        for pairing in ("crn", "independent"):
            spec = self.with_sizes(replicated_spec, 1, 2, pairing=pairing)
            requests_seen, dispatch_seen = set(), set()
            for cell in expand_cells(spec):
                for r in range(spec.replications):
                    request_seed, run_seed = _cell_seeds(spec, cell, r)
                    req, run = tuple(request_seed.entropy), tuple(run_seed.entropy)
                    if pairing == "crn" and r == 0:
                        # Replication 0 under CRN replays the single-run
                        # streams, whose keys may coincide where
                        # cell.index == stream key (benign: the request
                        # side spawns child streams before drawing, and the
                        # scheme is frozen by bit-identity locks).
                        continue
                    assert req != run
                    assert run not in dispatch_seen
                    dispatch_seen.add(run)
                    requests_seen.add(req)
            assert not requests_seen & dispatch_seen
            if pairing == "independent":
                # Every (cell, replication) draws its own request stream.
                n_cells = len(expand_cells(spec))
                assert len(requests_seen) == n_cells * spec.replications

    def test_deterministic_cells_collapse(self):
        spec = SweepSpec(
            base(arrivals=DeterministicArrivals(10.0), n_requests=10, n_devices=2),
            axes=(("policy", ("round_robin", "random")),),
            replications=4,
            base_seed=3,
        )
        result = run_sweep(spec, CONFIG)
        by_policy = {r.cell.scenario.policy: r for r in result.cells}
        # Deterministic arrivals + fixed service: only the random policy
        # still consumes randomness, so only it replicates.
        assert by_policy["round_robin"].collapsed
        assert len(by_policy["round_robin"].summaries) == 1
        assert by_policy["round_robin"].estimate("p99_latency_s").half_width == 0.0
        assert not by_policy["random"].collapsed
        assert len(by_policy["random"].summaries) == 4

    def test_format_table_reports_ci_column(self, replicated_spec):
        table = run_sweep(replicated_spec, CONFIG).format_table()
        assert "±95%" in table

    def test_estimate_rejects_unset_fields(self, replicated_spec):
        spec = replace(replicated_spec, base=replicated_spec.base.with_options(slo_s=None))
        result = run_sweep(spec, CONFIG)
        with pytest.raises(ValueError):
            result.cells[0].estimate("slo_attainment")
