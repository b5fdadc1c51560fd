"""Golden regression lock for the scenario sweep: every cell, bit for bit.

:mod:`tests.test_traffic_golden` pins one frozen scenario; this module
pins the *sweep* layer on top of it — grid enumeration order, the
redundant-cell collapse rules, per-cell request and dispatch seeding, and
the replication seed universes.  Each grid below is run end to end and
every numeric :class:`~repro.traffic.metrics.TrafficSummary` field of every
cell and replicate is compared against the committed fixture as
``float.hex`` (exact), keyed by cell index and a semantic label, so a
refactor that reorders cells, re-keys a stream, or perturbs one bit of a
summary fails loudly here.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python tests/test_traffic_sweep_golden.py

then commit the updated fixture alongside the change that justified it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.traffic import (
    DeterministicArrivals,
    DiurnalArrivals,
    FixedService,
    GammaService,
    GovernorSpec,
    MMPPArrivals,
    PoissonArrivals,
    Scenario,
    TopologySpec,
)
from repro.traffic.sweep import SweepSpec, run_sweep

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sweep_cells.json"

CONFIG = SystemConfig.paper_default()

#: Arrival families the grids sweep, each built from its mean rate.
_FAMILIES = {
    "poisson": PoissonArrivals,
    "bursty": MMPPArrivals.bursty_at_rate,
    "diurnal": lambda rate: DiurnalArrivals(rate, amplitude=0.8, period_s=600.0),
    "deterministic": lambda rate: DeterministicArrivals(1.0 / rate),
}


def _arrivals(kind: str, rates: tuple[float, ...]) -> tuple:
    """An ``arrivals`` axis of one family at the given mean rates."""
    return tuple(_FAMILIES[kind](rate) for rate in rates)


def _service(cv: float):
    return GammaService(mean_s=5.0, cv=cv) if cv > 0 else FixedService(5.0)


def _base(n_requests: int, cv: float, **options) -> Scenario:
    return Scenario(
        arrivals=PoissonArrivals(1.0),
        service=_service(cv),
        n_requests=n_requests,
        **options,
    )


def golden_grids() -> dict[str, SweepSpec]:
    """The frozen grids (never change without regenerating the fixture)."""
    topology = TopologySpec.uniform(1, 2, 2, rack_governor=GovernorSpec.greedy(1))
    governed_axes = (
        ("policy", ("least_loaded",)),
        ("arrivals", _arrivals("poisson", (0.6,))),
        ("n_devices", (3,)),
        (
            "governor",
            (
                GovernorSpec(),
                GovernorSpec.greedy(1),
                GovernorSpec.token_bucket(0.05, 3),
            ),
        ),
        ("thermal", ("linear", "rc", "pcm")),
    )
    replicated_axes = (
        ("policy", ("round_robin", "random")),
        ("arrivals", _arrivals("poisson", (0.2, 0.5))),
        ("n_devices", (2,)),
    )
    return {
        "dispatch": SweepSpec(
            _base(30, 1.0, deadline_s=15.0, slo_s=2.0),
            axes=(
                ("policy", ("round_robin", "random", "least_loaded")),
                ("arrivals", _arrivals("poisson", (0.3, 0.9))),
                ("n_devices", (2, 3)),
                ("mode", ("immediate", "central_queue")),
                ("discipline", ("fifo", "edf")),
                ("queue_bound", (None, 2)),
            ),
            base_seed=11,
        ),
        "governed": SweepSpec(
            _base(40, 0.5, slo_s=2.0), axes=governed_axes, base_seed=3
        ),
        "governed_no_sprint": SweepSpec(
            _base(40, 0.5, slo_s=2.0, sprint_enabled=False),
            axes=governed_axes,
            base_seed=3,
        ),
        "topology": SweepSpec(
            _base(40, 0.5, policy="round_robin"),
            axes=(
                ("arrivals", _arrivals("poisson", (0.5,))),
                ("n_devices", (4, 8)),
                ("governor", (GovernorSpec(), GovernorSpec.greedy(2))),
                ("topology", (None, topology)),
            ),
            base_seed=5,
        ),
        "bursty": SweepSpec(
            _base(40, 0.8, n_devices=2),
            axes=(("arrivals", _arrivals("bursty", (0.2, 0.4))),),
            base_seed=2,
        ),
        "diurnal": SweepSpec(
            _base(40, 0.8, n_devices=2),
            axes=(("arrivals", _arrivals("diurnal", (0.2, 0.4))),),
            base_seed=2,
        ),
        "replicated_crn": SweepSpec(
            _base(25, 1.0),
            axes=replicated_axes,
            replications=3,
            pairing="crn",
            base_seed=9,
        ),
        "replicated_independent": SweepSpec(
            _base(25, 1.0),
            axes=replicated_axes,
            replications=3,
            pairing="independent",
            base_seed=9,
        ),
        "deterministic": SweepSpec(
            _base(20, 0.0, n_devices=2),
            axes=(
                ("policy", ("round_robin", "random")),
                ("arrivals", _arrivals("deterministic", (0.2,))),
                ("mode", ("immediate", "central_queue")),
            ),
            replications=3,
            base_seed=4,
        ),
    }


def cell_label(spec: SweepSpec, cell) -> str:
    """A human-readable, API-independent description of one cell."""
    s = cell.scenario
    if s.mode == "immediate":
        dispatch = f"immediate:{s.policy}"
    else:
        bound = "inf" if s.queue_bound is None else str(s.queue_bound)
        dispatch = f"{s.discipline}[{bound}]"
    topology = "flat" if s.topology is None else f"{s.topology.n_racks}r"
    return (
        f"{dispatch} rate={s.arrivals.mean_rate_hz()!r} n={s.n_devices} "
        f"gov={s.governor.label} th={s.thermal.label} topo={topology} "
        f"sprint={s.sprint_enabled}"
    )


def _exact(value):
    """JSON form of one summary field: floats as ``float.hex`` (bit-exact)."""
    if isinstance(value, float):
        return value.hex()
    return value


def compute_grid(spec: SweepSpec) -> list[dict]:
    result = run_sweep(spec, CONFIG)
    return [
        {
            "index": r.cell.index,
            "label": cell_label(spec, r.cell),
            "replicates": [
                {k: _exact(v) for k, v in s.to_dict().items()} for s in r.summaries
            ],
        }
        for r in result.cells
    ]


def compute_all() -> dict[str, list[dict]]:
    return {name: compute_grid(spec) for name, spec in golden_grids().items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_grid(golden):
    assert set(golden) == set(golden_grids())


@pytest.mark.parametrize("name", sorted(golden_grids()))
def test_sweep_grid_is_bit_identical(golden, name):
    expected = golden[name]
    current = compute_grid(golden_grids()[name])
    assert [(c["index"], c["label"]) for c in current] == [
        (c["index"], c["label"]) for c in expected
    ], "grid enumeration (cell order or collapse) drifted"
    for want, got in zip(expected, current):
        assert len(got["replicates"]) == len(want["replicates"]), want["label"]
        for rep, (w, g) in enumerate(zip(want["replicates"], got["replicates"])):
            drifted = {k: (w[k], g.get(k)) for k in w if g.get(k) != w[k]}
            assert not drifted, (
                f"{name} cell {want['index']} ({want['label']}) replicate {rep} "
                f"drifted from the golden fixture: {drifted}\nIf the change is "
                "intentional, regenerate with "
                "`PYTHONPATH=src python tests/test_traffic_sweep_golden.py`."
            )


def test_fixture_exercises_the_collapse_rules(golden):
    """The grids keep guarding every redundant-cell collapse."""
    # 3 policies x 2 rates x 2 sizes immediate cells (bound ignored) plus
    # 2 disciplines x 2 rates x 2 sizes x 2 bounds central cells (policy
    # ignored).
    assert len(golden["dispatch"]) == 12 + 16
    assert len(golden["governed"]) == 9
    assert len(golden["governed_no_sprint"]) == 1
    # Flat cells keep size x governor; the topology cell collapses both.
    assert len(golden["topology"]) == 4 + 1
    reps = [len(c["replicates"]) for c in golden["deterministic"]]
    # Only the random immediate cell has randomness left to replicate (the
    # central cell ignores the policy axis, so random-fifo collapses).
    assert reps == [1, 1, 3]
    assert all(len(c["replicates"]) == 3 for c in golden["replicated_crn"])


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
