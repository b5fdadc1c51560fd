"""Smoke tests: every examples/*.py main path runs, with shrunk parameters.

Each example is loaded from its file path (examples/ is not a package) and
its module-level sweep constants are monkeypatched down so the whole suite
stays fast; the point is that every example's main path executes against
the current API, so examples cannot silently rot.  A completeness check
fails if a new example is added without a smoke test here.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

import repro.workloads.suite as suite_module
from repro.experiments import fig06_activation, fig08_sobel

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Example stem -> the marker its output must contain after running main().
COVERED = {
    "quickstart": "configuration",
    "bursty_workload": "minimum spacing",
    "camera_search": "keypoints",
    "sprint_policy_study": "sprint intensity",
    "thermal_design_space": "heat store",
    "fleet_serving": "degenerate case",
    "power_budget_study": "concurrency cap",
    "thermal_fidelity_study": "melt plateau",
    "replication_study": "error bars",
    "telemetry_study": "pooled p99",
    "reproduce_paper": "EXPERIMENTS",
    "fast_path_study": "vector core",
    "topology_study": "grant cascade",
}


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


@pytest.fixture
def tiny_kernel_suite(monkeypatch):
    """Shrink every Table 1 input class to 0.05 MP.

    ``KernelWorkloadFamily`` clamps missing class labels to the largest
    available one, so code asking for class B/C/D transparently gets the
    tiny class A and the real simulation paths still execute.
    """
    monkeypatch.setattr(
        suite_module,
        "INPUT_CLASSES",
        {name: {"A": 0.05} for name in suite_module.INPUT_CLASSES},
    )


@pytest.fixture
def single_activation_schedule(monkeypatch):
    """Simulate only one PDN activation transient instead of all three."""
    monkeypatch.setattr(
        fig06_activation,
        "run",
        functools.partial(
            fig06_activation.run, schedules=fig06_activation.PAPER_SCHEDULES[-1:]
        ),
    )


def test_every_example_has_a_smoke_test():
    names = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert names == set(COVERED), "examples/ and COVERED are out of sync"


def test_quickstart(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert COVERED["quickstart"] in out
    assert "16-core parallel sprint" in out


def test_bursty_workload(capsys, monkeypatch):
    module = load_example("bursty_workload")
    monkeypatch.setattr(module, "TASKS", 6)
    module.main()
    out = capsys.readouterr().out
    assert COVERED["bursty_workload"] in out
    assert "constrained design" in out


def test_camera_search(capsys, monkeypatch):
    module = load_example("camera_search")
    monkeypatch.setattr(module, "RESOLUTIONS_MP", (0.3,))
    module.main()
    out = capsys.readouterr().out
    assert COVERED["camera_search"] in out
    assert "0.3MP" in out.replace(" ", "")


def test_sprint_policy_study(capsys, monkeypatch, tiny_kernel_suite):
    module = load_example("sprint_policy_study")
    monkeypatch.setattr(module, "SPRINT_CORE_COUNTS", (16,))
    module.main()
    out = capsys.readouterr().out
    assert COVERED["sprint_policy_study"] in out
    assert "budget estimator" in out


def test_thermal_design_space(capsys, monkeypatch, single_activation_schedule):
    module = load_example("thermal_design_space")
    monkeypatch.setattr(module, "PCM_MASSES_G", (0.150,))
    monkeypatch.setattr(module, "MELTING_POINTS_C", (55.0,))
    module.main()
    out = capsys.readouterr().out
    assert COVERED["thermal_design_space"] in out
    assert "melting point" in out


def test_fleet_serving(capsys, monkeypatch):
    module = load_example("fleet_serving")
    monkeypatch.setattr(module, "REQUESTS", 60)
    monkeypatch.setattr(module, "ARRIVAL_RATES_HZ", (0.05, 0.2))
    monkeypatch.setattr(module, "SWEEP_WORKERS", 2)
    monkeypatch.setattr(module, "REPLICATIONS", 5)
    module.main()
    out = capsys.readouterr().out
    assert COVERED["fleet_serving"] in out
    assert "MATCH" in out
    assert "error bars" in out
    assert "sign test p=" in out
    assert "best p99" in out
    assert "admission control BEATS immediate dispatch" in out
    assert "deadlines at overload" in out


def test_power_budget_study(capsys, monkeypatch):
    module = load_example("power_budget_study")
    monkeypatch.setattr(module, "REQUESTS", 60)
    monkeypatch.setattr(module, "BURSTY_REQUESTS", 60)
    monkeypatch.setattr(module, "SPRINT_CAPS", (1, 16))
    monkeypatch.setattr(module, "SWEEP_WORKERS", 2)
    monkeypatch.setattr(module, "REPLICATIONS", 5)
    module.main()
    out = capsys.readouterr().out
    assert COVERED["power_budget_study"] in out
    assert "breaker" in out
    assert "burst credit" in out
    assert "governor grid" in out
    assert "governance error bars" in out
    assert "sign test p=" in out


def test_replication_study(capsys, monkeypatch):
    module = load_example("replication_study")
    monkeypatch.setattr(module, "REQUESTS", 40)
    monkeypatch.setattr(module, "REPLICATIONS", 6)
    monkeypatch.setattr(module, "MAX_REPLICATIONS", 10)
    monkeypatch.setattr(module, "WORKERS", 2)
    # The CRN-beats-independent claim is asserted *inside* the example, so
    # this smoke test also covers the acceptance criterion at shrunk scale.
    module.main()
    out = capsys.readouterr().out
    assert COVERED["replication_study"] in out
    assert "CRN variance reduction" in out
    assert "CRN pairing cuts the p99-delta CI half-width" in out
    assert "sequential stopping" in out
    assert "stopped after" in out


def test_telemetry_study(capsys, monkeypatch):
    module = load_example("telemetry_study")
    monkeypatch.setattr(module, "LONG_HORIZON_REQUESTS", 2_000)
    monkeypatch.setattr(module, "REPLICATIONS", 4)
    monkeypatch.setattr(module, "WORKERS", 2)
    module.main()
    out = capsys.readouterr().out
    assert COVERED["telemetry_study"] in out
    assert "flat memory" in out
    assert "rank-error bound" in out
    assert "conservation holds" in out
    assert "ring kept" in out
    assert "no samples ever held" in out


def test_thermal_fidelity_study(capsys, monkeypatch):
    module = load_example("thermal_fidelity_study")
    monkeypatch.setattr(module, "REQUESTS", 60)
    monkeypatch.setattr(module, "ARRIVAL_RATES_HZ", (0.2, 0.8))
    monkeypatch.setattr(module, "SWEEP_WORKERS", 2)
    module.main()
    out = capsys.readouterr().out
    assert COVERED["thermal_fidelity_study"] in out
    assert "holds full sprint capacity through the melt plateau" in out
    assert "cooldown fidelity" in out
    assert "linear err" in out
    assert "thermal grid" in out


def test_fast_path_study(capsys, monkeypatch):
    module = load_example("fast_path_study")
    monkeypatch.setattr(module, "CURVE_DEVICES", 32)
    monkeypatch.setattr(module, "CURVE_SIZES", (2_000,))
    monkeypatch.setattr(module, "IDENTITY_REQUESTS", 400)
    module.main()
    out = capsys.readouterr().out
    assert COVERED["fast_path_study"] in out
    assert "bit-identical" in out
    assert "exact loop: policy 'thermal_aware'" in out
    assert "speedup is batched vs exact" in out


def test_topology_study(capsys, monkeypatch):
    module = load_example("topology_study")
    monkeypatch.setattr(module, "REQUESTS", 80)
    monkeypatch.setattr(module, "SHARD_WORKERS", 2)
    module.main()
    out = capsys.readouterr().out
    assert COVERED["topology_study"] in out
    assert "heterogeneous racks" in out
    assert "breaker trips by level" in out
    assert "summaries identical: True" in out


def test_reproduce_paper(
    capsys, monkeypatch, tmp_path, tiny_kernel_suite, single_activation_schedule
):
    real_fig08_run = fig08_sobel.run
    # The report passes megapixels= explicitly, so a partial() default would
    # be overridden; force the tiny sweep regardless of the caller's choice.
    monkeypatch.setattr(
        fig08_sobel,
        "run",
        lambda *args, **kwargs: real_fig08_run(
            *args, **{**kwargs, "megapixels": (0.5,)}
        ),
    )
    module = load_example("reproduce_paper")
    output = tmp_path / "report.md"
    assert module.main(["--quick", "--output", str(output)]) == 0
    out = capsys.readouterr().out
    assert COVERED["reproduce_paper"] in out
    assert "Figure 11" in out
    report = output.read_text()
    assert report.startswith("# EXPERIMENTS")
