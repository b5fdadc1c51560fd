"""Golden regression lock for the paper pipeline: ``repro.arch`` bit for bit.

The traffic golden (``test_traffic_golden.py``) pins the serving stack;
this file pins the execution engine that every paper figure runs on.  A
frozen set of runs stores ``float.hex`` of each headline number, so a
change to the engine's arithmetic — even one that reorders a product —
fails here instead of silently shifting Figures 7-11.

The runs cross the engine's moving parts:

* ``texture`` and ``segment`` through :class:`SprintSimulation`: the
  single-core baseline at a 2 ms quantum, and parallel and DVFS sprints on
  the 150 mg and 1.5 mg packages (the 1.5 mg sprints are truncated, so
  sprint termination and migration to one core are exercised);
* ``feature`` and ``disparity`` through :class:`ManyCoreSimulator` at 1,
  16 and 64 cores with 1x and 2x memory bandwidth (the bandwidth-saturated
  path of Section 8.5);
* one :class:`ExecutionEngine` shrunk from 16 cores to 1 mid-run, which
  exercises the migration stall and thread multiplexing.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python tests/test_paper_golden.py

then commit the updated fixture alongside the change that justified it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.arch.machine import PAPER_MACHINE
from repro.arch.simulator import ExecutionEngine, ManyCoreSimulator
from repro.core.config import SystemConfig
from repro.core.simulation import SprintSimulation
from repro.workloads.suite import kernel_suite

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_paper_runs.json"


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _sprint_runs() -> dict[str, dict]:
    suite = kernel_suite()
    full = SprintSimulation(SystemConfig.paper_default())
    small = SprintSimulation(SystemConfig.small_pcm())
    runs = {}
    for name in ("texture", "segment"):
        workload = suite[name].workload()
        results = {
            "baseline": full.run_baseline(workload, quantum_s=2e-3),
            "parallel_150mg": full.run(workload),
            "parallel_1.5mg": small.run(workload),
            "dvfs_150mg": full.run_dvfs_sprint(workload),
            "dvfs_1.5mg": small.run_dvfs_sprint(workload),
        }
        for label, result in results.items():
            runs[f"sprint/{name}/{label}"] = {
                "total_time_s": _hex(result.total_time_s),
                "total_energy_j": _hex(result.total_energy_j),
                "peak_junction_c": _hex(result.peak_junction_c),
                "sprint_completion_fraction": _hex(result.sprint_completion_fraction),
                "sprint_exhausted_at_s": _hex(result.sprint_exhausted_at_s),
                "quanta": len(result.execution_trace),
            }
    return runs


def _many_core_runs() -> dict[str, dict]:
    suite = kernel_suite()
    runs = {}
    for scale in (1.0, 2.0):
        simulator = ManyCoreSimulator(PAPER_MACHINE.with_memory_bandwidth_scale(scale))
        for name in ("feature", "disparity"):
            workload = suite[name].workload()
            for cores in (1, 16, 64):
                result = simulator.run(workload, cores=cores)
                runs[f"many_core/{name}/{cores}c/{scale:g}x_bw"] = {
                    "total_time_s": _hex(result.total_time_s),
                    "total_energy_j": _hex(result.total_energy_j),
                    "total_instructions": _hex(result.total_instructions),
                    "quanta": len(result.trace),
                }
    return runs


def _shrunk_engine_run() -> dict[str, dict]:
    """16 cores for 5 quanta, then migrate every thread onto one core."""
    engine = ExecutionEngine(kernel_suite()["sobel"].workload(), n_threads=16)
    engine.set_active_cores(16)
    for _ in range(5):
        engine.advance(1e-3)
    stall = engine.set_active_cores(1)
    while not engine.done:
        engine.advance(1e-3)
    trace = engine.trace
    return {
        "engine/sobel/16c_to_1c": {
            "total_time_s": _hex(engine.time_s),
            "total_energy_j": _hex(trace.total_energy_j),
            "total_instructions": _hex(trace.total_instructions),
            "migration_stall_s": _hex(stall),
            "quanta": len(trace),
        }
    }


def compute_runs() -> dict[str, dict]:
    return {**_sprint_runs(), **_many_core_runs(), **_shrunk_engine_run()}


def test_paper_runs_are_bit_identical():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_runs()
    assert set(current) == set(golden), "set of golden paper runs changed"
    drifted = {
        run: (golden[run], current[run])
        for run in golden
        if current[run] != golden[run]
    }
    assert not drifted, (
        "paper runs drifted from the golden fixture (bit-exact comparison): "
        f"{drifted}\nIf the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_paper_golden.py`."
    )


def test_golden_fixture_exercises_truncation_and_saturation():
    """The fixture keeps guarding sprint termination and the bandwidth cap."""
    golden = json.loads(GOLDEN_PATH.read_text())
    truncated = [
        run for run, fields in golden.items()
        if run.startswith("sprint/") and fields["sprint_exhausted_at_s"] is not None
    ]
    assert truncated, "no golden sprint run exhausts its thermal budget"
    for name in ("feature", "disparity"):
        t_1x = float.fromhex(golden[f"many_core/{name}/64c/1x_bw"]["total_time_s"])
        t_2x = float.fromhex(golden[f"many_core/{name}/64c/2x_bw"]["total_time_s"])
        assert t_2x < t_1x, f"{name} at 64 cores is not bandwidth-bound"
    assert float.fromhex(golden["engine/sobel/16c_to_1c"]["migration_stall_s"]) > 0


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_runs(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
