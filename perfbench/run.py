#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sprint_paper --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
in one process (no worker pool), timing on the reference clock of
``refclock.py`` so that a slower shared core does not read as slower
code; ``--trace 1`` runs the workload in-process (one worker), once untraced
and once under the span tracer, and reports per-layer self times and
counts plus the tracing overhead.  Every run checks the simulated
outputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A human-readable
report and the run manifest precede it, and both are also written to
``.perfbench_out/`` in the repository root, with the span log of a
traced run.

The simulator is imported from ``src/`` next to this directory; the
benchmark exits with a non-zero status before printing a result when
that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Fresh-process set-ups per run besides the run's own; ``setup_s`` is the median.
SETUP_PROBES = 5
WORKLOAD_NAMES = ("sprint_paper", "fleet_stream", "datacenter_sharded", "replicated_study")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_requests_per_s": "1/s",
    "sim_quanta_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "arch.advance_s": "s",
    "arch.advance_calls": "count",
    "thermal.step_s": "s",
    "thermal.step_calls": "count",
    "thermal.step_us_per_call": "us",
    "core.controller_s": "s",
    "core.thermal_backend_s": "s",
    "core.thermal_backend_calls": "count",
    "workloads.suite_s": "s",
    "traffic.requests_s": "s",
    "traffic.build_fleet_s": "s",
    "traffic.engine_s": "s",
    "traffic.engine_calls": "count",
    "traffic.device_s": "s",
    "traffic.device_calls": "count",
    "traffic.governor_s": "s",
    "traffic.governor_calls": "count",
    "traffic.grant_ratio": "ratio",
    "traffic.telemetry_s": "s",
    "traffic.shard_plan_s": "s",
    "traffic.shard_imbalance": "ratio",
    "traffic.pool_s": "s",
    "traffic.pool_jobs": "count",
    "traffic.summary_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the benchmark's self-check",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_simulator() -> None:
    """Put ``src/`` first on the path and import the package from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def set_up(args, workers: int):
    """Import, then build the workload's inputs."""
    import_simulator()
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.size, args.seed, workers)


def probe_setup(args) -> dict:
    """Set-up measured in a fresh interpreter (cold imports)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--size={args.size}",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def read_git_commit() -> str | None:
    """HEAD's commit from ``.git`` when the checkout is a git repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Ledger:
    """Work items attempted and failed, and every failure message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, items: int, failures=(), label: str = "") -> None:
        self.attempted += items
        implicated: set[int] = set()
        for failure in failures:
            self.messages.append(f"{label}{failure.message}")
            implicated |= set(range(items)) if failure.items is None else set(failure.items)
        self.failed += len(implicated)

    def crash(self, items: int, label: str) -> None:
        self.messages.append(f"{label}raised:\n{traceback.format_exc()}")
        self.attempted += items
        self.failed += items


def load_expected(name: str, size: str):
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(f"{name}@{size}")


def measure(args, workers: int, ledger: Ledger, expected):
    """Set up, then run units back to back for ``--seconds``; returns metrics.

    Times are reference seconds (see ``refclock.py``); every unit's host
    seconds are kept in the manifest.
    """
    clock = refclock.ReferenceClock()
    workload, own_setup = clock.time(lambda: set_up(args, workers))
    from workloads import Failure

    setups = [asdict(own_setup)] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    readings, first = [], None
    started = perf_counter()
    while True:
        label = f"unit {len(readings)}: "
        clock.start()
        try:
            unit = workload.run_unit()
        except Exception:
            readings.append(clock.stop())
            ledger.crash(workload.items, label)
        else:
            readings.append(clock.stop())
            obs = workload.observe(unit)
            if first is None:
                first = obs
                ledger.add(obs.items, workload.check(unit, obs, args.seed, expected), label)
            elif obs.doc != first.doc:
                ledger.add(obs.items, [Failure("outputs differ from unit 0")], label)
            else:
                ledger.add(obs.items, [], label)
            del unit
        elapsed = perf_counter() - started
        if elapsed + statistics.median(r.host_s for r in readings) > args.seconds:
            break
    rss = peak_rss_mb()
    if first is not None and hasattr(workload, "untimed_check"):
        ledger.add(1, workload.untimed_check(first), "untimed check: ")
    wall = statistics.median(r.ref_s for r in readings)
    metrics = {
        "setup_s": statistics.median(s["ref_s"] for s in setups),
        "wall_s": wall,
        "sim_requests_per_s": (first.resolved if first else 0) / wall,
        "sim_quanta_per_s": (first.quanta if first else 0) / wall,
        "peak_rss_mb": rss,
    }
    detail = {
        "host_wall_s": statistics.median(r.host_s for r in readings),
        "core_speed": statistics.median(r.speed for r in readings),
        "units": [asdict(r) for r in readings],
        "setups": setups,
    }
    return workload, first, metrics, detail


def measure_traced(args, ledger: Ledger, expected):
    """One untraced and one traced in-process unit; returns per-layer metrics."""
    import_simulator()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload = set_up(args, workers=1)
    finally:
        tracer.uninstall()
    from workloads import Failure

    # Warm imports and lazy caches on a tiny unit so neither timed unit pays them.
    type(workload)("tiny", args.seed, 1).run_unit()

    t0 = perf_counter()
    plain = workload.run_unit()
    plain_s = perf_counter() - t0
    plain_obs = workload.observe(plain)
    ledger.add(plain_obs.items, workload.check(plain, plain_obs, args.seed, expected), "untraced: ")
    del plain

    tracer.install()
    try:
        with tracer.span("unit"):
            t0 = perf_counter()
            traced = workload.run_unit()
            traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    obs = workload.observe(traced)
    found = workload.check(traced, obs, args.seed, expected)
    if obs.doc != plain_obs.doc:
        found.append(Failure("traced outputs differ from the untraced run"))
    ledger.add(obs.items, found, "traced: ")
    del traced
    if hasattr(workload, "untimed_check"):
        ledger.add(1, workload.untimed_check(obs), "untimed check: ")

    t = tracer
    steps = t.call_count("thermal.step")
    racks = t.durations("traffic.engine", within="shard_run")
    metrics = {
        "arch.advance_s": t.self_time("arch.advance"),
        "arch.advance_calls": t.call_count("arch.advance"),
        "thermal.step_s": t.self_time("thermal.step"),
        "thermal.step_calls": steps,
        "thermal.step_us_per_call": t.self_time("thermal.step") / steps * 1e6 if steps else 0.0,
        "core.controller_s": t.self_time("core.controller"),
        "core.thermal_backend_s": t.self_time("core.thermal_backend"),
        "core.thermal_backend_calls": t.call_count("core.thermal_backend"),
        "workloads.suite_s": t.self_time("workloads.suite"),
        "traffic.requests_s": t.self_time("traffic.requests"),
        "traffic.build_fleet_s": t.self_time("traffic.build_fleet"),
        "traffic.engine_s": t.self_time("traffic.engine"),
        "traffic.engine_calls": t.call_count("traffic.engine"),
        "traffic.device_s": t.self_time("traffic.device"),
        "traffic.device_calls": t.call_count("traffic.device"),
        "traffic.governor_s": t.self_time("traffic.governor"),
        "traffic.governor_calls": t.call_count("traffic.governor"),
        "traffic.grant_ratio": obs.granted / obs.grant_attempts if obs.grant_attempts else 0.0,
        "traffic.telemetry_s": t.self_time("traffic.telemetry"),
        "traffic.shard_plan_s": t.self_time("traffic.shard_plan"),
        "traffic.shard_imbalance": float(racks.max() / racks.mean()) if racks.size else 0.0,
        "traffic.pool_s": t.self_time("traffic.pool"),
        "traffic.pool_jobs": t.jobs("traffic.pool"),
        "traffic.summary_s": t.self_time("traffic.summary"),
        "trace.overhead_s": traced_s - plain_s,
        "trace.unattributed_s": t.unattributed_s(),
    }
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans_{args.workload}_seed{args.seed}_{args.size}.npz"
    tracer.dump(spans)
    detail = {
        "untraced_wall_s": plain_s,
        "traced_wall_s": traced_s,
        "spans": t.span_count(),
        "spans_dropped": t.spans_dropped,
        "span_log": spans.name,
        "targets_absent": t.absent,
        "untraced_digest": plain_obs.digest,
    }
    return workload, obs, metrics, detail


def manifest(args, workers, workload, obs, detail) -> dict:
    import numpy
    import repro
    from workloads import DEFAULT_SEED, HELD_OUT_SEED

    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "workers": workers,
        "reference_clock": {
            "interval_s": refclock.INTERVAL_S,
            "gauge_iterations": refclock.GAUGE_ITERATIONS,
            "reference_s": refclock.REFERENCE_S,
            "sensitivity": refclock.SENSITIVITY,
        },
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": getattr(repro, "__version__", None),
        "git_commit": read_git_commit(),
        "params": workload.params(),
        "engine_paths": obs.vector_core if obs is not None else None,
        "digest": obs.digest if obs is not None else None,
        **detail,
    }


def report(args, metrics, units, ledger, obs, detail) -> list[str]:
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:>16.6g} {units[name]}")
    frac = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    lines.append(f"  {'failed_frac':<28} {frac:>16.6g} ({ledger.failed}/{ledger.attempted} items)")
    if obs is not None:
        for name, value in obs.extra.items():
            lines.append(f"  {name:<28} {value:>16.6g}")
    for name in ("host_wall_s", "core_speed"):
        if name in detail:
            lines.append(f"  {name:<28} {detail[name]:>16.6g}")
    lines.extend(f"FAIL {args.workload}: {message}" for message in ledger.messages)
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process: the timed work stays on the core the reference clock samples.
    workers = 1
    if args.setup_probe:
        _, reading = refclock.ReferenceClock().time(lambda: set_up(args, workers))
        print(json.dumps(asdict(reading)))
        return 0
    ledger = Ledger()
    expected = load_expected(args.workload, args.size)
    if args.trace:
        workload, obs, metrics, detail = measure_traced(args, ledger, expected)
        units = PER_LAYER
    else:
        workload, obs, metrics, detail = measure(args, workers, ledger, expected)
        units = END_TO_END
    lines = report(args, metrics, units, ledger, obs, detail)
    info = manifest(args, workers, workload, obs, detail)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}_{args.size}.json"
    record.write_text(
        json.dumps({"manifest": info, "report": lines, "result": result}, indent=1)
    )
    print("\n".join(lines))
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
