#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark itself.

Run from the repository root::

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
checks that:

* the last output line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, with every
  output check passing;
* every metric ``BENCHMARK.json`` names prints with its declared unit
  (end-to-end metrics untraced, per-layer metrics traced), and every
  end-to-end value is a non-zero number;
* the untraced run (reference clock armed) and the traced run (span
  wrappers installed) report the same simulated-output digest.

Finally it copies only ``BENCHMARK.json`` and ``perfbench/`` into a bare
directory and checks that the benchmark fails there without printing a
result.  Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        "perfbench/run.py",
        f"--workload={workload}",
        "--seed=3",
        "--seconds=1",
        f"--trace={trace}",
        "--size=tiny",
    ]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


def parse(done: subprocess.CompletedProcess, label: str) -> tuple[dict, dict]:
    if done.returncode != 0:
        raise SystemExit(f"{label}: exit {done.returncode}\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    manifest = next(json.loads(x[len("manifest ") :]) for x in lines if x.startswith("manifest "))
    return result, manifest


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_metrics(result: dict, declared: list[dict], label: str, nonzero: bool) -> None:
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    expect(set(metrics) == names, f"{label}: metric names {sorted(metrics)}")
    for m in declared:
        entry = metrics[m["name"]]
        expect(entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry['unit']}")
        value = entry["value"]
        expect(
            isinstance(value, int | float) and math.isfinite(value),
            f"{label}: {m['name']} = {value!r}",
        )
        expect(not nonzero or value != 0, f"{label}: {m['name']} is zero")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        untraced, plain = parse(run(ROOT, workload, 0), f"{workload} untraced")
        traced, traced_manifest = parse(run(ROOT, workload, 1), f"{workload} traced")
        for label, result in (("untraced", untraced), ("traced", traced)):
            expect(set(result) == RESULT_KEYS, f"{workload} {label}: keys {sorted(result)}")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{workload} {label}: {result['failed']}/{result['attempted']} items failed",
            )
        check_metrics(untraced, spec["end_to_end"], f"{workload} untraced", nonzero=True)
        check_metrics(traced, spec["per_layer"], f"{workload} traced", nonzero=False)
        expect(
            plain["digest"] == traced_manifest["digest"] == traced_manifest["untraced_digest"],
            f"{workload}: digests differ: untraced {plain['digest']}, traced "
            f"{traced_manifest['digest']}, "
            f"in-process untraced {traced_manifest['untraced_digest']}",
        )
        print(f"selfcheck {workload}: ok (digest {plain['digest']})")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    expect(done.returncode != 0, "benchmark succeeded without the simulator source")
    expect('"correct"' not in last[0], "benchmark printed a result without the simulator source")
    print("selfcheck bare directory: fails without a result, as required")
    return 0


if __name__ == "__main__":
    sys.exit(main())
