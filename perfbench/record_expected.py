#!/usr/bin/env python3
"""Regenerate ``expected.json``: the traffic outputs of the default seed.

Run from the repository root after an intentional change to simulated
behaviour, in a change of its own that claims no speed-up::

    python3 perfbench/record_expected.py

Every traffic workload is run once per size at the default seed, in
process, and its canonical output document is stored bit-for-bit.
``sprint_paper`` is checked against the paper's Figure 7 claims instead,
so it has no stored outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402


def main() -> int:
    expected = {}
    for name, cls in WORKLOADS.items():
        if name == "sprint_paper":
            continue
        for size in SIZES:
            workload = cls(size, DEFAULT_SEED, 1)
            expected[f"{name}@{size}"] = workload.observe(workload.run_unit()).doc
            print(f"recorded {name}@{size}")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
