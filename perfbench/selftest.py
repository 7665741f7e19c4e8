"""Self-test: two traced runs of a workload report identical counts.

Usage (from the root of a spinr checkout):

    python3 perfbench/selftest.py [WORKLOAD ...]     # default: every workload

Each workload is run twice with ``--trace 1`` and different seeds.  Every
per-layer metric with unit ``count`` or ``ratio`` (calls, term pairs, largest
term count, reuse ratios) must be equal across the two runs; verify-all and
compute-r-l4 do not depend on the seed for those, and ybe-l3 evaluates the
same number of points whatever the seed.  Each run also checks on its own
that all its traced ops agree, and reports ``correct: false`` otherwise.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run not correct:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}


def main(argv: list[str]) -> int:
    failures = 0
    for workload in argv or sorted(run.WORKLOADS):
        first, second = traced_counts(workload, 1), traced_counts(workload, 2)
        diff = sorted(k for k in first if first[k] != second.get(k))
        if diff:
            failures += 1
            print(f"{workload}: counts differ between traced runs: {', '.join(diff)}")
        else:
            print(f"{workload}: {len(first)} counts identical across two traced runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
