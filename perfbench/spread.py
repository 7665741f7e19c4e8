"""Run the benchmark over several seeds and summarise each end-to-end metric.

Usage (from the root of a spinr checkout):

    python3 perfbench/spread.py [--seconds S] [--out FILE] WORKLOAD:SEED,SEED,... ...

Runs are sequential, one workload after another.  For every workload and
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
the figures used to judge whether a metric is steady against its bound in
BENCHMARK.json.  ``--out`` also writes them as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    *_, summary, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct\n{proc.stderr}")
    print(summary, flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", default=None)
    p.add_argument("plan", nargs="+", help="WORKLOAD:SEED,SEED,...")
    opts = p.parse_args()
    report = {}
    for item in opts.plan:
        workload, seeds = item.split(":")
        runs = []
        for seed in (int(s) for s in seeds.split(",")):
            runs.append(one_run(workload, seed, opts.seconds))
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        report[workload] = {}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            report[workload][metric] = {"values": values, **summarise(values)}
            s = report[workload][metric]
            print(f"{workload} {metric}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if opts.out:
        Path(opts.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
