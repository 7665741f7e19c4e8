"""spinr benchmark: closed-loop CLI workloads with output gates and a traced run.

Usage (from the root of a spinr checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An op is one ``spinr`` CLI invocation in a fresh interpreter
(``python3 -m spinr.cli ...`` with ``PYTHONPATH=src``).  Ops run as a closed
loop: one client, one child process at a time, every op with ``--jobs 1``.
That is what a user pays per invocation, and a per-process cache gets no
credit for reuse across ops that no real invocation would get.

Workloads (the workload seed feeds ``--seed`` of every op):

* ``verify-all``   ``spinr verify --suite all``: generic block algebra at
  k <= 6; the only workload that rebuilds blocks (rblock_closed 58 calls for
  7 distinct k), so memoization shows here and nowhere else.
* ``compute-r-l4`` ``spinr compute-r -l 4``: the construction path, every
  block built once, then spin specialization and emission; no reuse.
* ``ybe-l3``       ``spinr verify --suite ybe -l 3 --trials 100``: builds R
  once, then evaluates it exactly at 300 points and multiplies 64-dim
  sector products; a construction gain moves it a little, an evaluation
  gain a lot.

Each run pins itself, and so every child, to one CPU, builds bytecode
(untimed), sets up ``SETUP_REPEATS`` times (input generation plus one
fresh-process ``import spinr.cli`` probe), then issues ops until the next one
would end after ``--seconds``; at least ``MIN_OPS`` ops always run.  Every
op's stdout passes through a gate (see gates.py); a non-zero exit or a wrong
output counts as a failed op.

With ``--trace 0`` the metrics are the end-to-end ones: ``op_p50_s``,
``setup_s``, ``peak_rss_mb`` and ``ok_ratio`` (1 - fail_ratio, since a
metric must never read 0).  On the shared 2-vCPU cloud host the benchmark was set
up on (baseline.json), other tenants slowed the vCPUs by up to 80 % for
seconds to minutes at a time, which moved the median op wall time by 15-27 %
between runs of the same code.  So the two times are host-load corrected: a
speedometer (speedometer.py) runs a fixed reference kernel beside the ops on
the same CPU, and each op's (or set-up's) CPU time is divided by the
slowdown the reference saw over the same interval (its mean chunk time
there over its chunk time on a quiet host, a constant).  The result is the
op's time at the host's quiet speed; ops are CPU-bound (CPU time is within
2 % of wall time when they run alone), so it stands for the wall time a user
sees on a quiet host.  It reads below the raw wall times, which carry the
slowdown.  ``op_p50_s`` is the median over the run's ops, ``setup_s`` the
median over its set-ups.  The summary line before the result also gives the
raw wall and CPU times and the median slowdown.

With ``--trace 1`` traced ops (tracer.py)
alternate with untraced ones and the metrics are the per-layer ones: calls
and self time per traced function, work counters, reuse ratios, and the
tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import select
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gates
from speedometer import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = HERE / "tracer.py"

SETUP_REPEATS = 15
MIN_OPS = 3
MIN_TRACED_OPS = 2
YBE_TRIALS = 100
# Every run ends well inside 180 s: no op is started or left running past this.
HARD_LIMIT_S = 165.0
PROBE = "import sys, spinr.cli; sys.stdout.write(spinr.cli.__file__)"


@dataclass(frozen=True)
class Workload:
    args: Callable[[int], list[str]]
    # (pins, seed) -> (exact expected stdout or None, sha256 of stdout or None)
    expected: Callable[[dict, int], tuple[bytes | None, str | None]]


WORKLOADS = {
    "verify-all": Workload(
        lambda seed: ["verify", "--suite", "all", "--seed", str(seed), "--jobs", "1"],
        lambda pins, seed: (gates.verify_text(pins["verify_all_cases"], seed), None),
    ),
    "compute-r-l4": Workload(
        lambda seed: ["compute-r", "-l", "4", "--seed", str(seed), "--jobs", "1"],
        lambda pins, seed: (None, pins["compute_r_l4_sha256"]),
    ),
    "ybe-l3": Workload(
        lambda seed: ["verify", "--suite", "ybe", "-l", "3", "--trials", str(YBE_TRIALS),
                      "--seed", str(seed), "--jobs", "1"],
        lambda pins, seed: (
            gates.verify_text([f"ybe_trials(ell=3, trials={YBE_TRIALS}, seed={{seed}})"], seed),
            None,
        ),
    ),
}

# Per-layer metrics.  ``.calls`` and ``.s`` (self time: span duration minus
# the time its child spans cover) per traced function, per op.
CALLS_AND_SELF = [
    "exactalg.mpoly_mul",
    "exactalg.mpoly_add",
    "exactalg.factored_sum",
    "exactalg.factored_expand",
    "exactalg.ratfun_value_eq",
    "exactalg.residue_at",
    "exactalg.mpoly_substitute",
    "exactalg.mpoly_exact_div",
    "exactalg.cancel_common_z_roots",
    "exactalg.ratfun_to_str",
    "exactalg.mpoly_eval_rational",
    "fracmat.mat_mul",
    "stablebasis.symmatrix_mul",
    "stablebasis.S_matrix",
    "stablebasis.S_inverse",
    "stablebasis.verify_inverse",
    "stablebasis.verify_linrel",
    "stablebasis.verify_residues_all",
    "rmatrix.rblock_closed",
    "rmatrix.rblock_triangular",
    "rmatrix.specialize_block",
    "rmatrix.assemble_full",
    "rmatrix.at_z",
]
SELF_ONLY = ["oracle.verify_sl2_commutation", "oracle.verify_spectrum", "golden.checks"]
# Verify case kinds; ``cli.case.<kind>.s`` is the inclusive wall time of the case.
CASE_KINDS = [
    "inverse",
    "linrel",
    "residues",
    "constructions",
    "unitarity_block",
    "unitarity_full",
    "identity_at_zero",
    "ybe",
    "golden",
    "commutation",
    "spectrum",
]
REUSE = ["rmatrix.rblock_closed", "rmatrix.assemble_full"]


def op_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int | None  # None: killed at its deadline
    start: float  # perf_counter at spawn
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], tag: str, timeout: float) -> Child:
    """Run ``python3 argv...`` to completion; wall time covers spawn to reap."""
    out, err = WORK / f"{tag}.out", WORK / f"{tag}.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], op_env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - start
    return Child(
        code=os.waitstatus_to_exitcode(status) if ready else None,
        start=start,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        stdout=out.read_bytes(),
        stderr=err.read_bytes(),
    )


def spinr_args(args: list[str]) -> list[str]:
    """The op's CLI arguments; the resource guard requires ``--jobs 1``."""
    if args[args.index("--jobs") + 1] != "1":
        raise ValueError("benchmark ops must run with --jobs 1")
    return args


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    args: list[str]
    expected: bytes | None
    digest: str | None


@dataclass
class Op:
    op_id: int
    traced: bool
    child: Child
    failure: str | None


@dataclass
class Setup:
    plan: Plan
    start: float
    wall_s: float
    cpu_s: float  # this process's CPU time plus the probe's
    probe_wall_s: float


def setup(workload: Workload, seed: int, deadline: float) -> Setup:
    """Generate the op inputs and probe one fresh ``import spinr.cli``."""
    start, cpu = time.perf_counter(), time.process_time()
    pins = gates.load_pins()
    expected, digest = workload.expected(pins, seed)
    plan = Plan(spinr_args(workload.args(seed)), expected, digest)
    probe = spawn(["-c", PROBE], "probe", deadline - time.perf_counter())
    elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
    where = Path(probe.stdout.decode()).resolve()
    if probe.code != 0 or SRC.resolve() not in where.parents:
        raise RuntimeError(f"startup probe failed or imported spinr from elsewhere: {probe.stderr.decode()}")
    return Setup(plan, start, elapsed, cpu + probe.cpu_s, probe.wall_s)


def run_op(plan: Plan, op_id: int, traced: bool, deadline: float) -> Op:
    if traced:
        prefix = WORK / f"trace-{op_id}"
        for stale in (Path(f"{prefix}.json"), Path(f"{prefix}.bin")):
            stale.unlink(missing_ok=True)
        argv = [str(TRACER), str(prefix), str(op_id), "--", *plan.args]
    else:
        argv = ["-m", "spinr.cli", *plan.args]
    child = spawn(argv, f"op-{op_id}", deadline - time.perf_counter())
    if child.code is None:
        failure = "killed at the run deadline"
    else:
        failure = gates.gate(child.code, child.stdout, plan.expected, plan.digest)
    state = "ok" if failure is None else f"FAILED ({failure})"
    kind = "traced" if traced else "untraced"
    sys.stderr.write(
        f"op {op_id} {kind}: {child.wall_s:.3f} s wall, {child.cpu_s:.3f} s cpu, "
        f"{child.rss_kb / 1024:.1f} MB peak rss, {state}\n"
    )
    if failure is not None:
        sys.stderr.write(child.stderr.decode(errors="replace")[-2000:])
    return Op(op_id, traced, child, failure)


def closed_loop(plan: Plan, seconds: float, trace: bool, deadline: float) -> list[Op]:
    """Issue ops one after another until the next would end after ``seconds``.

    A traced run alternates traced and untraced ops, starting traced.
    """
    ops: list[Op] = []
    begin = time.perf_counter()
    while time.perf_counter() < deadline:
        traced_n = sum(op.traced for op in ops)
        plain_n = len(ops) - traced_n
        enough = (traced_n >= MIN_TRACED_OPS and plain_n >= 1) if trace else plain_n >= MIN_OPS
        estimate = statistics.median(op.child.wall_s for op in ops) if ops else 0.0
        if enough and time.perf_counter() - begin + estimate > seconds:
            break
        op = run_op(plan, len(ops), trace and traced_n <= plain_n, deadline)
        ops.append(op)
        if op.child.code is None:
            break
    return ops


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    calls: Counter
    self_s: dict[str, float]
    incl_s: dict[str, float]
    counts: dict  # every exact count of the op, for the repeatability check


def read_trace(prefix: Path) -> Trace:
    meta = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    n = meta["spans"]
    name, parent = array.array("i"), array.array("i")
    start, end = array.array("d"), array.array("d")
    with open(f"{prefix}.bin", "rb") as fh:
        for arr in (name, parent, start, end):
            arr.fromfile(fh, n)
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    names = meta["names"]
    for i in range(n):
        key = names[name[i]]
        calls[key] += 1
        self_s[key] += dur[i] - covered[i]
        incl_s[key] += dur[i]
    counts = {"calls": dict(calls), "counters": meta["counters"], "distinct": meta["distinct"]}
    return Trace(calls, self_s, incl_s, counts)


def layer_metrics(ops: list[Op], probes: list[float]) -> tuple[dict, str | None]:
    """Per-layer metrics from the traced ops; the second value names a count mismatch."""
    traces = [read_trace(WORK / f"trace-{op.op_id}") for op in ops if op.traced and op.failure is None]
    plain = [op.child for op in ops if not op.traced]
    traced = [op.child for op in ops if op.traced]
    if not traces or not plain:
        return {}, "no traced or no untraced op completed"
    mismatch = None
    if any(t.counts != traces[0].counts for t in traces[1:]):
        mismatch = "traced ops of one run gave different counts"
    first = traces[0]
    med = statistics.median
    m: dict[str, tuple[float, str]] = {}
    for fn in CALLS_AND_SELF:
        m[f"{fn}.calls"] = (first.calls[fn], "count")
        m[f"{fn}.s"] = (med(t.self_s.get(fn, 0.0) for t in traces), "s")
    for fn in SELF_ONLY:
        m[f"{fn}.s"] = (med(t.self_s.get(fn, 0.0) for t in traces), "s")
    for kind in CASE_KINDS:
        m[f"cli.case.{kind}.s"] = (med(t.incl_s.get(f"cli.case.{kind}", 0.0) for t in traces), "s")
    counters = first.counts["counters"]
    m["exactalg.mpoly_mul.term_pairs"] = (counters.get("exactalg.mpoly_mul.term_pairs", 0), "count")
    m["exactalg.mpoly_mul.max_terms"] = (counters.get("exactalg.mpoly_mul.max_terms", 0), "count")
    for fn in REUSE:
        calls = first.calls[fn]
        ratio = first.counts["distinct"][fn] / calls if calls else 0.0
        m[f"{fn}.reuse_ratio"] = (ratio, "ratio")
    m["cli.startup_s"] = (med(probes), "s")
    m["cli.op_cpu_s"] = (med(c.cpu_s for c in plain), "s")
    m["cli.dispatch_s"] = (med(t.self_s.get("cli.main", 0.0) for t in traces), "s")
    traced_p50 = med(c.wall_s for c in traced)
    m["trace.op_p50_s"] = (traced_p50, "s")
    m["trace.overhead_s"] = (traced_p50 - med(c.wall_s for c in plain), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, mismatch


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def check_spin_one(seed: int, pins: dict, deadline: float) -> str | None:
    """Pinned ``compute-r -l 2`` digest, and agreement with the golden spin-1 matrix."""
    child = spawn(["-m", "spinr.cli", "compute-r", "-l", "2", "--seed", str(seed), "--jobs", "1"],
                  "spin-one", deadline - time.perf_counter())
    failure = gates.gate(child.code, child.stdout, None, pins["compute_r_l2_sha256"])
    if failure is not None:
        return f"compute-r -l 2: {failure}"
    sys.path.insert(0, str(SRC))
    from spinr import golden

    return gates.check_spin_one(child.stdout, golden.spin_one_full_matrix())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="spinr benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = p.parse_args(argv)
    if opts.seconds < 1:
        p.error("--seconds must be at least 1")
    return opts


def main(argv: list[str] | None = None) -> int:
    deadline = time.perf_counter() + HARD_LIMIT_S
    # A terminated benchmark still kills and reaps its op child (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    opts = parse_args(argv)
    if not (SRC / "spinr" / "cli.py").is_file():
        sys.stderr.write(f"error: no spinr sources at {SRC / 'spinr'}; run from a spinr checkout\n")
        return 2
    WORK.mkdir(exist_ok=True)
    # One CPU for this process and, by inheritance, every child: the
    # speedometer must share the CPU the op runs on to see its slowdown.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    build = spawn(["-m", "compileall", "-q", str(SRC / "spinr")], "build", deadline - time.perf_counter())
    if build.code != 0:
        sys.stderr.write(build.stdout.decode() + build.stderr.decode())
        return 2

    # Traced spans are wall time inside the op, so the traced run goes without
    # the speedometer, which would take a share of the CPU.
    meter = None
    try:
        if not opts.trace:
            meter = Speedometer(WORK / "speedometer.bin")
        workload = WORKLOADS[opts.workload]
        setups = [setup(workload, opts.seed, deadline) for _ in range(SETUP_REPEATS)]
        ops = closed_loop(setups[0].plan, opts.seconds, bool(opts.trace), deadline)
    finally:
        if meter is not None:
            meter.stop()

    failed = sum(op.failure is not None for op in ops)
    problems = []
    if opts.workload == "compute-r-l4":
        problem = check_spin_one(opts.seed, gates.load_pins(), deadline)
        if problem:
            problems.append(problem)

    plain = [op.child for op in ops if not op.traced]
    if opts.trace:
        metrics, problem = layer_metrics(ops, [s.probe_wall_s for s in setups])
        if problem:
            problems.append(problem)
    else:
        slowdowns = [meter.slowdown(c.start, c.start + c.wall_s) for c in plain]
        metrics = {
            "op_p50_s": {"value": statistics.median(c.cpu_s / f for c, f in zip(plain, slowdowns)), "unit": "s"},
            "setup_s": {
                "value": statistics.median(s.cpu_s / meter.slowdown(s.start, s.start + s.wall_s) for s in setups),
                "unit": "s",
            },
            "peak_rss_mb": {"value": max(c.rss_kb for c in plain) / 1024, "unit": "MB"},
            "ok_ratio": {"value": (len(ops) - failed) / len(ops), "unit": "ratio"},
        }
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")

    walls = sorted(c.wall_s for c in plain)
    host = "" if opts.trace else (
        f"cpu p50 = {statistics.median(c.cpu_s for c in plain):.3f} s, "
        f"host slowdown p50 = {statistics.median(slowdowns):.3f}; "
    )
    print(
        f"{opts.workload} seed={opts.seed}: {len(ops)} ops ({len(plain)} untraced), closed loop, "
        f"1 client, --jobs 1; untraced wall min/p50/max = {walls[0]:.3f}/"
        f"{statistics.median(walls):.3f}/{walls[-1]:.3f} s; {host}fail_ratio = {failed}/{len(ops)}; "
        f"no higher percentile reported (fewer than 10 samples lie beyond any)"
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
