"""Host-speed reference for the untraced run.

Usage: python3 perfbench/speedometer.py OUT_FILE   (run.py starts and stops it)

On a cloud VM with a few vCPUs of a shared host, other tenants slow a vCPU
by up to 80 % for seconds to minutes at a time, and the two vCPUs are slowed
independently, so the median wall time of an op moved by 15-27 % between
runs of the same code, and a reference timed before or after an op, or on
the other vCPU, did not track it.  What does track it is a reference that
runs on the same vCPU at the same time as the op.

The speedometer is that reference: a fixed sparse-polynomial product over
Fractions (the same kind of work as spinr's MPoly multiply, but not spinr
code, so no change to spinr changes it), run in a loop at nice 10 on the
CPU the benchmark pins itself and its ops to.  At nice 10 it takes about a
tenth of the CPU while an op runs.  For each chunk of work it appends one
record ``(start, end, cpu)`` to OUT_FILE: the chunk's ``perf_counter``
bounds and its own CPU time, as three native doubles.

``Speedometer`` is the benchmark's side: it starts the loop, stops and reaps
it, and turns the records into a slowdown factor for any interval: the mean
CPU time of the chunks over the interval, over ``QUIET_CHUNK_S``.  A
process's CPU time divided by that factor is its work counted in reference
chunks, times ``QUIET_CHUNK_S``: its time on a quiet host.  Over one op that
count repeats within about 1 % whatever the load, where the op's own CPU time
moved by up to 80 %.  The scale is a constant, not the fastest chunk of each
run, because a run spent entirely under load has no quiet chunk, and that
moved the per-run figure by 12 %.
"""

from __future__ import annotations

import array
import os
import random
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

NICE = 10
# CPU time of one chunk on a quiet host: the fastest chunks on the 2.1 GHz
# Xeon vCPUs the benchmark was set up on took 1.69-1.82 ms.  It sets the
# scale of every host-corrected time and must not change.
QUIET_CHUNK_S = 1.75e-3
RECORD = array.array("d").itemsize * 3


def _poly(seed: int, terms: int) -> dict[tuple[int, int, int], Fraction]:
    rng = random.Random(seed)
    return {
        (rng.randrange(6), rng.randrange(4), rng.randrange(4)): Fraction(rng.randrange(-50, 50) or 1, rng.randrange(1, 30))
        for _ in range(terms)
    }


A, B = _poly(1, 30), _poly(2, 30)


def chunk() -> int:
    """One unit of reference work: a 30 x 30 term product in z, phi, eps."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in A.items():
        for (p, q, r), d in B.items():
            m = (i + p, j + q, k + r)
            out[m] = out.get(m, 0) + c * d
    return sum(1 for c in out.values() if c)


def loop(path: str) -> None:
    """Run chunks and record them until killed, or until the benchmark is gone."""
    os.nice(NICE)
    parent = os.getppid()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
    while os.getppid() == parent:
        start, cpu = time.perf_counter(), time.process_time()
        chunk()
        cpu, end = time.process_time() - cpu, time.perf_counter()
        os.write(fd, array.array("d", (start, end, cpu)).tobytes())


class Speedometer:
    """The reference loop as a child process, and its records.

    ``perf_counter`` is the system-wide monotonic clock, so the child's chunk
    bounds compare directly with the intervals the benchmark times.
    """

    def __init__(self, path: Path):
        self.path = path
        path.unlink(missing_ok=True)
        self.pid = os.posix_spawn(sys.executable, [sys.executable, __file__, str(path)], dict(os.environ))
        self.records: list[tuple[float, float, float]] = []
        # Wait for the first chunk, so that every timed interval has records.
        deadline = time.perf_counter() + 30.0
        try:
            while not (path.exists() and path.stat().st_size >= RECORD):
                if time.perf_counter() > deadline or os.waitpid(self.pid, os.WNOHANG) != (0, 0):
                    raise RuntimeError("speedometer did not start")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Kill and reap the loop (idempotent), then load its records."""
        if self.pid:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped by the start-up check
            self.pid = 0
        if self.path.exists():
            data = array.array("d")
            raw = self.path.read_bytes()
            data.frombytes(raw[: len(raw) // RECORD * RECORD])
            self.records = list(zip(data[0::3], data[1::3], data[2::3]))

    def slowdown(self, start: float, end: float) -> float:
        """Mean CPU time of the chunks overlapping [start, end], over ``QUIET_CHUNK_S``.

        About 1.0 on a quiet host; 1.3 when the host made this vCPU 30 %
        slower while the interval ran.
        """
        cpus = [cpu for s, e, cpu in self.records if e > start and s < end]
        if not cpus:
            raise RuntimeError(f"no speedometer record overlaps [{start:.3f}, {end:.3f}]")
        return statistics.fmean(cpus) / QUIET_CHUNK_S


if __name__ == "__main__":
    loop(sys.argv[1])
