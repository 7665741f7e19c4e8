"""Write pins.json: the expected outputs the benchmark gates every op against.

Usage (from the root of a spinr checkout): python3 perfbench/pin.py

Run it only at a commit whose output is the reference.  It records the case
list of ``spinr verify --suite all`` (with the seed left as a placeholder)
and the sha256 of ``spinr compute-r -l 4`` and ``-l 2``.  Nothing is written
unless every verify case passes and the spin-1 matrix agrees with
``golden.spin_one_full_matrix``.
"""

from __future__ import annotations

import json
import sys
import time

import gates
import run

SEED = 7


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    deadline = time.perf_counter() + 600
    verify = run.spawn(["-m", "spinr.cli", "verify", "--suite", "all", "--seed", str(SEED), "--jobs", "1"],
                       "pin-verify", deadline - time.perf_counter())
    lines = verify.stdout.decode().splitlines()
    if verify.code != 0 or lines[-1] != "all checks passed" or not all(l.endswith(": pass") for l in lines[:-1]):
        sys.stderr.write("verify --suite all did not pass; nothing pinned\n")
        return 1
    labels = [l[: -len(": pass")].replace(f"seed={SEED})", "seed={seed})") for l in lines[:-1]]

    digests = {}
    for ell in (4, 2):
        child = run.spawn(["-m", "spinr.cli", "compute-r", "-l", str(ell)], f"pin-l{ell}",
                          deadline - time.perf_counter())
        if child.code != 0:
            sys.stderr.write(f"compute-r -l {ell} failed; nothing pinned\n")
            return 1
        digests[ell] = gates.sha256(child.stdout)
        if ell == 2:
            sys.path.insert(0, str(run.SRC))
            from spinr import golden

            problem = gates.check_spin_one(child.stdout, golden.spin_one_full_matrix())
            if problem:
                sys.stderr.write(f"{problem}; nothing pinned\n")
                return 1

    pins = {
        "verify_all_cases": labels,
        "compute_r_l4_sha256": digests[4],
        "compute_r_l2_sha256": digests[2],
    }
    gates.PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {gates.PINS}: {len(labels)} verify cases, 2 digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
