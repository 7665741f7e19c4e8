"""Compare the CLI of a git revision with the working tree, byte for byte.

Usage: python3 tools/sweep.py REF

Extracts ``git archive REF`` into a temporary directory and runs the same
``python -m spinr.cli`` invocations against that copy and against the
working tree, one child process at a time, each with its own ``src`` on
PYTHONPATH.  The invocations:

* every command of ``OUTPUT_DIGESTS`` in ``tests/test_cli.py``;
* the op of every perfbench workload at seed 1;
* ``verify --suite S --format json|text`` for every suite;
* ``verify --suite oracle -l L --format json`` for L = 3..6;
* ``verify --suite constructions|unitarity -k K --format json`` for
  K = 7..12, beyond the k <= 6 of the suite defaults;
* ``verify --suite linrel -k K --format json`` for K = 6..10, beyond the
  k <= 5 of the suite default;
* ``verify --suite inverse -k K --format json`` for K = 7..12 and
  ``verify --suite residues -k K --format json`` for K = 5..10, beyond the
  suite defaults;
* ``compute-r --block K`` for K = 0..8;
* ``verify --suite ybe -l L --trials T`` for L = 1..5 and T in
  {1, (2L)^2 - 1, (2L)^2, 100}, on both sides of the grid threshold;
* ``compute-r -l 3 --at-z Z --format csv`` for Z in {0, 1/3, -7/2, 5, -1},
  the last a pole.

Stdout, stderr and the exit code of each invocation are compared.  Every
invocation that differs is printed with what differs, and the exit code is
1 if any differs, 0 otherwise.  The commands are read from the working
tree.  Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # the command tables are imported from the working tree


def output_digest_commands() -> list[list[str]]:
    """The commands pinned by ``OUTPUT_DIGESTS``, read from the test source."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["OUTPUT_DIGESTS"]:
            return [command.split() for command in sorted(ast.literal_eval(node.value))]
    raise SystemExit("tests/test_cli.py defines no OUTPUT_DIGESTS")


def perfbench_commands() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # perfbench/run.py

    return [workload.args(1) for workload in run.WORKLOADS.values()]


def suite_names() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from spinr import cli

    return list(cli._SUITES)


def commands() -> list[list[str]]:
    out = output_digest_commands() + perfbench_commands()
    for suite in suite_names():
        out += [["verify", "--suite", suite, "--format", f] for f in ("json", "text")]
    for ell in range(3, 7):
        out.append(["verify", "--suite", "oracle", "-l", str(ell), "--format", "json"])
    for suite in ("constructions", "unitarity"):
        for k in range(7, 13):
            out.append(["verify", "--suite", suite, "-k", str(k), "--format", "json"])
    for k in range(6, 11):
        out.append(["verify", "--suite", "linrel", "-k", str(k), "--format", "json"])
    for suite, ks in (("inverse", range(7, 13)), ("residues", range(5, 11))):
        out += [["verify", "--suite", suite, "-k", str(k), "--format", "json"] for k in ks]
    for k in range(9):
        out.append(["compute-r", "--block", str(k)])
    for ell in range(1, 6):
        grid = (2 * ell) ** 2
        for trials in (1, grid - 1, grid, 100):
            out.append(["verify", "--suite", "ybe", "-l", str(ell), "--trials", str(trials)])
    for z in ("0", "1/3", "-7/2", "5", "-1"):
        out.append(["compute-r", "-l", "3", "--at-z", z, "--format", "csv"])
    return out


def run_cli(tree: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    child = subprocess.run(
        [sys.executable, "-m", "spinr.cli", *argv], cwd=tree, env=env, capture_output=True
    )
    return child.stdout, child.stderr, child.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/sweep.py REF", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]], capture_output=True)
    if archive.returncode:
        sys.stderr.buffer.write(archive.stderr)
        return 2
    todo = commands()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        for args in todo:
            old, new = run_cli(Path(tmp), args), run_cli(ROOT, args)
            parts = [name for name, a, b in zip(("stdout", "stderr", "exit code"), old, new) if a != b]
            if parts:
                differing += 1
                print(f"differs ({', '.join(parts)}): spinr {' '.join(args)}")
    print(f"{len(todo)} invocations, {differing} differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
