"""Package layout: the modules of spinr use one another's public names only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import spinr


def test_no_module_imports_a_private_name_of_another():
    # a name starting with "_" is private to its module; a helper that two
    # modules share is public in the module that owns it
    relative, private = 0, []
    for path in sorted(Path(spinr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                relative += 1
                source = "." * node.level + (node.module or "")
                private += [
                    f"{path.name}: from {source} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert relative > 0
    assert private == []


# Modules that start threads or processes, and the os functions that start a process.
_CONCURRENCY = {"multiprocessing", "concurrent", "subprocess", "threading"}
_OS_SPAWNERS = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen"}


def test_no_module_starts_a_process_or_a_thread():
    # read from the source, so that nothing is started to check it: every
    # verify case runs in the one process and shares its memos
    found = []
    for path in sorted(Path(spinr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
                found += [name for name in names if name.split(".")[0] in _CONCURRENCY]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] in _CONCURRENCY:
                    found.append(node.module)
                elif node.module == "os":
                    found += [f"os.{a.name}" for a in node.names if a.name in _OS_SPAWNERS]
            elif isinstance(node, ast.Attribute) and node.attr in _OS_SPAWNERS:
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    found.append(f"os.{node.attr}")
    assert found == []


# Runs the CLI in a fresh interpreter, so every memo starts cold, with a
# tracer that is on before spinr.cli is imported.  Prints the (file, name,
# first line) of every spinr code object called, as JSON.
_REACH_PROBE = r"""
import contextlib, importlib.util, io, json, os, sys

root = importlib.util.find_spec("spinr").submodule_search_locations[0] + os.sep
called = set()


def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(root):
        called.add((code.co_filename[len(root):], code.co_name, code.co_firstlineno))


sys.settrace(tracer)
import spinr.cli as cli

every = ("json", "text", "csv", "latex")
runs = [["verify", "--suite", suite, "-q"] for suite in cli._SUITES]
runs += [["verify", "--suite", "ybe", "-l", "3", "-q"]]  # 20 trials < 36: samples, no grid
runs += [["verify", "--suite", "all", "--format", "json"]]
runs += [["fixed-points", "-k", "2", "-n", "2", "-l", "2", "--format", f] for f in ("json", "text")]
runs += [["dims", "-n", "2", "-l", "2", "--format", f] for f in ("json", "text", "csv")]
for f in every:
    runs += [["compute-r", "-l", "2", "--format", f], ["compute-r", "--block", "2", "--format", f]]
    runs += [["compute-s", "-k", "2", *inverse, "--format", f] for inverse in ([], ["--inverse"])]
for f in ("json", "text", "csv"):
    runs += [["compute-r", "-l", "2", "--at-z", "-1/3", "--format", f]]
    runs += [["export", "--kind", "r", "-l", "2", "--at-z", "5/2", "--format", f]]
flags = {"k": ["-k", "2"], "n": ["-n", "2"], "ell": ["-l", "2"]}
formats = {"fixed-points": ("json", "text"), "dims": ("json", "text", "csv")}
for kind, (_, requires, _) in cli._EXPORTS.items():
    given = [x for name in requires for x in flags[name]]
    runs += [["export", "--kind", kind, *given, "--format", f] for f in formats.get(kind, every)]
failed = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        if cli.main(argv) or err.getvalue():
            failed.append(argv)
sys.settrace(None)
print(json.dumps({"failed": failed, "called": sorted(called)}))
"""

TRACER = "a target of perfbench/tracer.py (test_every_tracer_target_resolves)"
DISPLAY = "public API: the text form for interactive use and test messages"
REFERENCE = "a reference route of the tests: RatFun arithmetic by value"

# Every src function that no CLI route calls, and why it stays.
NEVER_CALLED_BY_THE_CLI = {
    "exactalg.MPoly.monomial": "failure path: the divisor of residue_at, past its zero return",
    "exactalg.MPoly.__bool__": "failure path: residue_at's remainder test",
    "exactalg.MPoly.substitute": TRACER,
    "exactalg.MPoly.eval_rational": TRACER,
    "exactalg.MPoly.__str__": DISPLAY,
    "exactalg.MPoly.__repr__": DISPLAY,
    "exactalg.mpoly_exact_div": TRACER,
    "exactalg.LinForm.__str__": "failure path: a factor of a linrel witness",
    "exactalg.FactoredRat.__eq__": "public API: equality of factored terms",
    "exactalg.FactoredRat.flip_z": "public API: z -> -z of a factored term",
    "exactalg.FactoredRat.__str__": "failure path: the lhs of a linrel witness",
    "exactalg.FactoredRat.__repr__": DISPLAY,
    "exactalg.RatFun.__eq__": REFERENCE,
    "exactalg.RatFun.__add__": REFERENCE + "; ratfun_dot's route without den_factors",
    "exactalg.RatFun.__neg__": REFERENCE,
    "exactalg.RatFun.__sub__": REFERENCE,
    "exactalg.RatFun.__mul__": REFERENCE + "; ratfun_dot's route without den_factors",
    "exactalg.RatFun.scale": REFERENCE,
    "exactalg.RatFun.eval_rational": "acceptance: criterion 11 evaluates rho_s(0)",
    "exactalg.RatFun.__str__": DISPLAY,
    "exactalg.RatFun.__repr__": DISPLAY,
    "exactalg.residue_at.<locals>.strip": "failure path: an S^-1 S entry that is not 0",
    "exactalg.cancel_common_z_roots": TRACER,
    "fracmat.mat_mul": TRACER,
    "fracmat.SymMatrix.value_eq": "acceptance: criteria 1 and 2 compare whole matrices",
    "fracmat.SymMatrix.__repr__": DISPLAY,
    "moduli.patch_weights": "acceptance: criterion 10",
    "moduli.complete_intersection_coeff": "acceptance: criterion 10",
    "moduli.duality_involution": "acceptance: criterion 9",
    "oracle.casimir_projectors": "acceptance: criterion 11",
    "oracle.commutation_gauge": "acceptance: criterion 11 reads the gauge",
    "oracle.spectral_decompose": "acceptance: criterion 11",
    "report.Report.fail": "failure path: records a witness",
    "report.Report.summary": "acceptance: the message of a failed criterion",
    "rmatrix.s_tilde": "the right factor of rblock_triangular, " + TRACER,
    "rmatrix.rblock_triangular": TRACER,
    "rmatrix.FullR.__setattr__": "failure path: refuses mutation",
    "rmatrix._balanced_digits": "failure path: decodes a YBE witness",
    "rmatrix.verify_block_limit": "a reference route of the tests: R(inf) = (-1)^k P per block",
    "stablebasis.class_Zbar": "public API: the attracting classes of the paper",
}


def _function_keys(path):
    """(qualified name, (file, name, first line)) of every def in a module.

    The first line of a decorated function's code object is its first decorator's.
    """
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((prefix + child.name, (path.name, child.name, first)))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return out


def test_src_functions_the_cli_never_calls_are_listed():
    # every suite, export kind, format and flag of the CLI, traced; what it
    # never calls must be exactly the listed names
    src = str(Path(spinr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _REACH_PROBE], env=env, capture_output=True, text=True, check=True
    )
    doc = json.loads(done.stdout)
    assert doc["failed"] == []
    called = {tuple(key) for key in doc["called"]}
    never = {
        f"{path.stem}.{name}"
        for path in Path(spinr.__file__).parent.glob("*.py")
        for name, key in _function_keys(path)
        if key not in called
    }
    assert never == set(NEVER_CALLED_BY_THE_CLI)
