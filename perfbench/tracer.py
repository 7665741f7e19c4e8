"""Run one ``spinr`` CLI invocation with a span around every call into a layer.

Usage: python3 perfbench/tracer.py OUT_PREFIX OP_ID -- <spinr arguments>

The tracer imports ``spinr`` from ``PYTHONPATH``, replaces every binding of
each traced function (module globals, dict values such as
``golden.GOLDEN_CHECKS``, and methods on their class) with a recording
wrapper, then calls ``spinr.cli.main``.  Spans stay in memory as parallel
arrays (name, parent, start, end) and are written at exit:

* ``OUT_PREFIX.bin``  -- the four arrays, one after the other;
* ``OUT_PREFIX.json`` -- op id, span count, span names and work counters.

Stdout belongs to ``spinr`` alone, so the traced output can be gated exactly
like an untraced one.  The exit code is the CLI's.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
from typing import Callable

# (span name, module, attribute path).  A dotted attribute path is a method,
# patched on its class.
TARGETS = [
    ("exactalg.mpoly_mul", "spinr.exactalg", "MPoly.__mul__"),
    ("exactalg.mpoly_add", "spinr.exactalg", "MPoly.__add__"),
    ("exactalg.mpoly_substitute", "spinr.exactalg", "MPoly.substitute"),
    ("exactalg.mpoly_eval_rational", "spinr.exactalg", "MPoly.eval_rational"),
    ("exactalg.mpoly_exact_div", "spinr.exactalg", "mpoly_exact_div"),
    ("exactalg.factored_expand", "spinr.exactalg", "FactoredRat.expand"),
    ("exactalg.factored_sum", "spinr.exactalg", "factored_sum"),
    ("exactalg.ratfun_value_eq", "spinr.exactalg", "RatFun.value_eq"),
    ("exactalg.residue_at", "spinr.exactalg", "residue_at"),
    ("exactalg.cancel_common_z_roots", "spinr.exactalg", "cancel_common_z_roots"),
    ("exactalg.ratfun_to_str", "spinr.exactalg", "ratfun_to_str"),
    ("fracmat.mat_mul", "spinr.fracmat", "mat_mul"),
    ("stablebasis.symmatrix_mul", "spinr.stablebasis", "SymMatrix.mul"),
    ("stablebasis.S_matrix", "spinr.stablebasis", "S_matrix"),
    ("stablebasis.S_inverse", "spinr.stablebasis", "S_inverse"),
    ("stablebasis.verify_inverse", "spinr.stablebasis", "verify_inverse"),
    ("stablebasis.verify_linrel", "spinr.stablebasis", "verify_linrel"),
    ("stablebasis.verify_residues_all", "spinr.stablebasis", "verify_residues_all"),
    ("rmatrix.rblock_closed", "spinr.rmatrix", "rblock_closed"),
    ("rmatrix.rblock_triangular", "spinr.rmatrix", "rblock_triangular"),
    ("rmatrix.specialize_block", "spinr.rmatrix", "specialize_block"),
    ("rmatrix.assemble_full", "spinr.rmatrix", "assemble_full"),
    ("rmatrix.at_z", "spinr.rmatrix", "FullR.at_z"),
    ("oracle.verify_sl2_commutation", "spinr.oracle", "verify_sl2_commutation"),
    ("oracle.verify_spectrum", "spinr.oracle", "verify_spectrum"),
    ("cli.main", "spinr.cli", "main"),
]

# Functions whose distinct first arguments are counted, for reuse ratios.
DISTINCT_ARGS = ("rmatrix.rblock_closed", "rmatrix.assemble_full")


class Recorder:
    """In-memory span store: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_ARGS}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        name_of: Callable[[tuple], str] | None = None,
        on_return: Callable[[tuple, object], None] | None = None,
    ) -> Callable:
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(self.name_id(name_of(args)) if name_of else nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def count_product(self, args: tuple, result) -> None:
        """Work counters of one MPoly product: term pairs and largest operand or result."""
        na, nb, nr = len(args[0].terms), len(args[1].terms), len(result.terms)
        c = self.counters
        c["exactalg.mpoly_mul.term_pairs"] = c.get("exactalg.mpoly_mul.term_pairs", 0) + na * nb
        c["exactalg.mpoly_mul.max_terms"] = max(c.get("exactalg.mpoly_mul.max_terms", 0), na, nb, nr)

    def remember_arg(self, name: str) -> Callable[[tuple, object], None]:
        seen = self.distinct[name]
        return lambda args, result: seen.add(args[0])

    def write(self, prefix: str, op_id: int) -> None:
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "op": op_id,
            "spans": len(self.start),
            "names": self.names,
            "counters": self.counters,
            "distinct": {name: len(seen) for name, seen in self.distinct.items()},
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _spinr_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "spinr" or name.startswith("spinr.")]


def _rebind(original: Callable, wrapper: Callable) -> int:
    """Replace every module-level binding of ``original``, also inside module dicts."""
    hits = 0
    for mod in _spinr_modules():
        space = vars(mod)
        for attr, value in list(space.items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        hits += 1
    return hits


def install(rec: Recorder) -> None:
    """Patch every traced function in every loaded spinr module."""
    importlib.import_module("spinr")
    cli = importlib.import_module("spinr.cli")
    golden = importlib.import_module("spinr.golden")
    for name, module, path in TARGETS:
        mod = importlib.import_module(module)
        on_return = None
        if name == "exactalg.mpoly_mul":
            on_return = rec.count_product
        elif name in DISTINCT_ARGS:
            on_return = rec.remember_arg(name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(name, vars(cls)[meth], on_return=on_return))
        else:
            original = getattr(mod, path)
            if _rebind(original, rec.wrap(name, original, on_return=on_return)) == 0:
                raise RuntimeError(f"no binding of {module}.{path} found")
    for check in set(golden.GOLDEN_CHECKS.values()):
        _rebind(check, rec.wrap("golden.checks", check))
    original = cli._run_case
    _rebind(original, rec.wrap("cli.case", original, name_of=lambda args: f"cli.case.{args[0][0]}"))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    prefix, op_id, spinr_args = argv[0], int(argv[1]), argv[3:]
    rec = Recorder()
    install(rec)
    cli = sys.modules["spinr.cli"]
    try:
        code = cli.main(spinr_args)
    finally:
        sys.stdout.flush()
        rec.write(prefix, op_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
