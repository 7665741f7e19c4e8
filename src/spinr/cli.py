"""Command-line front end: compute, verify, and export.

Commands
--------
fixed-points   enumerate torus-fixed points for (k, n, ell)
dims           tabulate variety dimensions and weight-space dimensions
compute-r      assemble the spin-ell/2 R-matrix (or one generic sector block)
compute-s      the stable-class matrix S (or its closed-form inverse) at k
verify         run verification suites; exit 0 iff everything passes
export         unified exporter routing to the writers of the commands above

Rationals on the command line are always integers or "p/q" strings; decimal
input is rejected.  Output is byte-deterministic for a fixed configuration:
results are ordered by case index, never by completion time, also under
--jobs parallelism.  Size parameters have fixed upper bounds (MAX_ELL,
MAX_K, MAX_TRIALS); a larger value is a usage error before any work starts.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import golden, moduli, oracle, rmatrix, stablebasis
from .exactalg import ExactAlgError, parse_rational, ratfun_to_str
from .report import Report

SCHEMA_PREFIX = "spinr"
SCHEMA_VERSION = 1

# Upper bounds on the size parameters.  The work grows steeply in each (the
# assembled matrix at -l has (l+1)^2 rows, a sector block at -k/--block has
# k+1, and every YBE trial multiplies (l+1)^3-dimensional sector products),
# so an unbounded value would run until killed.
MAX_ELL = 12
MAX_K = 24
MAX_TRIALS = 10000


class UsageError(ValueError):
    """Bad command-line arguments; mapped to exit code 2."""


def _schema(name: str) -> str:
    return f"{SCHEMA_PREFIX}.{name}/{SCHEMA_VERSION}"


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    k: int | None = None
    n: int | None = None
    ell: int | None = None
    block: int | None = None
    inverse: bool = False
    at_z: Fraction | None = None
    suite: str = "all"
    trials: int = 20
    seed: int = 7
    fmt: str = "json"
    output: str | None = None
    jobs: int = 1
    quiet: bool = False


def _add_common(p: argparse.ArgumentParser, formats: list[str], default_fmt: str) -> None:
    p.add_argument("--format", dest="fmt", choices=formats, default=default_fmt)
    p.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")
    p.add_argument("--quiet", "-q", action="store_true", help="suppress per-item progress lines")
    p.add_argument("--jobs", "-j", type=int, default=1, help="worker processes for verification cases")
    p.add_argument("--seed", type=int, default=7, help="seed for random rational sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinr",
        description="Exact rational sl2 R-matrices for arbitrary spin, with symbolic verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixed-points", help="enumerate torus-fixed points")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", "--ell", dest="ell", type=int, required=True)
    _add_common(p, ["json", "text"], "json")

    p = sub.add_parser("dims", help="tabulate dimensions across k")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", "--ell", dest="ell", type=int, required=True)
    _add_common(p, ["json", "text", "csv"], "json")

    p = sub.add_parser("compute-r", help="assemble the spin-ell/2 R-matrix")
    p.add_argument("-l", "--ell", dest="ell", type=int, required=True)
    p.add_argument("--block", type=int, default=None, help="emit one generic sector block instead")
    p.add_argument("--at-z", dest="at_z", default=None, help='evaluate at a rational z ("p/q")')
    _add_common(p, ["json", "text", "csv", "latex"], "json")

    p = sub.add_parser("compute-s", help="stable-class matrix S (or its inverse) at k")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--inverse", action="store_true", help="emit the closed-form inverse instead")
    _add_common(p, ["json", "text", "latex"], "json")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        choices=[
            "inverse",
            "linrel",
            "residues",
            "constructions",
            "unitarity",
            "ybe",
            "golden",
            "oracle",
            "all",
        ],
        default="all",
    )
    p.add_argument("-k", type=int, default=None, help="restrict to one k (default: spec range)")
    p.add_argument("-l", "--ell", dest="ell", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)
    _add_common(p, ["json", "text"], "text")

    p = sub.add_parser("export", help="unified exporter")
    p.add_argument(
        "--kind",
        choices=["r", "block", "s", "sinv", "fixed-points", "dims"],
        required=True,
    )
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-l", "--ell", dest="ell", type=int, default=None)
    p.add_argument("--at-z", dest="at_z", default=None)
    _add_common(p, ["json", "text", "csv", "latex"], "json")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("k", "n", "ell", "block", "inverse", "suite", "trials", "seed", "fmt", "output", "jobs", "quiet"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    at_z = getattr(args, "at_z", None)
    if at_z is not None:
        try:
            cfg.at_z = parse_rational(at_z)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(str(exc)) from exc
    if cfg.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if cfg.trials < 1:
        raise UsageError("--trials must be at least 1")
    kind = getattr(args, "kind", None)
    if cfg.command in ("compute-r", "verify") or kind == "r":
        _check_upper(cfg.ell, MAX_ELL, "-l")
    if cfg.command in ("compute-s", "verify", "export"):
        _check_upper(cfg.k, MAX_K, "-k")
    _check_upper(cfg.block, MAX_K, "--block")
    _check_upper(cfg.trials, MAX_TRIALS, "--trials")
    return cfg


def _check_upper(value: int | None, top: int, flag: str) -> None:
    if value is not None and value > top:
        raise UsageError(f"{flag} must be at most {top}, got {value}")


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _emit(cfg: RunConfig, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _matrix_doc(name: str, matrix: stablebasis.SymMatrix, extra: dict) -> dict:
    doc = {"schema": _schema(name), **extra, **matrix.to_json()}
    return doc


def _frac_csv(rows: list[list[Fraction]]) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows)


def _require_format(cfg: RunConfig, formats: tuple[str, ...], what: str) -> None:
    """Reject a --format the writer for `what` cannot produce."""
    if cfg.fmt not in formats:
        raise UsageError(f"{what} has no {cfg.fmt} output (formats: {', '.join(formats)})")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fixed_points(cfg: RunConfig) -> int:
    _require_format(cfg, ("json", "text"), "fixed-points")
    points = moduli.fixed_points(cfg.k, cfg.n, cfg.ell)
    if cfg.fmt == "json":
        doc = {
            "schema": _schema("fixed-points"),
            "k": cfg.k,
            "n": cfg.n,
            "ell": cfg.ell,
            "points": [p.to_json() for p in points],
        }
        _emit(cfg, _json_doc(doc))
    else:
        _emit(cfg, "\n".join(str(p) for p in points) if points else "(none)")
    return 0


def cmd_dims(cfg: RunConfig) -> int:
    if cfg.n < 1 or cfg.ell < 1:
        raise UsageError("-n and -l must be at least 1")
    _require_format(cfg, ("json", "text", "csv"), "dims")
    rows = []
    for k in range(cfg.n * cfg.ell + 1):
        rows.append(
            {
                "k": k,
                "dim_variety": moduli.dim_M1(k, cfg.n, cfg.ell),
                "weight_space": moduli.weight_space_dim(k, cfg.n, cfg.ell),
            }
        )
    if cfg.fmt == "json":
        doc = {"schema": _schema("dims"), "n": cfg.n, "ell": cfg.ell, "rows": rows}
        _emit(cfg, _json_doc(doc))
    elif cfg.fmt == "csv":
        lines = ["k,dim_variety,weight_space"]
        lines += [f"{r['k']},{r['dim_variety']},{r['weight_space']}" for r in rows]
        _emit(cfg, "\n".join(lines))
    else:
        lines = [f"{'k':>3} {'dim':>5} {'weight-space':>13}"]
        lines += [f"{r['k']:>3} {r['dim_variety']:>5} {r['weight_space']:>13}" for r in rows]
        _emit(cfg, "\n".join(lines))
    return 0


def cmd_compute_r(cfg: RunConfig) -> int:
    if cfg.ell < 1:
        raise UsageError("spin parameter -l must be at least 1")
    if cfg.block is not None:
        if cfg.block < 0:
            raise UsageError("--block must be nonnegative")
        if cfg.at_z is not None:
            raise UsageError("--at-z evaluates the assembled R-matrix, not a generic sector block")
        matrix = rmatrix.rblock_closed(cfg.block).matrix
        extra = {"k": cfg.block, "variables": ["z", "phi", "eps"]}
        return _emit_matrix(cfg, "r-block", matrix, extra)
    if cfg.at_z is not None:
        _require_format(cfg, ("json", "text", "csv"), "compute-r --at-z")
    full = rmatrix.assemble_full(cfg.ell)
    if cfg.at_z is not None:
        numeric = full.at_z(cfg.at_z)
        if cfg.fmt == "json":
            doc = {
                "schema": _schema("r-matrix-at"),
                "ell": cfg.ell,
                "z": str(cfg.at_z),
                "entries": [[str(x) for x in row] for row in numeric],
            }
            _emit(cfg, _json_doc(doc))
        else:
            _emit(cfg, _frac_csv(numeric))
        return 0
    doc_extra = {"ell": cfg.ell, "basis_order": "lex(a,b)"}
    return _emit_matrix(cfg, "r-matrix", full.matrix, doc_extra)


def _emit_matrix(cfg: RunConfig, name: str, matrix: stablebasis.SymMatrix, extra: dict) -> int:
    if cfg.fmt == "json":
        _emit(cfg, _json_doc(_matrix_doc(name, matrix, extra)))
    elif cfg.fmt == "latex":
        _emit(cfg, matrix.to_latex())
    elif cfg.fmt == "csv":
        _emit(cfg, "\n".join(",".join(ratfun_to_str(e) for e in row) for row in matrix.entries))
    else:
        width = max(len(ratfun_to_str(e)) for row in matrix.entries for e in row)
        lines = [
            "  ".join(ratfun_to_str(e).ljust(width) for e in row) for row in matrix.entries
        ]
        _emit(cfg, "\n".join(lines))
    return 0


def cmd_compute_s(cfg: RunConfig) -> int:
    if cfg.k < 0:
        raise UsageError("-k must be nonnegative")
    matrix = stablebasis.S_inverse(cfg.k) if cfg.inverse else stablebasis.S_matrix(cfg.k)
    name = "s-inverse" if cfg.inverse else "s-matrix"
    return _emit_matrix(cfg, name, matrix, {"k": cfg.k})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

Case = tuple[str, dict]

_SUITE_DEFAULTS = {
    "inverse": {"k_max": 6},
    "linrel": {"k_max": 5},
    "residues": {"k_max": 4},
    "constructions": {"k_max": 6},
    "unitarity": {"k_max": 6},
}


def _run_golden_case(name: str) -> Report:
    return golden.GOLDEN_CHECKS[name]()


def _run_case(case: Case) -> dict:
    kind, kwargs = case
    runners = {
        "inverse": stablebasis.verify_inverse,
        "linrel": stablebasis.verify_linrel,
        "residues": stablebasis.verify_residues_all,
        "constructions": rmatrix.verify_equal_constructions,
        "unitarity_block": rmatrix.verify_unitarity_block,
        "unitarity_full": rmatrix.verify_unitarity_full,
        "identity_at_zero": rmatrix.verify_identity_at_zero,
        "ybe": rmatrix.ybe_trials,
        "golden": _run_golden_case,
        "commutation": lambda ell: oracle.verify_sl2_commutation(rmatrix.assemble_full(ell)),
        "spectrum": oracle.verify_spectrum,
    }
    report = runners[kind](**kwargs)
    return report.to_json()


def _suite_cases(cfg: RunConfig) -> list[Case]:
    ks = lambda top: [cfg.k] if cfg.k is not None else list(range(top + 1))
    ell = cfg.ell
    cases: list[Case] = []
    suites = (
        ["inverse", "linrel", "residues", "constructions", "unitarity", "ybe", "golden", "oracle"]
        if cfg.suite == "all"
        else [cfg.suite]
    )
    for suite in suites:
        if suite in ("inverse", "linrel", "residues", "constructions"):
            for k in ks(_SUITE_DEFAULTS[suite]["k_max"]):
                cases.append((suite if suite != "constructions" else "constructions", {"k": k}))
        elif suite == "unitarity":
            for k in ks(_SUITE_DEFAULTS["unitarity"]["k_max"]):
                cases.append(("unitarity_block", {"k": k}))
            for l in [ell] if ell else [1, 2]:
                cases.append(("unitarity_full", {"ell": l}))
                cases.append(("identity_at_zero", {"ell": l}))
        elif suite == "ybe":
            for l in [ell] if ell else [2]:
                cases.append(("ybe", {"ell": l, "trials": cfg.trials, "seed": cfg.seed}))
        elif suite == "golden":
            for name in golden.GOLDEN_CHECKS:
                cases.append(("golden", {"name": name}))
        elif suite == "oracle":
            for l in [ell] if ell else [1, 2]:
                cases.append(("commutation", {"ell": l}))
                cases.append(("spectrum", {"ell": l}))
    return cases


def worker_count(jobs: int, cases: int) -> int:
    """Worker processes for a verify run: at most one per case and per CPU.

    The pool forks every worker up front, so an unclamped --jobs would start
    that many processes however few cases or CPUs there are.
    """
    return min(jobs, cases, os.cpu_count() or 1)


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.ell is not None and cfg.ell < 1:
        raise UsageError("spin parameter -l must be at least 1")
    if cfg.k is not None and cfg.k < 0:
        raise UsageError("-k must be nonnegative")
    cases = _suite_cases(cfg)
    workers = worker_count(cfg.jobs, len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_case, cases))
    else:
        results = [_run_case(c) for c in cases]
    all_passed = all(r["status"] == "pass" for r in results)
    if cfg.fmt == "json":
        doc = {
            "schema": _schema("verify"),
            "suite": cfg.suite,
            "results": results,
            "all_passed": all_passed,
        }
        _emit(cfg, _json_doc(doc))
    else:
        lines = []
        if not cfg.quiet:
            for r in results:
                args = ", ".join(f"{k}={v}" for k, v in r["params"].items())
                lines.append(f"{r['check']}({args}): {r['status']}")
        lines.append("all checks passed" if all_passed else "FAILURES detected")
        _emit(cfg, "\n".join(lines))
    if not all_passed:
        first = next(r for r in results if r["status"] != "pass")
        sys.stderr.write(f"first failure: {json.dumps(first)}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.command == "fixed-points":
        return cmd_fixed_points(cfg)
    if cfg.command == "dims":
        return cmd_dims(cfg)
    if cfg.command == "compute-r":
        return cmd_compute_r(cfg)
    if cfg.command == "compute-s":
        return cmd_compute_s(cfg)
    if cfg.command == "verify":
        return cmd_verify(cfg)
    if cfg.command == "export":
        kind = args.kind
        if kind == "r":
            if cfg.ell is None:
                raise UsageError("export --kind r requires -l")
            return cmd_compute_r(cfg)
        if kind == "block":
            if cfg.k is None:
                raise UsageError("export --kind block requires -k")
            cfg.block = cfg.k
            cfg.ell = cfg.ell or 1
            return cmd_compute_r(cfg)
        if kind in ("s", "sinv"):
            if cfg.k is None:
                raise UsageError(f"export --kind {kind} requires -k")
            cfg.inverse = kind == "sinv"
            return cmd_compute_s(cfg)
        if kind == "fixed-points":
            if None in (cfg.k, cfg.n, cfg.ell):
                raise UsageError("export --kind fixed-points requires -k, -n, -l")
            return cmd_fixed_points(cfg)
        if kind == "dims":
            if None in (cfg.n, cfg.ell):
                raise UsageError("export --kind dims requires -n, -l")
            return cmd_dims(cfg)
    raise UsageError(f"unknown command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return _dispatch(cfg, args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except moduli.DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except ExactAlgError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
