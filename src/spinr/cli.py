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
MAX_K, MAX_N, MAX_TRIALS); a larger value, a negative -k or --block, and a
flag that the chosen verify suite or export kind never reads are usage
errors before any work starts.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import golden, moduli, oracle, rmatrix, stablebasis
from .exactalg import ExactAlgError, parse_rational, ratfun_to_str
from .fracmat import SymMatrix
from .report import Report

SCHEMA_PREFIX = "spinr"
SCHEMA_VERSION = 1

# Upper bounds on the size parameters.  The work grows steeply in each (the
# assembled matrix at -l has (l+1)^2 rows, a sector block at -k/--block has
# k+1, every YBE trial multiplies (l+1)^3-dimensional sector products, and
# fixed-points lists up to 92,547 points at -n 6 -l 12, k <= 24, against
# 2,374,983 at -n 8), so an unbounded value would run until killed.
MAX_ELL = 12
MAX_K = 24
MAX_N = 6
MAX_TRIALS = 10000

# The YBE sampling that verify runs when --trials or --seed is not given.
YBE_TRIALS = 20
YBE_SEED = 7


class UsageError(ValueError):
    """Bad command-line arguments; mapped to exit code 2."""


def _schema(name: str) -> str:
    return f"{SCHEMA_PREFIX}.{name}/{SCHEMA_VERSION}"


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


class RunConfig:
    """The command and its flags; a flag the command does not take keeps its default."""

    def __init__(
        self,
        command: str,
        k: int | None = None,
        n: int | None = None,
        ell: int | None = None,
        block: int | None = None,
        inverse: bool = False,
        at_z: Fraction | None = None,
        suite: str = "all",
        trials: int | None = None,
        seed: int | None = None,
        fmt: str = "json",
        output: str | None = None,
        jobs: int = 1,
        quiet: bool = False,
    ) -> None:
        self.command, self.k, self.n, self.ell, self.block = command, k, n, ell, block
        self.inverse, self.at_z, self.suite, self.trials = inverse, at_z, suite, trials
        self.seed, self.fmt, self.output, self.jobs, self.quiet = seed, fmt, output, jobs, quiet


def _add_common(
    p: argparse.ArgumentParser, formats: list[str], default_fmt: str, seed: int | None = 7
) -> None:
    p.add_argument("--format", dest="fmt", choices=formats, default=default_fmt)
    p.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")
    p.add_argument("--quiet", "-q", action="store_true", help="suppress per-item progress lines")
    p.add_argument("--jobs", "-j", type=int, default=1, help="worker processes for verification cases")
    p.add_argument("--seed", type=int, default=seed, help="seed for random rational sampling")


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
    p.add_argument("--suite", choices=list(_SUITE_READS), default="all")
    p.add_argument("-k", type=int, default=None, help="restrict to one k (default: spec range)")
    p.add_argument("-l", "--ell", dest="ell", type=int, default=None)
    p.add_argument("--trials", type=int, default=None, help=f"YBE trials (default {YBE_TRIALS})")
    _add_common(p, ["json", "text"], "text", seed=None)

    p = sub.add_parser("export", help="unified exporter")
    p.add_argument("--kind", choices=list(_EXPORT_READS), required=True)
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
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if cfg.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if cfg.trials is not None and cfg.trials < 1:
        raise UsageError("--trials must be at least 1")
    _check_upper(cfg.ell, MAX_ELL, "-l")
    _check_upper(cfg.k, MAX_K, "-k")
    _check_upper(cfg.n, MAX_N, "-n")
    _check_upper(cfg.block, MAX_K, "--block")
    _check_upper(cfg.trials, MAX_TRIALS, "--trials")
    for value, flag in ((cfg.k, "-k"), (cfg.block, "--block")):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be nonnegative")
    return cfg


def _check_upper(value: int | None, top: int, flag: str) -> None:
    if value is not None and value > top:
        raise UsageError(f"{flag} must be at most {top}, got {value}")


# Which of -k, -n, -l, --at-z, --trials and --seed each verify suite and
# export kind reads.  A flag given to a route that never reads it is a usage
# error, not ignored.  Only verify checks --seed: the other commands accept
# it and draw nothing.
_SUITE_READS = {
    "inverse": ("k",),
    "linrel": ("k",),
    "residues": ("k",),
    "constructions": ("k",),
    "unitarity": ("k", "ell"),
    "ybe": ("ell", "trials", "seed"),
    "golden": (),
    "oracle": ("ell",),
    "all": ("k", "ell", "trials", "seed"),
}
_EXPORT_READS = {
    "r": ("ell", "at_z"),
    "block": ("k",),
    "s": ("k",),
    "sinv": ("k",),
    "fixed-points": ("k", "n", "ell"),
    "dims": ("n", "ell"),
}


def _refuse_unread(cfg: RunConfig, reads: tuple[str, ...], route: str) -> None:
    flags = [("k", "-k"), ("n", "-n"), ("ell", "-l"), ("at_z", "--at-z"), ("trials", "--trials")]
    if cfg.command == "verify":
        flags.append(("seed", "--seed"))
    for name, flag in flags:
        if name not in reads and getattr(cfg, name) is not None:
            raise UsageError(f"{route} does not read {flag}")


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


def _matrix_doc(name: str, matrix: SymMatrix, extra: dict) -> dict:
    doc = {"schema": _schema(name), **extra, **matrix.to_json()}
    return doc


def _grid(rows: list[list[str]], fmt: str) -> str:
    """A matrix of rendered entries as csv, or as text in columns of equal width."""
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows)
    width = max(len(x) for row in rows for x in row)
    return "\n".join("  ".join(x.ljust(width) for x in row) for row in rows)


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
        if cfg.at_z is not None:
            raise UsageError("--at-z evaluates the assembled R-matrix, not a generic sector block")
        matrix = rmatrix.rblock_closed(cfg.block)
        extra = {"k": cfg.block, "variables": ["z", "phi", "eps"]}
        return _emit_matrix(cfg, "r-block", matrix, extra)
    if cfg.at_z is not None:
        _require_format(cfg, ("json", "text", "csv"), "compute-r --at-z")
    full = rmatrix.assemble_full(cfg.ell)
    if cfg.at_z is not None:
        numeric = [[str(x) for x in row] for row in full.at_z(cfg.at_z)]
        if cfg.fmt == "json":
            doc = {
                "schema": _schema("r-matrix-at"),
                "ell": cfg.ell,
                "z": str(cfg.at_z),
                "entries": numeric,
            }
            _emit(cfg, _json_doc(doc))
        else:
            _emit(cfg, _grid(numeric, cfg.fmt))
        return 0
    doc_extra = {"ell": cfg.ell, "basis_order": "lex(a,b)"}
    return _emit_matrix(cfg, "r-matrix", full.lowest_terms(), doc_extra)


def _emit_matrix(cfg: RunConfig, name: str, matrix: SymMatrix, extra: dict) -> int:
    if cfg.fmt == "json":
        _emit(cfg, _json_doc(_matrix_doc(name, matrix, extra)))
    elif cfg.fmt == "latex":
        _emit(cfg, matrix.to_latex())
    else:
        _emit(cfg, _grid([[ratfun_to_str(e) for e in row] for row in matrix.entries], cfg.fmt))
    return 0


def cmd_compute_s(cfg: RunConfig) -> int:
    matrix = stablebasis.S_inverse(cfg.k) if cfg.inverse else stablebasis.S_matrix(cfg.k)
    name = "s-inverse" if cfg.inverse else "s-matrix"
    return _emit_matrix(cfg, name, matrix, {"k": cfg.k})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

Case = tuple[str, dict]

# The largest k each generic-block suite runs when -k is not given.
_SUITE_DEFAULTS = {
    "inverse": 6,
    "linrel": 5,
    "residues": 4,
    "constructions": 6,
    "unitarity": 6,
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
            for k in ks(_SUITE_DEFAULTS[suite]):
                cases.append((suite, {"k": k}))
        elif suite == "unitarity":
            for k in ks(_SUITE_DEFAULTS["unitarity"]):
                cases.append(("unitarity_block", {"k": k}))
            for l in [ell] if ell else [1, 2]:
                cases.append(("unitarity_full", {"ell": l}))
                cases.append(("identity_at_zero", {"ell": l}))
        elif suite == "ybe":
            for l in [ell] if ell else [2]:
                trials = YBE_TRIALS if cfg.trials is None else cfg.trials
                seed = YBE_SEED if cfg.seed is None else cfg.seed
                cases.append(("ybe", {"ell": l, "trials": trials, "seed": seed}))
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
    _refuse_unread(cfg, _SUITE_READS[cfg.suite], f"verify --suite {cfg.suite}")
    cases = _suite_cases(cfg)
    workers = worker_count(cfg.jobs, len(cases))
    if workers > 1:
        # imported here: the pool loads multiprocessing, which a --jobs 1 run never needs
        from concurrent.futures import ProcessPoolExecutor

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
        _refuse_unread(cfg, _EXPORT_READS[kind], f"export --kind {kind}")
        if kind == "r":
            if cfg.ell is None:
                raise UsageError("export --kind r requires -l")
            return cmd_compute_r(cfg)
        if kind in ("block", "s", "sinv"):
            if cfg.k is None:
                raise UsageError(f"export --kind {kind} requires -k")
            if kind == "block":
                cfg.block, cfg.ell = cfg.k, 1
                return cmd_compute_r(cfg)
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


def _attach_at_z(argv: list[str]) -> list[str]:
    """``--at-z VALUE`` as ``--at-z=VALUE`` when VALUE is negative.

    argparse reads a token such as -1/3 as an option, so a negative p/q
    after ``--at-z`` would never reach ``parse_rational`` as its value.  So
    are the abbreviations ``--a``, ``--at`` and ``--at-`` that argparse accepts.
    """
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        negative = token[:1] == "-" and token[1:2].isdigit()
        if negative and len(option) >= 3 and "--at-z".startswith(option):
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_at_z(sys.argv[1:] if argv is None else argv))
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
