"""Command-line front end: compute, verify, and export.

Commands
--------
fixed-points   enumerate torus-fixed points for (k, n, ell)
dims           tabulate variety dimensions and weight-space dimensions
compute-r      assemble the spin-ell/2 R-matrix (or one generic sector block)
compute-s      the stable-class matrix S (or its closed-form inverse) at k
verify         run verification suites; exit 0 iff everything passes
export         unified exporter routing to the writers of the commands above

The parsed argparse namespace is the run's configuration: every subcommand
carries its handler and takes only the flags it reads (a flag it does not
take reads as not given).  --quiet is verify's alone, and verify's --seed
seeds its YBE sampling.  verify and compute-r take --jobs, and compute-r
takes --seed, only because the benchmark harness (perfbench/run.py) passes
--seed S --jobs 1 to every op; no command reads --jobs.  verify, export and
compute-r check their route with ``_check_route``, against ``_SUITES``
(suite -> the flags it reads and its cases in run order; ``all`` runs the
other rows in table order), ``_EXPORTS`` (kind -> the flags it reads, the
flags it requires and its writer) and compute-r's two routes (-l, --at-z and
--seed with -l required; --block reads only --seed).  A flag given to a
route that never reads it is a usage error, not ignored, and a new suite or
export kind is one row.

Rationals on the command line are always integers or "p/q" strings; decimal
input is rejected.  Output is byte-deterministic for a fixed configuration:
verify runs its cases in one process, in case order, so every case reuses
the memos of those before it.  One table, ``_RANGES``, holds the least and
greatest value of every integer flag (MAX_ELL, MAX_K, MAX_N, MAX_TRIALS),
and --at-z has at most MAX_AT_Z_DIGITS digits; a value outside them is a
usage error before any work starts.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

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
# Digits of the numerator and of the denominator of --at-z.  At MAX_ELL an
# evaluated entry is q^12 N(p/q) / (q^12 D(p/q)), and both ints are at most
# 13! max(|p|, q)^12 in absolute value (13! bounds the sum of the |N_e| and
# prod (1 + j)), so at most 12 * 350 + 10 = 4210 digits: every entry prints
# within Python's default int-to-str limit of 4300 digits.
MAX_AT_Z_DIGITS = 350

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


def _add_common(p: argparse.ArgumentParser, formats: list[str], default_fmt: str) -> None:
    p.add_argument("--format", dest="fmt", choices=formats, default=default_fmt)
    p.add_argument("--output", "-o", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinr",
        description="Exact rational sl2 R-matrices for arbitrary spin, with symbolic verification.",
    )
    # a flag the chosen command does not take reads as not given
    parser.set_defaults(
        k=None, n=None, ell=None, block=None, inverse=False, at_z=None, trials=None, jobs=None, seed=None
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixed-points", help="enumerate torus-fixed points")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", "--ell", dest="ell", type=int, required=True)
    _add_common(p, ["json", "text"], "json")
    p.set_defaults(run=cmd_fixed_points)

    p = sub.add_parser("dims", help="tabulate dimensions across k")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", "--ell", dest="ell", type=int, required=True)
    _add_common(p, ["json", "text", "csv"], "json")
    p.set_defaults(run=cmd_dims)

    p = sub.add_parser("compute-r", help="assemble the spin-ell/2 R-matrix")
    p.add_argument("-l", "--ell", dest="ell", type=int, default=None, help="required without --block")
    p.add_argument("--block", type=int, default=None, help="emit one generic sector block instead")
    p.add_argument("--at-z", dest="at_z", default=None, help='evaluate at a rational z ("p/q")')
    p.add_argument("--jobs", "-j", type=int, default=1, help="unused; perfbench/run.py passes it")
    p.add_argument("--seed", type=int, default=None, help="unused; perfbench/run.py passes it")
    _add_common(p, ["json", "text", "csv", "latex"], "json")
    p.set_defaults(run=cmd_compute_r)

    p = sub.add_parser("compute-s", help="stable-class matrix S (or its inverse) at k")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--inverse", action="store_true", help="emit the closed-form inverse instead")
    _add_common(p, ["json", "text", "csv", "latex"], "json")
    p.set_defaults(run=cmd_compute_s)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=list(_SUITES), default="all")
    p.add_argument("-k", type=int, default=None, help="restrict to one k (default: spec range)")
    p.add_argument("-l", "--ell", dest="ell", type=int, default=None)
    proof = "(2l)^2 or more make the verdict a proof"
    p.add_argument("--trials", type=int, default=None, help=f"YBE trials (default {YBE_TRIALS}); {proof}")
    p.add_argument("--seed", type=int, default=None, help="seed for random rational sampling")
    p.add_argument("--jobs", "-j", type=int, default=1, help="unused; perfbench/run.py passes it")
    p.add_argument("--quiet", "-q", action="store_true", help="suppress per-item progress lines")
    _add_common(p, ["json", "text"], "text")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("export", help="unified exporter")
    p.add_argument("--kind", choices=list(_EXPORTS), required=True)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-l", "--ell", dest="ell", type=int, default=None)
    p.add_argument("--at-z", dest="at_z", default=None)
    _add_common(p, ["json", "text", "csv", "latex"], "json")
    p.set_defaults(run=cmd_export)
    return parser


# Every integer flag: its namespace name, its spelling in messages, its
# least value and its greatest (None: no command reads --jobs).
_RANGES = (
    ("ell", "-l", 1, MAX_ELL),
    ("k", "-k", 0, MAX_K),
    ("n", "-n", 1, MAX_N),
    ("block", "--block", 0, MAX_K),
    ("trials", "--trials", 1, MAX_TRIALS),
    ("jobs", "--jobs", 1, None),
)


def _config_from_args(cfg: argparse.Namespace) -> argparse.Namespace:
    """The parsed arguments, ranges checked and --at-z parsed in place."""
    if cfg.at_z is not None:
        try:
            cfg.at_z = parse_rational(cfg.at_z)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if max(abs(cfg.at_z.numerator), cfg.at_z.denominator) >= 10**MAX_AT_Z_DIGITS:
            raise UsageError(
                f"--at-z must have at most {MAX_AT_Z_DIGITS} digits in its numerator and denominator"
            )
    for name, flag, least, top in _RANGES:
        value = getattr(cfg, name)
        if value is not None and value < least:
            raise UsageError(f"{flag} must be " + ("nonnegative" if least == 0 else f"at least {least}"))
        if value is not None and top is not None and value > top:
            raise UsageError(f"{flag} must be at most {top}, got {value}")
    return cfg


# The flags a route may read or require, by namespace name, as spelled in messages.
_FLAGS = {"k": "-k", "n": "-n", "ell": "-l", "at_z": "--at-z", "trials": "--trials", "seed": "--seed"}


def _check_route(
    cfg: argparse.Namespace, reads: tuple[str, ...], requires: tuple[str, ...], route: str
) -> None:
    """Refuse a given flag that `route` never reads, then a missing one it requires."""
    for name, flag in _FLAGS.items():
        if name not in reads and getattr(cfg, name) is not None:
            raise UsageError(f"{route} does not read {flag}")
    if any(getattr(cfg, name) is None for name in requires):
        raise UsageError(f"{route} requires {', '.join(_FLAGS[name] for name in requires)}")


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _grid(rows: list[list[str]], fmt: str) -> str:
    """A matrix of rendered entries as csv, or as text in columns of equal width."""
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows)
    width = max(len(x) for row in rows for x in row)
    return "\n".join("  ".join(x.ljust(width) for x in row) for row in rows)


def _require_format(cfg: argparse.Namespace, formats: tuple[str, ...], flag: str = "") -> None:
    """Reject a --format the writer cannot produce, naming the route as typed plus `flag`."""
    if cfg.fmt not in formats:
        route = f"export --kind {cfg.kind}" if cfg.command == "export" else cfg.command
        raise UsageError(f"{route}{flag} has no {cfg.fmt} output (formats: {', '.join(formats)})")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fixed_points(cfg: argparse.Namespace) -> int:
    _require_format(cfg, ("json", "text"))
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


def cmd_dims(cfg: argparse.Namespace) -> int:
    _require_format(cfg, ("json", "text", "csv"))
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


def cmd_compute_r(cfg: argparse.Namespace) -> int:
    if cfg.block is not None:
        _check_route(cfg, ("seed",), (), "compute-r --block")
        return _emit_block(cfg, cfg.block)
    _check_route(cfg, ("ell", "at_z", "seed"), ("ell",), "compute-r")
    if cfg.at_z is not None:
        _require_format(cfg, ("json", "text", "csv"), " --at-z")
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
    return _emit_matrix(cfg, "r-matrix", full.lowest_terms(), doc_extra, full.labels)


def _emit_block(cfg: argparse.Namespace, k: int) -> int:
    """The generic sector-k block, for compute-r --block and export --kind block."""
    extra = {"k": k, "variables": ["z", "phi", "eps"]}
    return _emit_matrix(cfg, "r-block", rmatrix.rblock_closed(k), extra)


def _emit_matrix(
    cfg: argparse.Namespace, name: str, matrix: SymMatrix, extra: dict, labels: list | None = None
) -> int:
    if cfg.fmt == "json":
        _emit(cfg, _json_doc({"schema": _schema(name), **extra, **matrix.to_json(labels)}))
    elif cfg.fmt == "latex":
        _emit(cfg, matrix.to_latex())
    else:
        _emit(cfg, _grid([[ratfun_to_str(e) for e in row] for row in matrix.entries], cfg.fmt))
    return 0


def cmd_compute_s(cfg: argparse.Namespace, inverse: bool = False) -> int:
    """S at k, or its closed-form inverse for --inverse and export --kind sinv."""
    inverse = inverse or cfg.inverse
    matrix = stablebasis.S_inverse(cfg.k) if inverse else stablebasis.S_matrix(cfg.k)
    return _emit_matrix(cfg, "s-inverse" if inverse else "s-matrix", matrix, {"k": cfg.k})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

Case = tuple[str, dict]
CaseMaker = Callable[[argparse.Namespace], list[Case]]


def _per_k(kind: str, top: int) -> CaseMaker:
    """One case of `kind` for -k, or for each k = 0..top when -k is not given."""
    return lambda cfg: [(kind, {"k": k}) for k in ([cfg.k] if cfg.k is not None else range(top + 1))]


def _per_ell(kinds: tuple[str, ...], default: tuple[int, ...]) -> CaseMaker:
    """One case of each kind for -l, or for each ell in `default` when -l is not given."""
    return lambda cfg: [
        (kind, {"ell": l}) for l in ([cfg.ell] if cfg.ell else default) for kind in kinds
    ]


def _ybe_cases(cfg: argparse.Namespace) -> list[Case]:
    trials = YBE_TRIALS if cfg.trials is None else cfg.trials
    seed = YBE_SEED if cfg.seed is None else cfg.seed
    ells = [cfg.ell] if cfg.ell else [2]
    return [("ybe", {"ell": l, "trials": trials, "seed": seed}) for l in ells]


# suite -> (the flags it reads, its case makers in run order).  The largest k
# of a generic-block suite is what it runs when -k is not given.  "all" runs
# the rows above it in table order; a row added after it stays out of it.
_SUITES: dict[str, tuple[tuple[str, ...], tuple[CaseMaker, ...]]] = {
    "inverse": (("k",), (_per_k("inverse", 6),)),
    "linrel": (("k",), (_per_k("linrel", 5),)),
    "residues": (("k",), (_per_k("residues", 4),)),
    "constructions": (("k",), (_per_k("constructions", 6),)),
    "unitarity": (
        ("k", "ell"),
        (_per_k("unitarity_block", 6), _per_ell(("unitarity_full", "identity_at_zero"), (1, 2))),
    ),
    "ybe": (("ell", "trials", "seed"), (_ybe_cases,)),
    "golden": ((), (lambda cfg: [("golden", {"name": name}) for name in golden.GOLDEN_CHECKS],)),
    "oracle": (("ell",), (_per_ell(("commutation", "spectrum"), (1, 2)),)),
}
_SUITES["all"] = (
    ("k", "ell", "trials", "seed"),
    tuple(make for _, makers in _SUITES.values() for make in makers),
)

# case kind -> the check it runs, called with the case's keyword arguments
_RUNNERS: dict[str, Callable[..., Report]] = {
    "inverse": stablebasis.verify_inverse,
    "linrel": stablebasis.verify_linrel,
    "residues": stablebasis.verify_residues_all,
    "constructions": rmatrix.verify_equal_constructions,
    "unitarity_block": rmatrix.verify_unitarity_block,
    "unitarity_full": rmatrix.verify_unitarity_full,
    "identity_at_zero": rmatrix.verify_identity_at_zero,
    "ybe": rmatrix.ybe_trials,
    "golden": lambda name: golden.GOLDEN_CHECKS[name](),
    "commutation": lambda ell: oracle.verify_sl2_commutation(rmatrix.assemble_full(ell)),
    "spectrum": oracle.verify_spectrum,
}


def _run_case(case: Case) -> dict:
    kind, kwargs = case
    return _RUNNERS[kind](**kwargs).to_json()


def cmd_verify(cfg: argparse.Namespace) -> int:
    reads, makers = _SUITES[cfg.suite]
    _check_route(cfg, reads, (), f"verify --suite {cfg.suite}")
    cases = [case for make in makers for case in make(cfg)]
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
# export and dispatch
# ---------------------------------------------------------------------------

# kind -> (the flags it reads, the flags it requires, its writer)
_EXPORTS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable[[argparse.Namespace], int]]] = {
    "r": (("ell", "at_z"), ("ell",), cmd_compute_r),
    "block": (("k",), ("k",), lambda cfg: _emit_block(cfg, cfg.k)),
    "s": (("k",), ("k",), cmd_compute_s),
    "sinv": (("k",), ("k",), lambda cfg: cmd_compute_s(cfg, inverse=True)),
    "fixed-points": (("k", "n", "ell"), ("k", "n", "ell"), cmd_fixed_points),
    "dims": (("n", "ell"), ("n", "ell"), cmd_dims),
}


def cmd_export(cfg: argparse.Namespace) -> int:
    reads, requires, write = _EXPORTS[cfg.kind]
    _check_route(cfg, reads, requires, f"export --kind {cfg.kind}")
    return write(cfg)


def _dispatch(cfg: argparse.Namespace) -> int:
    return cfg.run(cfg)


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
        return _dispatch(_config_from_args(args))
    except (UsageError, moduli.DomainError) as exc:
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
