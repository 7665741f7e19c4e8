"""Representation-theoretic cross-checks for the assembled R-matrix.

The spin-ell/2 irreducible is realized on basis e_0..e_ell over the rationals
with unit lowering operator (F e_a = e_{a+1}) and the compensating factors in
the raising operator (E e_a = a(ell-a+1) e_{a-1}); this keeps every matrix
integer-valued.  The tensor-square action is the coproduct x -> x(x)1 + 1(x)x,
and the quadratic Casimir EF + FE + H^2/2 has eigenvalue 2s(s+1) on the
spin-s summand, which yields exact projectors by Lagrange interpolation.

The assembled R-matrix must commute with the coproduct action.  The stable
basis fixes signs differently from the weight basis, so commutation may hold
only after conjugating by a diagonal +-1 gauge; renormalizing the basis
vectors of the two tensor factors independently gives exactly the product
gauges sigma_(a,b) = alpha_a * beta_b, and the search runs over those (the
gauge found is recorded in the report).  Once commutation holds, the operator
is a rational function of the Casimir; projecting gives one eigenvalue
function per spin channel, and the reconstruction from those eigenvalues must
be exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import fracmat
from .exactalg import RatFun, cancel_common_z_roots, ratfun_to_str
from .fracmat import FracMat, SymMatrix
from .report import Report
from .rmatrix import FullR, assemble_full, strip_common_roots


class OracleStructureError(Exception):
    """Raised when the operator fails to be a function of the Casimir."""


@dataclass(frozen=True)
class Sl2Rep:
    """The spin-ell/2 irreducible in the weight basis, exact integer matrices."""

    ell: int
    e: FracMat
    f: FracMat
    h: FracMat


def sl2_rep(ell: int) -> Sl2Rep:
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    d = ell + 1
    e = fracmat.zeros(d, d)
    f = fracmat.zeros(d, d)
    h = fracmat.zeros(d, d)
    for a in range(d):
        h[a][a] = Fraction(ell - 2 * a)
        if a < ell:
            f[a + 1][a] = Fraction(1)
        if a > 0:
            e[a - 1][a] = Fraction(a * (ell - a + 1))
    return Sl2Rep(ell, e, f, h)


def coproduct(ell: int, which: str) -> FracMat:
    """The tensor-square action x(x)1 + 1(x)x of one generator."""
    rep = sl2_rep(ell)
    x = {"E": rep.e, "F": rep.f, "H": rep.h}[which]
    eye = fracmat.identity(ell + 1)
    return fracmat.mat_add(fracmat.kron(x, eye), fracmat.kron(eye, x))


def casimir_matrix(ell: int) -> FracMat:
    de, df, dh = coproduct(ell, "E"), coproduct(ell, "F"), coproduct(ell, "H")
    quad = fracmat.mat_add(fracmat.mat_mul(de, df), fracmat.mat_mul(df, de))
    return fracmat.mat_add(quad, fracmat.mat_scale(fracmat.mat_mul(dh, dh), Fraction(1, 2)))


def casimir_projectors(ell: int) -> tuple[FracMat, ...]:
    """Projectors onto the spin-s summands of the tensor square, s = 0..ell.

    Lagrange interpolation of the Casimir at its spectrum 2s(s+1).
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    c = casimir_matrix(ell)
    dim = (ell + 1) ** 2
    eigenvalue = [Fraction(2 * s * (s + 1)) for s in range(ell + 1)]
    projectors = []
    for s in range(ell + 1):
        p = fracmat.identity(dim)
        for t in range(ell + 1):
            if t == s:
                continue
            shifted = fracmat.mat_sub(c, fracmat.mat_scale(fracmat.identity(dim), eigenvalue[t]))
            p = fracmat.mat_scale(fracmat.mat_mul(p, shifted), 1 / (eigenvalue[s] - eigenvalue[t]))
        projectors.append(p)
    return tuple(projectors)


# ---------------------------------------------------------------------------
# commutation with the coproduct
# ---------------------------------------------------------------------------


def _commutator(r: SymMatrix, x: FracMat) -> SymMatrix:
    """[R, X] for a rational-function matrix and an exact scalar matrix."""
    n = r.rows
    grid: list[list[RatFun]] = []
    for i in range(n):
        row: list[RatFun] = []
        for j in range(n):
            acc = RatFun.zero()
            for m in range(n):
                a = r.entries[i][m]
                if not a.is_zero and x[m][j]:
                    acc = acc + a.scale(x[m][j])
                b = r.entries[m][j]
                if not b.is_zero and x[i][m]:
                    acc = acc - b.scale(x[i][m])
            row.append(acc)
        grid.append(row)
    return SymMatrix(grid, r.row_labels, r.col_labels)


def apply_gauge(matrix: SymMatrix, sigma: Sequence[int]) -> SymMatrix:
    """Conjugate by the diagonal sign matrix D = diag(sigma); D is its own inverse."""
    grid = [
        [
            entry if sigma[i] * sigma[j] == 1 else -entry
            for j, entry in enumerate(row)
        ]
        for i, row in enumerate(matrix.entries)
    ]
    return SymMatrix(grid, matrix.row_labels, matrix.col_labels)


def _product_gauges(ell: int) -> Iterable[tuple[int, ...]]:
    """Diagonal sign gauges from renormalizing each tensor factor's basis.

    sigma_(a,b) = alpha_a * beta_b with alpha_0 = beta_0 = +1 (an overall sign
    cancels in conjugation, so this loses nothing); the identity comes first.
    """
    d = ell + 1
    for alpha_rest in itertools.product((1, -1), repeat=d - 1):
        alpha = (1,) + alpha_rest
        for beta_rest in itertools.product((1, -1), repeat=d - 1):
            beta = (1,) + beta_rest
            yield tuple(alpha[a] * beta[b] for a in range(d) for b in range(d))


def _commutes_numeric(r0: FracMat, sigma: Sequence[int], xs: Sequence[FracMat]) -> bool:
    n = len(r0)
    gauged = [[sigma[i] * sigma[j] * r0[i][j] for j in range(n)] for i in range(n)]
    for x in xs:
        if fracmat.mat_mul(gauged, x) != fracmat.mat_mul(x, gauged):
            return False
    return True


def verify_sl2_commutation(full: FullR) -> Report:
    """Check [R(z), Dx] = 0 for x in {E, F, H}, symbolically in z.

    Product sign gauges are tried in a fixed order (identity first); the gauge
    that makes all three commutators vanish is recorded in the report.
    """
    report = Report("sl2_commutation", {"ell": full.ell})
    ops = {which: coproduct(full.ell, which) for which in ("E", "F", "H")}
    # poles are negative integers; R is compared at z = 1/3 up to its scale
    r0, _ = full.scaled_at(Fraction(1, 3))
    chosen: tuple[int, ...] | None = None
    for sigma in _product_gauges(full.ell):
        if _commutes_numeric(r0, sigma, (ops["E"], ops["F"], ops["H"])):
            chosen = sigma
            break
    if chosen is None:
        report.fail(reason="no product sign gauge makes R commute with the coproduct")
        return report
    gauged = apply_gauge(full.matrix, chosen)
    for which, x in ops.items():
        comm = _commutator(gauged, x)
        bad = next(
            (
                (i, j)
                for i, row in enumerate(comm.entries)
                for j, e in enumerate(row)
                if not e.is_zero
            ),
            None,
        )
        if bad is not None:
            report.fail(
                generator=which,
                entry=bad,
                value=ratfun_to_str(comm.entries[bad[0]][bad[1]]),
            )
    if report.passed:
        report.details["gauge"] = (
            "identity" if all(s == 1 for s in chosen) else list(chosen)
        )
    return report


def commutation_gauge(full: FullR) -> tuple[int, ...]:
    """The recorded gauge of a passing commutation check, as a sign vector."""
    report = verify_sl2_commutation(full)
    if not report.passed:
        raise OracleStructureError("R does not commute with the coproduct action")
    gauge = report.details["gauge"]
    if gauge == "identity":
        return tuple([1] * full.dim)
    return tuple(gauge)


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def spectral_decompose(full: FullR, sigma: Sequence[int] | None = None) -> list[RatFun]:
    """Eigenvalue functions rho_s(z) = trace(R P_s)/(2s+1), s = 0..ell.

    The gauge making R commute with the coproduct is applied first (found
    automatically when not supplied).  Each eigenvalue is reduced to lowest
    terms by trial division at the shifts -2*ell..2*ell before the
    reconstruction sum rho_s P_s is checked against R; a reconstruction
    mismatch raises OracleStructureError.
    """
    if sigma is None:
        sigma = commutation_gauge(full)
    gauged = apply_gauge(full.matrix, sigma)
    projs = casimir_projectors(full.ell)
    shifts = _default_shifts(full)
    rhos: list[RatFun] = []
    dim = full.dim
    for s, p in enumerate(projs):
        acc = RatFun.zero()
        for u in range(dim):
            for v in range(dim):
                entry = gauged.entries[u][v]
                if not entry.is_zero and p[v][u]:
                    acc = acc + entry.scale(p[v][u])
        # the traces sit over the monic D, so each rho comes out with a monic denominator
        rhos.append(strip_common_roots(acc.scale(Fraction(1, 2 * s + 1)), shifts))
    for u in range(dim):
        for v in range(dim):
            acc = RatFun.zero()
            for s, p in enumerate(projs):
                if p[u][v]:
                    acc = acc + rhos[s].scale(p[u][v])
            if not acc.value_eq(gauged.entries[u][v]):
                raise OracleStructureError(
                    f"spectral reconstruction fails at entry ({u}, {v})"
                )
    return rhos


def _eval_with_cancellation(f: RatFun, value: Fraction) -> Fraction | None:
    """Value of f at z = value after cancelling matching powers of (z - value).

    The unreduced num/den representation can carry a removable factor at the
    probe point; it is stripped by trial division.  None means a true pole
    survives.
    """
    num, den = cancel_common_z_roots(f.num, f.den, [value])
    den_value = den.eval_rational({"z": value})
    if den_value == 0:
        return None
    return num.eval_rational({"z": value}) / den_value


def verify_mobius_ratios(
    rhos: Sequence[RatFun], roots: Iterable[Fraction] | None = None
) -> Report:
    """Successive eigenvalue ratios are degree <= 1 over degree <= 1 in z.

    Common linear factors are removed by exact-division trial over a syntactic
    set of candidate roots (z - c); no general factorization is used.
    """
    report = Report("mobius_ratios", {"channels": len(rhos)})
    root_set = sorted(set(roots)) if roots is not None else []
    for s in range(len(rhos) - 1):
        ratio = rhos[s + 1] / rhos[s]
        num, den = cancel_common_z_roots(ratio.num, ratio.den, root_set)
        if num.degree_in("z") > 1 or den.degree_in("z") > 1:
            report.fail(
                s=s,
                ratio=ratfun_to_str(RatFun(num, den)),
                z_degrees=[num.degree_in("z"), den.degree_in("z")],
            )
    return report


def _default_shifts(full: FullR) -> list[Fraction]:
    """Trial roots -2*ell..2*ell; they include the poles -1..-ell and their negatives."""
    return [Fraction(m) for m in range(-2 * full.ell, 2 * full.ell + 1)]


def verify_spectrum(ell: int) -> Report:
    """Full spectral suite: decomposition, rho_s(0) = 1, unitarity, ratios."""
    report = Report("spectrum", {"ell": ell})
    full = assemble_full(ell)
    try:
        gauge = commutation_gauge(full)
        rhos = spectral_decompose(full, gauge)
    except OracleStructureError as exc:
        report.fail(reason=str(exc))
        return report
    report.details["gauge"] = "identity" if all(s == 1 for s in gauge) else list(gauge)
    report.details["rho"] = [ratfun_to_str(r) for r in rhos]
    for s, rho in enumerate(rhos):
        at_zero = _eval_with_cancellation(rho, Fraction(0))
        if at_zero != 1:
            report.fail(s=s, at="z = 0", value=str(at_zero))
        if not (rho * rho.flip_z()).value_eq(1):
            report.fail(s=s, at="rho(z) rho(-z)", value=ratfun_to_str(rho * rho.flip_z()))
    sub = verify_mobius_ratios(rhos, _default_shifts(full))
    if not sub.passed:
        report.failures.extend(sub.failures)
        report.passed = False
    return report
