"""Representation-theoretic cross-checks for the assembled R-matrix.

The spin-ell/2 irreducible is realized on basis e_0..e_ell over the rationals
with unit lowering operator (F e_a = e_{a+1}) and the compensating factors in
the raising operator (E e_a = a(ell-a+1) e_{a-1}); this keeps every matrix
integer-valued.  The tensor-square action is the coproduct x -> x(x)1 + 1(x)x,
and the quadratic Casimir EF + FE + H^2/2 has eigenvalue 2s(s+1) on the
spin-s summand, which yields exact projectors by Lagrange interpolation, one
total-weight sector at a time.

The assembled R-matrix must commute with the coproduct action.  The stable
basis puts the sign (-1)^b on the basis vector e_b of the second tensor
factor, so commutation holds after conjugating by the fixed diagonal gauge
sigma_(a,b) = (-1)^b (``sign_gauge``).  Every entry of R(z) is N(z)/D(z)
over the one scalar polynomial D, so the checks read the int coefficient
matrices of N(z) = sum_e z^e N_e (``FullR.coefficients``): each
sigma N_e sigma commuting with the coproduct is an exact polynomial identity.
Once commutation holds, each sigma N_e sigma is a combination of the Casimir
projectors; the traces give the numerator n_s over D of one eigenvalue
function rho_s per spin channel, exactly, one power of z at a time.  Each n_s
must equal the closed form of the fusion construction coefficient by
coefficient, and rho_s is reduced by ``rmatrix.over_spin_denominator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import fracmat
from .exactalg import RatFun, ratfun_to_str
from .fracmat import FracMat
from .report import Report
from .rmatrix import FullR, assemble_full, over_spin_denominator, pair_sectors


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

    The Casimir conserves the total weight W = a + b, and on sector W its
    spectrum is 2t(t+1) for the spins t = |ell-W|..ell present there.  Each
    projector is the Lagrange interpolation of the sector blocks at that
    spectrum, scattered back into one dense matrix.
    """
    c = casimir_matrix(ell)
    d = ell + 1
    eigenvalue = [Fraction(2 * s * (s + 1)) for s in range(d)]
    projectors = tuple(fracmat.zeros(d * d, d * d) for _ in range(d))
    for w, sector in enumerate(pair_sectors(ell)):
        block = [[c[i][j] for j in sector] for i in sector]
        eye = fracmat.identity(len(sector))
        spins = range(abs(ell - w), d)
        for s in spins:
            p = eye
            for t in spins:
                if t != s:
                    shifted = fracmat.mat_sub(block, fracmat.mat_scale(eye, eigenvalue[t]))
                    gap = eigenvalue[s] - eigenvalue[t]
                    p = fracmat.mat_scale(fracmat.mat_mul(p, shifted), 1 / gap)
            for i, row in zip(sector, p):
                for j, x in zip(sector, row):
                    projectors[s][i][j] = x
    return projectors


# ---------------------------------------------------------------------------
# commutation with the coproduct
# ---------------------------------------------------------------------------


def sign_gauge(ell: int) -> tuple[int, ...]:
    """sigma_(a,b) = (-1)^b: the sign the stable basis puts on e_b of the second factor."""
    d = ell + 1
    return tuple((-1) ** b for a in range(d) for b in range(d))


def _conjugate(rows: Sequence[Sequence], sigma: Sequence[int]) -> list[list]:
    """Conjugation by the diagonal sign matrix diag(sigma), which is its own inverse."""
    return [
        [x if sigma[i] == sigma[j] else -x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _commutation_witnesses(full: FullR, sigma: Sequence[int]) -> list[dict]:
    """One witness per generator x and power e where [sigma N_e sigma, Dx] != 0."""
    gauged = [_conjugate(n_e, sigma) for n_e in full.coefficients()]
    witnesses = []
    for which in ("E", "F", "H"):
        x = coproduct(full.ell, which)
        for e, n_e in enumerate(gauged):
            comm = fracmat.mat_sub(fracmat.mat_mul(n_e, x), fracmat.mat_mul(x, n_e))
            bad = next(
                ((i, j) for i, row in enumerate(comm) for j, v in enumerate(row) if v), None
            )
            if bad is not None:
                value = str(comm[bad[0]][bad[1]])
                witnesses.append({"generator": which, "power": e, "entry": bad, "value": value})
    return witnesses


def verify_sl2_commutation(full: FullR) -> Report:
    """Check [sigma N_e sigma, Dx] = 0 for x in {E, F, H} and every power e of z.

    The coefficient matrices N_e are int, so this is an exact proof that
    sigma R(z) sigma commutes with the coproduct; the gauge is recorded.
    """
    report = Report("sl2_commutation", {"ell": full.ell})
    sigma = sign_gauge(full.ell)
    for witness in _commutation_witnesses(full, sigma):
        report.fail(**witness)
    if report.passed:
        report.details["gauge"] = list(sigma)
    return report


def commutation_gauge(full: FullR) -> tuple[int, ...]:
    """The gauge under which R commutes with the coproduct, as a sign vector."""
    sigma = sign_gauge(full.ell)
    if _commutation_witnesses(full, sigma):
        raise OracleStructureError("R does not commute with the coproduct action")
    return sigma


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def spectral_numerators(full: FullR, sigma: Sequence[int] | None = None) -> list[list[Fraction]]:
    """coeffs[s][e] = n_s,e, the coefficient of z^e in the numerator over D of rho_s.

    n_s,e = trace(sigma N_e sigma P_s)/(2s+1) is an exact number (the gauge is
    ``commutation_gauge`` when not supplied).  The reconstruction
    sum_s n_s,e P_s = sigma N_e sigma is checked for every power e; a
    mismatch raises OracleStructureError.
    """
    if sigma is None:
        sigma = commutation_gauge(full)
    supports = [
        [(u, v, x) for u, row in enumerate(p) for v, x in enumerate(row) if x]
        for p in casimir_projectors(full.ell)
    ]
    coeffs: list[list[Fraction]] = [[] for _ in supports]
    for e, n_e in enumerate(_conjugate(c, sigma) for c in full.coefficients()):
        rebuilt = [[0] * full.dim for _ in range(full.dim)]
        for s, support in enumerate(supports):
            n = Fraction(sum(x * n_e[v][u] for u, v, x in support), 2 * s + 1)
            coeffs[s].append(n)
            for u, v, x in support:
                rebuilt[u][v] += n * x
        if rebuilt != n_e:
            raise OracleStructureError(f"spectral reconstruction fails at the power z^{e}")
    return coeffs


def spectral_decompose(full: FullR, sigma: Sequence[int] | None = None) -> list[RatFun]:
    """Eigenvalue functions rho_s(z) = n_s(z)/D(z), s = 0..ell, in lowest terms (monic den)."""
    return [over_spin_denominator(n, full.ell) for n in spectral_numerators(full, sigma)]


def fusion_numerator(ell: int, s: int) -> list[int]:
    """The coefficients of prod_{j=1..s} (z+j) * prod_{j=s+1..ell} (j-z), lowest power first."""
    poly = [1]
    for j in range(1, ell + 1):
        slope = 1 if j <= s else -1
        poly = [j * a + slope * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def verify_spectrum(ell: int) -> Report:
    """Spectral suite: the exact decomposition and the closed form.

    The closed form is the fusion spectrum rho_s = prod_{j>s} (j-z)/(j+z)
    (Kulish-Reshetikhin-Sklyanin): n_s = rho_s * D must equal
    ``fusion_numerator(ell, s)`` coefficient by coefficient.  That is the
    whole check: rho_s(0) = 1, unitarity rho_s(z) rho_s(-z) = 1 and the
    Moebius ratios follow from the closed form.
    """
    report = Report("spectrum", {"ell": ell})
    full = assemble_full(ell)
    try:
        gauge = commutation_gauge(full)
        numerators = spectral_numerators(full, gauge)
    except OracleStructureError as exc:
        report.fail(reason=str(exc))
        return report
    report.details["gauge"] = list(gauge)
    report.details["rho"] = [ratfun_to_str(over_spin_denominator(n, ell)) for n in numerators]
    for s, n_s in enumerate(numerators):
        for power, (got, expected) in enumerate(zip(n_s, fusion_numerator(ell, s), strict=True)):
            if got != expected:
                report.fail(s=s, power=power, got=str(got), expected=str(expected))
    return report
