"""Representation-theoretic cross-checks for the assembled R-matrix.

The spin-ell/2 irreducible is realized on basis e_0..e_ell over the rationals
with unit lowering operator (F e_a = e_{a+1}) and the compensating factors in
the raising operator (E e_a = a(ell-a+1) e_{a-1}); this keeps every matrix
integer-valued.  The tensor-square action x -> x(x)1 + 1(x)x moves the weight
w = a + b of e_(a,b) by one (E down, F up), so it is held as int blocks
between adjacent weight sectors (``sector_action``); no Kronecker product is
formed.  E and F are adjoint for the form T(a, b) = f(a) f(b)
(``rmatrix.contravariant_form``), so the spin-s summands are T-orthogonal,
and each meets sector w = ell-s+j in the line of F^j u_s (u_s the int
highest-weight vector): each projector is rank-one per sector, with no
Casimir formed (``casimir_projectors``).

The assembled R-matrix must commute with that action.  The stable basis puts
the sign (-1)^b on the basis vector e_b of the second tensor factor, so
commutation holds after conjugating by the fixed diagonal gauge
sigma_(a,b) = (-1)^b (``sign_gauge``).  Every entry of R(z) is N(z)/D(z)
over the one scalar polynomial D, so the checks read the int coefficients of
N(z) = sum_e z^e N_e where they are stored, in the coefficient tuples of the
sector blocks (``FullR.blocks``), and sign each entry as it is read,
(sigma N sigma)_ij = sigma_i sigma_j N_ij; no per-power matrix is formed.
Each sigma N_e sigma commuting with the action is an exact polynomial
identity.  The bracket with H vanishes by construction, since sigma is
diagonal, DH is diagonal with the weight, and ``FullR`` holds only pair
sectors; only E and F are checked.
Once commutation holds, each sigma N_e sigma acts on the spin-s summand of the
multiplicity-free tensor square by one scalar (Schur's lemma), read off that
summand's highest-weight vector: the int numerator n_s over D of rho_s, one
power of z at a time.  Each n_s must equal the closed form of the fusion
construction term by term, and ``rmatrix.over_spin_denominator`` reduces rho_s.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .exactalg import RatFun, ratfun_to_str, times_roots
from .fracmat import FracMat
from .report import Report
from .rmatrix import FullR, assemble_full, contravariant_form, over_spin_denominator, pair_sectors


class OracleStructureError(Exception):
    """Raised when the operator fails to be a function of the Casimir."""


def sector_action(ell: int) -> list[tuple[list[list[int]], list[list[int]]]]:
    """(E_w, F_w) for each pair weight w, in the order of ``rmatrix.pair_sectors``.

    The tensor-square action as int blocks between weight sectors: E_w maps
    sector w to w-1, e_(a,b) -> a(ell-a+1) e_(a-1,b) + b(ell-b+1) e_(a,b-1),
    and F_w maps sector w to w+1, e_(a,b) -> e_(a+1,b) + e_(a,b+1).  Rows
    follow the target sector and columns the source; a block into a sector
    outside 0..2*ell has no rows.
    """
    d = ell + 1
    sectors = pair_sectors(ell)
    position = {i: r for sector in sectors for r, i in enumerate(sector)}
    action = []
    for w, sector in enumerate(sectors):
        e = [[0] * len(sector) for _ in (sectors[w - 1] if w else ())]
        f = [[0] * len(sector) for _ in (sectors[w + 1] if w < 2 * ell else ())]
        for c, i in enumerate(sector):
            for digit, stride in ((i // d, d), (i % d, 1)):  # x(x)1, then 1(x)x
                if digit:
                    e[position[i - stride]][c] = digit * (ell - digit + 1)
                if digit < ell:
                    f[position[i + stride]][c] = 1
        action.append((e, f))
    return action


def casimir_projectors(ell: int) -> tuple[FracMat, ...]:
    """Projectors onto the spin-s summands of the tensor square, s = 0..ell.

    The spin-s summand meets sector w = ell-s+j, j = 0..2s, in the line of
    v = F^j u_s (``highest_weight_vector``, the F blocks of ``sector_action``).
    E and F are adjoint for the diagonal form T(a, b) = f(a) f(b)
    (``rmatrix.contravariant_form``), so the Casimir is self-adjoint, its
    summands are T-orthogonal, and P_s on sector w is v v^T T / (v^T T v).
    Entries are ints when integral and Fractions otherwise.
    """
    d = ell + 1
    f = contravariant_form(ell)
    t = [f[a] * f[b] for a in range(d) for b in range(d)]
    sectors, action = pair_sectors(ell), sector_action(ell)
    projectors = tuple([[0] * (d * d) for _ in range(d * d)] for _ in range(d))
    for s, p in enumerate(projectors):
        v = highest_weight_vector(ell, s)
        for w in range(ell - s, ell + s + 1):
            sector = sectors[w]
            norm = sum(t[i] * x * x for i, x in zip(sector, v))
            for i, x in zip(sector, v):
                for j, y in zip(sector, v):
                    entry = Fraction(x * y * t[j], norm)
                    p[i][j] = entry.numerator if entry.denominator == 1 else entry
            v = [sum(map(operator.mul, row, v)) for row in action[w][1]]
    return projectors


# ---------------------------------------------------------------------------
# commutation with the coproduct
# ---------------------------------------------------------------------------


def sign_gauge(ell: int) -> tuple[int, ...]:
    """sigma_(a,b) = (-1)^b: the sign the stable basis puts on e_b of the second factor."""
    d = ell + 1
    return tuple((-1) ** b for a in range(d) for b in range(d))


@functools.lru_cache(maxsize=None)
def _commutation_witnesses(full: FullR) -> tuple[dict, ...]:
    """One witness per generator x and power e where [G, Dx] != 0, G = sigma N_e sigma.

    sigma is ``sign_gauge``, the one gauge of the stable basis.  Decided once
    per matrix object (``FullR`` hashes by identity), like
    ``stablebasis.inverse_mismatches``: the commutation case and
    ``spectral_numerators`` share one verdict.

    The brackets with E and F are G_(w-1) E_w - E_w G_w and G_(w+1) F_w - F_w G_w
    on the weight sectors (``sector_action``), each formed once for all powers
    from the coefficient tuples of ``FullR.blocks``, G_ij = sigma_i sigma_j N_ij.
    A power's witness is its first nonzero bracket entry, row by row.  [G, DH]
    is G_ij (h_j - h_i), zero because ``FullR`` stores only the pair sectors.
    """
    witnesses, sigma = [], sign_gauge(full.ell)
    sectors, action = pair_sectors(full.ell), sector_action(full.ell)
    for which, side, step in (("E", 0, -1), ("F", 1, 1)):
        lowest: dict[int, tuple[tuple[int, int], int]] = {}
        for w, cols in enumerate(sectors):
            x_w = action[w][side]
            if not x_w:
                continue
            rows, g_to, g_from = sectors[w + step], full.blocks[w + step], full.blocks[w]
            comm = [[[0] * (full.ell + 1) for _ in cols] for _ in rows]
            for r, x_row in enumerate(x_w):
                for k, x in enumerate(x_row):
                    if not x:
                        continue
                    for i, g_row in enumerate(g_to):  # (G_to X)_ik += G_ir x
                        for e, v in enumerate(g_row[r]):
                            comm[i][k][e] += sigma[rows[i]] * sigma[rows[r]] * v * x
                    for j, coeffs in enumerate(g_from[k]):  # (X G_from)_rj += x G_kj
                        for e, v in enumerate(coeffs):
                            comm[r][j][e] -= x * sigma[cols[k]] * sigma[cols[j]] * v
            for r, comm_row in enumerate(comm):
                for c, coeffs in enumerate(comm_row):
                    for e, v in enumerate(coeffs):
                        if v and (e not in lowest or (rows[r], cols[c]) < lowest[e][0]):
                            lowest[e] = (rows[r], cols[c]), v
        witnesses += [
            dict(generator=which, power=e, entry=entry, value=str(v))
            for e, (entry, v) in sorted(lowest.items())
        ]
    return tuple(witnesses)


def verify_sl2_commutation(full: FullR) -> Report:
    """Check [sigma N_e sigma, Dx] = 0 for x in {E, F} and every power e of z.

    The coefficient matrices N_e are int, so this is an exact proof that
    sigma R(z) sigma commutes with the tensor-square action; the gauge is
    recorded.  The bracket with H vanishes by construction (``FullR``).
    """
    report = Report("sl2_commutation", {"ell": full.ell})
    for witness in _commutation_witnesses(full):
        report.fail(**witness)
    if report.passed:
        report.details["gauge"] = list(sign_gauge(full.ell))
    return report


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def highest_weight_vector(ell: int, s: int) -> list[int]:
    """u_s = sum_a c_a e_(a, w-a) on sector w = ell - s, a = 0..w, with E u_s = 0.

    E u_s = 0 reads a(ell-a+1) c_a + (w-a+1)(ell-w+a) c_(a-1) = 0.  Scaled by
    c_0 = f(w) (``rmatrix.contravariant_form``), every c_a is an int, and each
    step divides exactly: the divisors a(ell-a+1) of the steps up to a
    multiply out to f(a), and f(a) divides f(w).
    """
    w, c = ell - s, [contravariant_form(ell)[ell - s]]
    for a in range(1, w + 1):
        c.append(-c[-1] * (w - a + 1) * (ell - w + a) // (a * (ell - a + 1)))
    return c


def spectral_numerators(full: FullR) -> list[list[int]]:
    """coeffs[s][e] = n_s,e, the int coefficient of z^e in the numerator over D of rho_s.

    Commutation under sigma = ``sign_gauge`` is checked first; a failure
    raises OracleStructureError at the lowest failing power.  Then
    sigma N_e sigma u_s = n_s,e u_s (``highest_weight_vector``), so n_s,e is
    row 0 of sigma N_e sigma on sector ell-s, the row of e_(0, ell-s), applied
    to u_s and divided by u_s's entry c_0 there: exactly, since commutation,
    decided first, makes u_s an eigenvector.  The row is read from
    ``FullR.blocks``, signed entry by entry.
    """
    if powers := [w["power"] for w in _commutation_witnesses(full)]:
        raise OracleStructureError(f"spectral reconstruction fails at the power z^{min(powers)}")
    coeffs, sigma = [], sign_gauge(full.ell)
    for s in range(full.ell + 1):
        w, u, n = full.ell - s, highest_weight_vector(full.ell, s), [0] * (full.ell + 1)
        sector = pair_sectors(full.ell)[w]
        for j, c, entry in zip(sector, u, full.blocks[w][0]):
            for e, v in enumerate(entry):
                n[e] += sigma[sector[0]] * sigma[j] * v * c
        coeffs.append([n_e // u[0] for n_e in n])
    return coeffs


def spectral_decompose(full: FullR) -> list[RatFun]:
    """Eigenvalue functions rho_s(z) = n_s(z)/D(z), s = 0..ell, in lowest terms (monic den)."""
    return [over_spin_denominator(n, full.ell) for n in spectral_numerators(full)]


def fusion_numerator(ell: int, s: int) -> list[int]:
    """The coefficients of prod_{j=1..s} (z+j) * prod_{j=s+1..ell} (j-z), lowest power first."""
    return times_roots([(-1) ** (ell - s)], [*range(1, s + 1), *range(-ell, -s)])


def verify_spectrum(ell: int) -> Report:
    """Spectral suite: the exact decomposition and the closed form.

    The closed form is the fusion spectrum rho_s = prod_{j>s} (j-z)/(j+z)
    (Kulish-Reshetikhin-Sklyanin): n_s = rho_s * D must equal
    ``fusion_numerator(ell, s)`` coefficient by coefficient.  That is the
    whole check: rho_s(0) = 1, unitarity rho_s(z) rho_s(-z) = 1 and the
    Moebius ratios follow from the closed form.
    """
    report = Report("spectrum", {"ell": ell})
    try:
        numerators = spectral_numerators(assemble_full(ell))
    except OracleStructureError as exc:
        report.fail(reason=str(exc))
        return report
    report.details["gauge"] = list(sign_gauge(ell))
    report.details["rho"] = [ratfun_to_str(over_spin_denominator(n, ell)) for n in numerators]
    for s, n_s in enumerate(numerators):
        for power, (got, expected) in enumerate(zip(n_s, fusion_numerator(ell, s), strict=True)):
            if got != expected:
                report.fail(s=s, power=power, got=str(got), expected=str(expected))
    return report
