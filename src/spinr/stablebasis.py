"""Localization expansions of attracting and stable classes at n = 2.

The two families of classes expand over the fixed-point basis with factored
rational-function coefficients (``zbar_coeff`` and ``stable_coeff``).
Collecting the stable-class coefficients columnwise gives the upper triangular
change of basis ``S_matrix``; its inverse has the closed polynomial form
``S_inverse``.  ``stable_runs`` and ``sinv_runs`` hold the entries of S and
S^-1 as (scalar, runs) rows, which ``rmatrix.summand_mismatches`` compares.
Both are ``SymMatrix`` values from ``fracmat``, the one matrix module, built
once per k and process and shared by every caller, so callers must not mutate
them.
Three verifications are provided:

* ``verify_inverse``  -- S^-1 S is the identity, entrywise and symbolically,
                         decided as S S^-1 = Id (``inverse_mismatches``, once
                         per pair of matrix objects): over a field a one-sided
                         inverse is two-sided;
* ``verify_linrel``   -- each stable class is the binomial combination of the
                         attracting classes, and the change of basis between
                         them is re-derived from the vanishing condition at
                         phi = eps = 0 (triangular solve) instead of assumed;
* ``verify_residues_all`` -- every candidate simple pole of every entry of
                         S^-1 S has vanishing residue and the entry tends to
                         delta_{ij'} at z -> infinity.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable

from .exactalg import (
    FactoredRat,
    Run,
    factored_runs,
    factored_sum,
    limit_at_z_infinity,
    ratfun_to_str,
    residue_at,
)
from .fracmat import SymMatrix
from .report import Report


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# class expansions
# ---------------------------------------------------------------------------


def zbar_coeff(k: int, j: int, j_prime: int) -> FactoredRat:
    """Coefficient of fixed point j in the closed attracting class of j'."""
    if j > j_prime or j < 0 or j_prime > k:
        return FactoredRat.zero()
    runs = (
        (1, 1, 0, k - j_prime - 1, -1),
        (1, 0, k - 2 * j + 1, k - j, -1),
        (-1, 0, 2 * j - k + 1, j_prime - k + j, -1),
    )
    return factored_runs(binom(j_prime, j), runs)


def stable_runs(k: int, j: int, j_prime: int) -> tuple[int, tuple[Run, ...]]:
    """Entry (j, j') of S as (scalar, runs); (0, ()) outside 0 <= j <= j' <= k."""
    if j > j_prime or j < 0 or j_prime > k:
        return 0, ()
    runs = (
        (0, 1, j, j_prime - 1, 1),
        (1, 1, 0, k - j - 1, -1),
        (1, 0, k - 2 * j + 1, k - j, -1),
        (-1, 0, 2 * j - k + 1, j_prime - k + j, -1),
    )
    return binom(j_prime, j), runs


def stable_coeff(k: int, j: int, j_prime: int) -> FactoredRat:
    """Coefficient of fixed point j in the stable class of j'; entry (j, j') of S."""
    return factored_runs(*stable_runs(k, j, j_prime))


def sinv_runs(k: int, i: int, j: int) -> tuple[int, tuple[Run, ...]]:
    """Entry (i, j) of the closed-form S^-1 as (scalar, runs); (0, ()) outside 0 <= i <= j <= k."""
    if i > j or i < 0 or j > k:
        return 0, ()
    runs = ((0, 1, i, j - 1, 1), (1, 1, 0, k - j - 1, 1), (1, 0, k + 1 - j - i, k - j, 1))
    return binom(j, i), runs


def sinv_entry(k: int, i: int, j: int) -> FactoredRat:
    """Entry (i, j) of the closed-form inverse of S; a polynomial."""
    return factored_runs(*sinv_runs(k, i, j))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def S_matrix(k: int) -> SymMatrix:
    """The upper triangular stable-class matrix, (k+1) x (k+1), built once per k."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return SymMatrix(
        [[stable_coeff(k, j, jp).expand() for jp in range(k + 1)] for j in range(k + 1)]
    )


@functools.lru_cache(maxsize=None)
def S_inverse(k: int) -> SymMatrix:
    """The closed-form inverse of S_matrix(k), built once per k; entries are polynomials."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return SymMatrix([[sinv_entry(k, i, j).expand() for j in range(k + 1)] for i in range(k + 1)])


# ---------------------------------------------------------------------------
# verifications
# ---------------------------------------------------------------------------


def _sinv_s_entry_terms(k: int, i: int, j_prime: int) -> list[FactoredRat]:
    """The factored summands of (S^-1 S)_{i j'}."""
    return [
        sinv_entry(k, i, j) * stable_coeff(k, j, j_prime)
        for j in range(i, j_prime + 1)
    ]


@functools.lru_cache(maxsize=None)
def inverse_mismatches(s_inv: SymMatrix, s: SymMatrix) -> tuple[tuple[int, int], ...]:
    """The positions where s * s_inv differs from the identity in value.

    Over the field of rational functions a one-sided inverse of a square
    matrix is two-sided, so none also proves s_inv * s = Id.  This side is
    cheaper: along a row of S the denominators nest, so each lcm is one of
    its terms' own denominators; down a column they do not.  ``SymMatrix``
    hashes and compares by identity, so the memo reuses a verdict only for
    the very objects it was decided on; the memoized ``S_inverse(k)`` and
    ``S_matrix(k)`` make that one product per k and process, which
    ``rmatrix.verify_unitarity_block`` reuses as a premise.
    """
    return tuple(s.mul(s_inv).mismatches(SymMatrix.identity(s.rows)))


def verify_inverse(k: int) -> Report:
    """Check S^-1 S == Id at k by deciding S S^-1 == Id (``inverse_mismatches``).

    On a failure the witnesses are the entries of S^-1 S that differ from Id.
    """
    report = Report("inverse", {"k": k})
    s_inv, s = S_inverse(k), S_matrix(k)
    if inverse_mismatches(s_inv, s):
        product = s_inv.mul(s)
        for i, j in product.mismatches(SymMatrix.identity(k + 1)):
            report.fail(i=i, j_prime=j, entry=ratfun_to_str(product.entries[i][j]))
    return report


def solve_change_of_basis(k: int) -> list[list[Fraction]]:
    """Re-derive the attracting-to-stable change of basis from first principles.

    Column j' is the unique combination of attracting classes 0..j' with top
    coefficient 1 whose off-diagonal fixed-point coefficients vanish at
    phi = eps = 0.  At that specialization every attracting coefficient is a
    rational multiple of z^-k, so the condition is a triangular rational
    linear system solved by back substitution.
    """
    zero_limits = [
        [_phi_eps_zero_value(zbar_coeff(k, j, m)) for m in range(k + 1)]
        for j in range(k + 1)
    ]
    cols: list[list[Fraction]] = []
    for jp in range(k + 1):
        c = [Fraction(0)] * (k + 1)
        c[jp] = Fraction(1)
        for j in range(jp - 1, -1, -1):
            # row j of (Zbar-limit) * c must vanish; Zbar-limit is upper triangular
            # with nonzero diagonal.
            acc = sum((zero_limits[j][m] * c[m] for m in range(j + 1, jp + 1)), Fraction(0))
            c[j] = -acc / zero_limits[j][j]
        cols.append(c)
    return [[cols[jp][j] for jp in range(k + 1)] for j in range(k + 1)]


def _phi_eps_zero_value(f: FactoredRat) -> Fraction:
    """Value of z^k * f at phi = eps = 0, z = 1 (each factor becomes +-z)."""
    if f.is_zero:
        return Fraction(0)
    value = f.scalar
    for form, exp in f.factors:
        if form.c_z == 0:
            raise ValueError(f"factor {form} vanishes at phi = eps = 0")
        value *= Fraction(form.c_z) ** exp
    return value


def verify_linrel(k: int) -> Report:
    """Check the binomial linear relations between stable and attracting classes.

    Also re-derives the change-of-basis matrix by the triangular solve of
    ``solve_change_of_basis`` and requires it to be the binomial matrix.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    report = Report("linrel", {"k": k})
    stable = S_matrix(k).entries
    for jp in range(k + 1):
        for j in range(jp + 1):
            combo = factored_sum(
                zbar_coeff(k, j, i).scale(binom(jp, i)) for i in range(j, jp + 1)
            )
            if not combo.value_eq(stable[j][jp]):
                report.fail(
                    j=j, j_prime=jp, lhs=str(stable_coeff(k, j, jp)), rhs=ratfun_to_str(combo)
                )
    solved = solve_change_of_basis(k)
    expected = [[Fraction(binom(jp, j)) for jp in range(k + 1)] for j in range(k + 1)]
    if solved != expected:
        report.fail(
            reason="change-of-basis solve disagrees with binomial matrix",
            solved=[[str(x) for x in row] for row in solved],
        )
    else:
        report.details["change_of_basis"] = [[int(x) for x in row] for row in solved]
    return report


def candidate_poles(terms: Iterable[FactoredRat]) -> list[int]:
    """All integers n with a (z + n*phi) factor in some term's denominator.

    Collected syntactically from the factored form before expansion; complete
    by construction since denominators only ever contain such forms.
    """
    out: set[int] = set()
    for t in terms:
        for form, _ in t.den_items():
            if form.c_z == 1 and form.c_eps == 0:
                out.add(form.c_phi)
    return sorted(out)


def verify_residues_all(k: int) -> Report:
    """Residue and large-z checks for every entry (i <= j') of S^-1 S.

    Every candidate simple pole z = -n*phi of an entry must have zero residue,
    and its z -> infinity limit must be delta_{i j'} (checked by degree
    comparison); each witness names its entry by i and j'.  This is the
    ``factored_sum`` route to S^-1 S = Id: the sum cancels a correct
    off-diagonal entry to exactly 0, and no diagonal entry has a candidate
    pole, so the residue machinery runs only on an entry that fails.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    report = Report("residues_all", {"k": k})
    for j_prime in range(k + 1):
        for i in range(j_prime + 1):
            terms = _sinv_s_entry_terms(k, i, j_prime)
            entry = factored_sum(terms)
            for n in candidate_poles(terms):
                res = residue_at(entry, n)
                if not res.is_zero:
                    report.fail(
                        pole=f"z = {-n}*phi", residue=ratfun_to_str(res), i=i, j_prime=j_prime
                    )
            limit = limit_at_z_infinity(entry)
            expected = 1 if i == j_prime else 0
            if limit is None or not limit.value_eq(expected):
                report.fail(
                    at="z -> infinity",
                    expected=expected,
                    limit="divergent" if limit is None else ratfun_to_str(limit),
                    i=i,
                    j_prime=j_prime,
                )
    return report
