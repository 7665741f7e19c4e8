"""Construction and verification of the spin-ell/2 R-matrix.

Each total-weight sector k carries a (k+1) x (k+1) block in the generic
variables (z, phi, eps).  Two independent constructions are provided: the
closed-form single sum over products of linear forms (``rblock_closed``) and
the triangular product S^-1 * S-tilde (``rblock_triangular``), where S-tilde
is S with rows reversed and z negated.  ``assemble_full`` builds each block
entry it needs on the spin line: it binds eps -> -ell*phi in every factored
summand, sums, sets phi -> 1 and cancels removable roots.  It places the
entries in the tensor-product basis: the entry coupling source (a, b) to
target (a', b') with a + b = a' + b' = k is block entry (b', b); everything
else is zero.  No generic block is expanded on the way.

Verifications: unitarity R(z) R(-z) = Id (symbolically per block and for the
assembled matrix), equality of the two constructions, the lower/upper
factorization of the permuted matrix, and the Yang-Baxter equation at exact
rational points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import fracmat
from .exactalg import (
    FactoredRat,
    LinForm,
    MPoly,
    PoleSpecializationError,
    RatFun,
    Rational,
    cancel_common_z_roots,
    factored_sum,
    limit_at_z_infinity,
    ratfun_to_str,
)
from .fracmat import FracMat
from .report import Report
from .stablebasis import (
    S_inverse,
    S_matrix,
    SymMatrix,
    _forms,
    _inv,
    binom,
    sinv_entry,
    stable_coeff,
)


@dataclass(frozen=True)
class RBlock:
    """One weight-sector block of the R-matrix in generic (z, phi, eps)."""

    k: int
    matrix: SymMatrix
    provenance: str


def _rblock_entry_terms(k: int, i: int, j_prime: int) -> list[FactoredRat]:
    """Factored summands of the closed-form block entry (i, j')."""
    terms: list[FactoredRat] = []
    for j in range(max(i, k - j_prime), k + 1):
        scalar = binom(j, i) * binom(j_prime, k - j)
        if scalar == 0:
            continue
        pairs: list[tuple[LinForm, int]] = []
        pairs += _forms(i, j - 1, lambda r: LinForm(0, r, 1))
        pairs += _forms(0, k - j - 1, lambda r: LinForm(1, r, 1))
        pairs += _forms(k + 1 - j - i, k - j, lambda r: LinForm(1, r, 0))
        pairs += _forms(k - j, j_prime - 1, lambda r: LinForm(0, r, 1))
        pairs += _inv(_forms(0, j - 1, lambda r: LinForm(-1, r, 1)))
        pairs += _inv(_forms(2 * j - k + 1, j, lambda r: LinForm(-1, r, 0)))
        pairs += _inv(_forms(k - 2 * j + 1, j_prime - j, lambda r: LinForm(1, r, 0)))
        terms.append(FactoredRat(scalar, pairs))
    return terms


def rblock_closed(k: int) -> RBlock:
    """The sector-k block from the closed-form single sum."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    grid = SymMatrix.from_function(
        k + 1, k + 1, lambda i, jp: factored_sum(_rblock_entry_terms(k, i, jp))
    )
    return RBlock(k, grid, "closed_form")


def s_tilde(k: int) -> SymMatrix:
    """S with rows reversed and z negated: entry (j, j') is S_{k-j, j'} at -z."""
    return SymMatrix.from_function(
        k + 1, k + 1, lambda j, jp: stable_coeff(k, k - j, jp).flip_z().expand()
    )


def rblock_triangular(k: int) -> RBlock:
    """The sector-k block as the triangular product S^-1 * S-tilde."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return RBlock(k, S_inverse(k).mul(s_tilde(k)), "triangular_product")


def _reversal(k: int) -> list[int]:
    return list(range(k, -1, -1))


def lu_factors(k: int) -> tuple[SymMatrix, SymMatrix]:
    """The factors (L, U) of the index-reversed block: L = P S^-1 P, U = S at -z.

    L is lower triangular, U upper triangular, and P * Rcheck == L * U; the
    product identity is asserted before returning.
    """
    perm = _reversal(k)
    l_factor = SymMatrix.from_function(
        k + 1, k + 1, lambda i, j: sinv_entry(k, k - i, k - j).expand()
    )
    u_factor = S_matrix(k).flip_z()
    product = l_factor.mul(u_factor)
    permuted = rblock_triangular(k).matrix.permute_rows(perm)
    bad = permuted.mismatches(product)
    if bad:
        raise AssertionError(f"LU factorization mismatch at entries {bad}")
    return l_factor, u_factor


def verify_equal_constructions(k: int) -> Report:
    """Entrywise value equality of the closed-form and triangular blocks."""
    report = Report("equal_constructions", {"k": k})
    closed = rblock_closed(k).matrix
    tri = rblock_triangular(k).matrix
    for i, j in closed.mismatches(tri):
        report.fail(
            i=i,
            j_prime=j,
            closed=ratfun_to_str(closed.entries[i][j]),
            triangular=ratfun_to_str(tri.entries[i][j]),
        )
    return report


# ---------------------------------------------------------------------------
# spin specialization and assembly
# ---------------------------------------------------------------------------


def _bound_summands(k: int, bp: int, b: int, ell: int) -> list[FactoredRat]:
    """The factored summands of block entry (b', b) with eps -> -ell*phi bound.

    A summand whose numerator gains a vanishing form is zero and is dropped.
    Denominator forms all contain z, so binding never makes one vanish.
    """
    bound: list[FactoredRat] = []
    for term in _rblock_entry_terms(k, bp, b):
        pairs = [(form.bind_eps(-ell), exp) for form, exp in term.factors]
        if any(exp > 0 and form.is_zero for form, exp in pairs):
            continue
        bound.append(FactoredRat(term.scalar, pairs))
    return bound


def specialize_block(
    k: int, ell: int
) -> tuple[
    dict[int, dict[int, RatFun]], set[Fraction], dict[int, dict[int, frozenset[Fraction]]]
]:
    """The sector-k entries that the spin-ell/2 matrix uses, with their genuine poles.

    Only entries (b', b) with b', b in max(0, k-ell)..min(k, ell) are built.
    Each is summed from its factored summands after binding eps -> -ell*phi,
    so the sum is already homogeneous in (z, phi); then phi -> 1.  Pole
    candidates are read off the bound denominator forms z + c*phi, which
    vanish at z = -c once phi = 1.  Factors shared by numerator and
    denominator are cancelled by trial division at those candidates, so only
    genuine poles survive and evaluation at z = 0 stays legal.
    Returns (entries, union of poles, per-entry pole sets), both maps indexed
    [b'][b].
    """
    phi_binding = {"phi": MPoly.one()}
    span = range(max(0, k - ell), min(k, ell) + 1)
    poles: set[Fraction] = set()
    entries: dict[int, dict[int, RatFun]] = {}
    pole_grid: dict[int, dict[int, frozenset[Fraction]]] = {}
    for bp in span:
        entries[bp], pole_grid[bp] = {}, {}
        for b in span:
            summed = factored_sum(_bound_summands(k, bp, b, ell))
            candidates = sorted(
                Fraction(-form.c_phi, form.c_z) for form, _ in summed.den_factors
            )
            num, den = cancel_common_z_roots(
                summed.num.substitute(phi_binding),
                summed.den.substitute(phi_binding),
                candidates,
            )
            genuine = frozenset(
                root
                for root in candidates
                if den.substitute({"z": MPoly.const(root)}).is_zero
            )
            poles |= genuine
            entries[bp][b] = RatFun(num, den)
            pole_grid[bp][b] = genuine
    return entries, poles, pole_grid


@dataclass(frozen=True)
class FullR:
    """The assembled R-matrix on the tensor square, rational in z alone.

    Basis: pairs (a, b) with a, b in 0..ell, ordered lexicographically; the
    pair (a, b) is row/column (ell+1)*a + b.  Blocks couple only equal total
    weights a + b.
    """

    ell: int
    matrix: SymMatrix
    pole_candidates: frozenset[Fraction]

    @property
    def dim(self) -> int:
        return (self.ell + 1) ** 2

    def basis(self) -> list[tuple[int, int]]:
        d = self.ell + 1
        return [(a, b) for a in range(d) for b in range(d)]

    def check_pole(self, value: Fraction) -> None:
        if value in self.pole_candidates:
            raise PoleSpecializationError(
                f"z = {value} lies on the pole set of the assembled matrix "
                f"(factor z - ({value}))"
            )

    def at_z(self, value: Fraction) -> FracMat:
        """Exact numeric matrix at a rational spectral parameter."""
        self.check_pole(value)
        point = {"z": value}
        return [
            [
                entry.eval_rational(point) if not entry.is_zero else Fraction(0)
                for entry in row
            ]
            for row in self.matrix.entries
        ]

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "basis_order": "lex(a,b)",
            "entries": [[ratfun_to_str(e) for e in row] for row in self.matrix.entries],
        }


def assemble_full(ell: int) -> FullR:
    """Assemble the spin-ell/2 R-matrix from the sector entries on the spin line.

    Each entry is bound (eps -> -ell*phi), summed, set to phi = 1 and
    cancelled by ``specialize_block``; no generic block is expanded.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    d = ell + 1
    dim = d * d
    zero = RatFun.zero()
    grid: list[list[RatFun]] = [[zero] * dim for _ in range(dim)]
    poles: set[Fraction] = set()
    for k in range(2 * ell + 1):
        block, block_poles, _ = specialize_block(k, ell)
        poles |= block_poles
        for bp, row in block.items():
            for b, entry in row.items():
                grid[d * (k - bp) + bp][d * (k - b) + b] = entry
    labels = [(a, b) for a in range(d) for b in range(d)]
    return FullR(ell, SymMatrix(grid, labels, labels), frozenset(poles))


# ---------------------------------------------------------------------------
# verifications
# ---------------------------------------------------------------------------


def verify_unitarity_block(k: int) -> Report:
    """R(z) R(-z) == Id symbolically in (z, phi, eps) for the sector-k block."""
    report = Report("unitarity_block", {"k": k})
    block = rblock_closed(k).matrix
    product = block.mul(block.flip_z())
    for i in range(k + 1):
        for j in range(k + 1):
            if not product.entries[i][j].value_eq(1 if i == j else 0):
                report.fail(i=i, j=j, entry=ratfun_to_str(product.entries[i][j]))
    return report


def verify_unitarity_full(ell: int) -> Report:
    """R(z) R(-z) == Id symbolically in z for the assembled matrix."""
    report = Report("unitarity_full", {"ell": ell})
    full = assemble_full(ell)
    product = full.matrix.mul(full.matrix.flip_z())
    dim = full.dim
    for i in range(dim):
        for j in range(dim):
            if not product.entries[i][j].value_eq(1 if i == j else 0):
                report.fail(
                    row=full.matrix.row_labels[i],
                    col=full.matrix.col_labels[j],
                    entry=ratfun_to_str(product.entries[i][j]),
                )
    return report


def verify_identity_at_zero(ell: int) -> Report:
    """R(0) == Id for the assembled matrix."""
    report = Report("identity_at_zero", {"ell": ell})
    full = assemble_full(ell)
    numeric = full.at_z(Fraction(0))
    if numeric != fracmat.identity(full.dim):
        report.fail(reason="R(0) is not the identity")
    return report


def _sector_indices(ell: int, factors: int) -> list[list[int]]:
    """Indices of the tensor-power basis grouped by total weight."""
    d = ell + 1
    sectors: dict[int, list[int]] = {}
    for idx in range(d**factors):
        rest, total = idx, 0
        for _ in range(factors):
            total += rest % d
            rest //= d
        sectors.setdefault(total, []).append(idx)
    return [sectors[w] for w in sorted(sectors)]


class _TripleOp:
    """A pair operator acting on slots (1,2) or (2,3) of the triple tensor power."""

    def __init__(self, pair: FracMat, d: int, slots: str):
        self.pair = pair
        self.d = d
        self.slots = slots  # "12" or "23"

    def entry(self, row: int, col: int) -> int | Fraction:
        d = self.d
        r1, r2, r3 = row // (d * d), (row // d) % d, row % d
        c1, c2, c3 = col // (d * d), (col // d) % d, col % d
        if self.slots == "12":
            if r3 != c3:
                return 0
            return self.pair[r1 * d + r2][c1 * d + c2]
        if r1 != c1:
            return 0
        return self.pair[r2 * d + r3][c2 * d + c3]


def _sector_matrix(op: _TripleOp, indices: list[int]) -> FracMat:
    return [[op.entry(r, c) for c in indices] for r in indices]


def verify_ybe(ell: int, z1: Rational, z2: Rational, z3: Rational) -> Report:
    """Exact Yang-Baxter check at one rational triple.

    Both sides of the braid relation are evaluated per total-weight sector of
    the triple tensor power (the operators conserve total weight) and compared
    entrywise, in integer arithmetic (see ``_ybe_at``).
    """
    full = assemble_full(ell)
    return _ybe_at(full, Fraction(z1), Fraction(z2), Fraction(z3))


def _integer_scaled(m: FracMat) -> tuple[FracMat, int]:
    """(d*m, d) for d the lcm of the entries' denominators; d*m is an int matrix."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def _ybe_at(full: FullR, z1: Fraction, z2: Fraction, z3: Fraction) -> Report:
    """Braid relation at one triple, on integer matrices.

    R(z1-z2), R(z1-z3) and R(z2-z3) are scaled to integer matrices by the lcm
    d12, d13, d23 of their denominators.  Each side of the relation is a
    product of one of each, so both sides carry the same factor d12*d13*d23
    and agree exactly when the integer products agree.  A witness is divided
    back by that factor, so it reports the rational entry.
    """
    report = Report("ybe", {"ell": full.ell, "z": [str(z1), str(z2), str(z3)]})
    d = full.ell + 1
    r12, d12 = _integer_scaled(full.at_z(z1 - z2))
    r13, d13 = _integer_scaled(full.at_z(z1 - z3))
    r23, d23 = _integer_scaled(full.at_z(z2 - z3))
    scale = d12 * d13 * d23
    lhs_ops = [_TripleOp(r23, d, "12"), _TripleOp(r13, d, "23"), _TripleOp(r12, d, "12")]
    rhs_ops = [_TripleOp(r12, d, "23"), _TripleOp(r13, d, "12"), _TripleOp(r23, d, "23")]
    for indices in _sector_indices(full.ell, 3):
        lhs = _sector_product(lhs_ops, indices)
        rhs = _sector_product(rhs_ops, indices)
        if lhs != rhs:
            for r, row in enumerate(lhs):
                for c, val in enumerate(row):
                    if val != rhs[r][c]:
                        report.fail(
                            row=indices[r],
                            col=indices[c],
                            lhs=str(Fraction(val, scale)),
                            rhs=str(Fraction(rhs[r][c], scale)),
                        )
    return report


def _sector_product(ops: Sequence[_TripleOp], indices: list[int]) -> FracMat:
    out = _sector_matrix(ops[0], indices)
    for op in ops[1:]:
        out = fracmat.mat_mul(out, _sector_matrix(op, indices))
    return out


def sample_spectral_triples(
    ell: int,
    trials: int,
    seed: int,
    poles: frozenset[Fraction] | None = None,
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Seeded rational triples whose pairwise differences avoid the pole set.

    Numerators are drawn from [-50, 50], denominators from [1, 20]; a draw is
    rejected when any pairwise difference hits a pole of the assembled matrix.
    """
    if poles is None:
        poles = assemble_full(ell).pole_candidates
    rng = random.Random(seed)
    out: list[tuple[Fraction, Fraction, Fraction]] = []
    while len(out) < trials:
        zs = tuple(
            Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(3)
        )
        diffs = (zs[0] - zs[1], zs[0] - zs[2], zs[1] - zs[2])
        if any(dz in poles for dz in diffs):
            continue
        out.append(zs)
    return out


def ybe_trials(ell: int, trials: int, seed: int) -> Report:
    """Yang-Baxter at ``trials`` seeded random rational triples."""
    report = Report("ybe_trials", {"ell": ell, "trials": trials, "seed": seed})
    full = assemble_full(ell)
    triples = sample_spectral_triples(ell, trials, seed, poles=full.pole_candidates)
    for z1, z2, z3 in triples:
        sub = _ybe_at(full, z1, z2, z3)
        if not sub.passed:
            report.fail(z=[str(z1), str(z2), str(z3)], first=sub.failures[0])
    return report


def verify_block_limit(k: int) -> Report:
    """Every block entry stays bounded as z -> infinity (degree check).

    The limit matrix is the signed index reversal (-1)^k P: at the other end
    of the spectral line the operator degenerates to the sector's permutation,
    with the sign alternating between sectors.  (The identity sits at z = 0.)
    """
    report = Report("block_limit_at_infinity", {"k": k})
    block = rblock_closed(k).matrix
    sign = -1 if k % 2 else 1
    for i in range(k + 1):
        for j in range(k + 1):
            limit = limit_at_z_infinity(block.entries[i][j])
            expected = sign if i == k - j else 0
            if limit is None or not limit.value_eq(expected):
                report.fail(
                    i=i,
                    j_prime=j,
                    expected=expected,
                    limit="divergent" if limit is None else ratfun_to_str(limit),
                )
    return report
