"""Pinned low-spin reference matrices and the golden verification suite.

The spin-1/2 and spin-1 R-matrices are classical; their entries, the k = 2
stable-class matrix, the attracting-class expansion and the change of basis
between them are fixed here as exact expressions.  These fixtures pin every
normalization and index convention of the construction: any convention drift
shows up as a golden failure, not as a silent sign change.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import MPoly, RatFun
from .fracmat import SymMatrix
from .report import Report
from .rmatrix import assemble_full, rblock_closed
from .stablebasis import S_inverse, S_matrix, solve_change_of_basis, zbar_coeff

Z = MPoly.var("z")
PHI = MPoly.var("phi")
EPS = MPoly.var("eps")
ONE = MPoly.one()


def spin_half_block() -> SymMatrix:
    """The 2 x 2 sector block of the cotangent-bundle-of-P1 case, generic eps."""
    den = EPS - Z
    return SymMatrix(
        [
            [RatFun(EPS, den), RatFun(Z, den)],
            [RatFun(Z, den), RatFun(EPS, den)],
        ]
    )


def spin_one_middle_block() -> SymMatrix:
    """The 3 x 3 sector block at k = 2, generic (z, phi, eps)."""
    den = (EPS - Z) * (PHI + EPS - Z)
    return SymMatrix(
        [
            [
                RatFun(EPS * (PHI + EPS), den),
                RatFun(Z * EPS, den),
                RatFun(-(Z * (PHI - Z)), den),
            ],
            [
                RatFun(MPoly.const(2) * Z * (PHI + EPS), den),
                RatFun(PHI * EPS + PHI * Z + EPS * EPS + Z * Z, den),
                RatFun(MPoly.const(2) * Z * (PHI + EPS), den),
            ],
            [
                RatFun(-(Z * (PHI - Z)), den),
                RatFun(Z * EPS, den),
                RatFun(EPS * (PHI + EPS), den),
            ],
        ]
    )


def stable_matrix_k1() -> SymMatrix:
    """S at k = 1 (hand evaluation of the product ranges)."""
    return SymMatrix(
        [
            [RatFun(ONE, EPS + Z), RatFun(-EPS, Z * (EPS + Z))],
            [RatFun.zero(), RatFun(ONE, Z)],
        ]
    )


def stable_inverse_k1() -> SymMatrix:
    return SymMatrix(
        [
            [RatFun(EPS + Z), RatFun(EPS)],
            [RatFun.zero(), RatFun(Z)],
        ]
    )


def stable_matrix_k2() -> SymMatrix:
    """The printed 3 x 3 stable-class matrix at k = 2."""
    return SymMatrix(
        [
            [
                RatFun(ONE, (EPS + Z) * (PHI + EPS + Z)),
                RatFun(-EPS, (EPS + Z) * (PHI + Z) * (PHI + EPS + Z)),
                RatFun(EPS * (PHI + EPS), Z * (EPS + Z) * (PHI + Z) * (PHI + EPS + Z)),
            ],
            [
                RatFun.zero(),
                RatFun(ONE, (EPS + Z) * (PHI + Z)),
                RatFun(MPoly.const(2) * (PHI + EPS), (EPS + Z) * (PHI - Z) * (PHI + Z)),
            ],
            [RatFun.zero(), RatFun.zero(), RatFun(-ONE, Z * (PHI - Z))],
        ]
    )


def attracting_matrix_k2() -> SymMatrix:
    """The printed 3 x 3 attracting-class expansion at k = 2."""
    return SymMatrix(
        [
            [
                RatFun(ONE, (EPS + Z) * (PHI + EPS + Z)),
                RatFun(-ONE, (EPS + Z) * (PHI + Z)),
                RatFun(ONE, Z * (PHI + Z)),
            ],
            [
                RatFun.zero(),
                RatFun(ONE, (EPS + Z) * (PHI + Z)),
                RatFun(MPoly.const(2), (PHI - Z) * (PHI + Z)),
            ],
            [RatFun.zero(), RatFun.zero(), RatFun(-ONE, Z * (PHI - Z))],
        ]
    )


CHANGE_OF_BASIS_K2 = [[1, 1, 1], [0, 1, 2], [0, 0, 1]]


def spin_one_full_matrix() -> SymMatrix:
    """The assembled 9 x 9 spin-1 matrix, rational in z, basis lex(a, b)."""
    zp1 = Z + MPoly.const(1)
    zp2 = Z + MPoly.const(2)
    d1 = zp2
    d2 = zp1 * zp2
    a = RatFun(MPoly.const(2), d1)
    b = RatFun(-Z, d1)
    cc = RatFun(MPoly.const(2), d2)
    dd = RatFun(MPoly.const(-2) * Z, d2)
    ee = RatFun(Z * (Z - MPoly.const(1)), d2)
    ff = RatFun(Z * Z + Z + MPoly.const(2), d2)
    one = RatFun.one()
    o = RatFun.zero()
    grid = [
        [one, o, o, o, o, o, o, o, o],
        [o, a, o, b, o, o, o, o, o],
        [o, o, cc, o, dd, o, ee, o, o],
        [o, b, o, a, o, o, o, o, o],
        [o, o, dd, o, ff, o, dd, o, o],
        [o, o, o, o, o, a, o, b, o],
        [o, o, ee, o, dd, o, cc, o, o],
        [o, o, o, o, o, b, o, a, o],
        [o, o, o, o, o, o, o, o, one],
    ]
    return SymMatrix(grid)


# ---------------------------------------------------------------------------
# golden suite
# ---------------------------------------------------------------------------


def _compare(report: Report, computed: SymMatrix, expected: SymMatrix) -> Report:
    for i, j in computed.mismatches(expected):
        report.fail(
            i=i,
            j=j,
            computed=str(computed.entries[i][j]),
            expected=str(expected.entries[i][j]),
        )
    return report


def golden_spin_half_block() -> Report:
    return _compare(
        Report("golden_spin_half_block", {"k": 1}),
        rblock_closed(1),
        spin_half_block(),
    )


def golden_spin_one_block() -> Report:
    return _compare(
        Report("golden_spin_one_block", {"k": 2}),
        rblock_closed(2),
        spin_one_middle_block(),
    )


def golden_stable_matrix_k1() -> Report:
    report = _compare(
        Report("golden_stable_matrix_k1", {"k": 1}), S_matrix(1), stable_matrix_k1()
    )
    return _compare(report, S_inverse(1), stable_inverse_k1())


def golden_stable_matrix_k2() -> Report:
    return _compare(
        Report("golden_stable_matrix_k2", {"k": 2}), S_matrix(2), stable_matrix_k2()
    )


def golden_attracting_matrix_k2() -> Report:
    report = Report("golden_attracting_matrix_k2", {"k": 2})
    expected = attracting_matrix_k2()
    for jp in range(3):
        for j in range(3):
            computed = zbar_coeff(2, j, jp).expand()
            if not computed.value_eq(expected.entries[j][jp]):
                report.fail(j=j, j_prime=jp, computed=str(computed))
    solved = solve_change_of_basis(2)
    if solved != [[Fraction(x) for x in row] for row in CHANGE_OF_BASIS_K2]:
        report.fail(
            reason="change-of-basis solve differs from pinned matrix",
            solved=[[str(x) for x in row] for row in solved],
        )
    return report


def golden_spin_one_full() -> Report:
    return _compare(
        Report("golden_spin_one_full", {"ell": 2}),
        assemble_full(2).matrix,
        spin_one_full_matrix(),
    )


GOLDEN_CHECKS = {
    "golden_spin_half_block": golden_spin_half_block,
    "golden_spin_one_block": golden_spin_one_block,
    "golden_stable_matrix_k1": golden_stable_matrix_k1,
    "golden_stable_matrix_k2": golden_stable_matrix_k2,
    "golden_attracting_matrix_k2": golden_attracting_matrix_k2,
    "golden_spin_one_full": golden_spin_one_full,
}

