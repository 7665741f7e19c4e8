"""Stable-class expansions, the triangular matrix S, its inverse, residues."""

import json
from fractions import Fraction

import pytest

from spinr import stablebasis
from spinr.exactalg import (
    FactoredRat,
    LinForm,
    MPoly,
    RatFun,
    factored_sum,
    ratfun_to_str,
    residue_at,
    run_pairs,
)
from spinr.fracmat import SymMatrix
from spinr.report import Report
from spinr.golden import (
    attracting_matrix_k2,
    stable_inverse_k1,
    stable_matrix_k1,
    stable_matrix_k2,
)
from spinr.stablebasis import (
    S_inverse,
    S_matrix,
    binom,
    candidate_poles,
    sinv_entry,
    solve_change_of_basis,
    stable_coeff,
    verify_inverse,
    verify_linrel,
    verify_residues_all,
    zbar_coeff,
    _sinv_s_entry_terms,
)

Z = MPoly.var("z")
PHI = MPoly.var("phi")
EPS = MPoly.var("eps")
ONE = MPoly.one()


# ---------------------------------------------------------------------------
# class expansions against printed values
# ---------------------------------------------------------------------------


def test_zbar_column_k2():
    expected = attracting_matrix_k2()
    for jp in range(3):
        for j in range(jp + 1):
            assert zbar_coeff(2, j, jp).expand() == expected.entries[j][jp]


def test_zbar_middle_entry_value():
    assert zbar_coeff(2, 1, 2).expand() == RatFun(MPoly.const(2), (PHI - Z) * (PHI + Z))


def test_zbar_corner_entry_value():
    assert zbar_coeff(2, 0, 0).expand() == RatFun(ONE, (EPS + Z) * (PHI + EPS + Z))


def test_zbar_k1_last_entry():
    # cross-checked against the weight-table path in test_moduli
    assert zbar_coeff(1, 1, 1).expand() == RatFun(ONE, Z)


def test_stable_column_k2():
    expected = stable_matrix_k2()
    for jp in range(3):
        for j in range(jp + 1):
            assert stable_coeff(2, j, jp).expand() == expected.entries[j][jp]


def test_stable_entry_examples():
    assert (
        stable_coeff(2, 0, 2).expand()
        == RatFun(EPS * (PHI + EPS), Z * (EPS + Z) * (PHI + Z) * (PHI + EPS + Z))
    )
    assert stable_coeff(2, 1, 1).expand() == RatFun(ONE, (EPS + Z) * (PHI + Z))
    assert stable_coeff(1, 0, 1).expand() == RatFun(-EPS, Z * (EPS + Z))


def stable_coeff_merged(k: int, j: int, j_prime: int) -> FactoredRat:
    """Equivalent form of ``stable_coeff`` with the two z-products merged.

    Negating the running index of the (r*phi - z) product turns it into
    (r*phi + z) factors over the complementary range, at the cost of a sign.
    """
    if j > j_prime or j < 0 or j_prime > k:
        return FactoredRat.zero()
    pairs = run_pairs(((0, 1, j, j_prime - 1, 1), (1, 1, 0, k - j - 1, -1)))
    pairs += [
        (LinForm(1, r, 0), -1)
        for r in range(k - j - j_prime, k - j + 1)
        if r != k - 2 * j
    ]
    sign = -1 if (j_prime - j) % 2 else 1
    return FactoredRat(sign * binom(j_prime, j), pairs)


def test_merged_form_equals_displayed_form():
    # the rewrite that fuses the two z-products, used by the residue argument
    for k in range(6):
        for jp in range(k + 1):
            for j in range(jp + 1):
                assert stable_coeff(k, j, jp).expand() == stable_coeff_merged(k, j, jp).expand()


# ---------------------------------------------------------------------------
# S and its inverse
# ---------------------------------------------------------------------------


def test_s_matrix_k0_is_identity_entry():
    m = S_matrix(0)
    assert m.rows == m.cols == 1
    assert m.entries[0][0].value_eq(1)


def test_s_matrix_k1_hand_values():
    assert not S_matrix(1).mismatches(stable_matrix_k1())
    assert not S_inverse(1).mismatches(stable_inverse_k1())


def test_s_matrix_k2_printed():
    assert not S_matrix(2).mismatches(stable_matrix_k2())


def test_sinv_entry_k2_02():
    # binom(2,0) * eps (phi+eps); the two z-products have empty ranges here
    assert sinv_entry(2, 0, 2).expand() == RatFun(EPS * (PHI + EPS))


def test_upper_triangularity_and_diagonal():
    for k in range(6):
        for m in (S_matrix(k), S_inverse(k)):
            for j in range(k + 1):
                assert not m.entries[j][j].is_zero
                for jp in range(j):
                    assert m.entries[j][jp].is_zero


def test_diagonal_product_is_one():
    for k in range(6):
        s, si = S_matrix(k), S_inverse(k)
        for j in range(k + 1):
            assert (s.entries[j][j] * si.entries[j][j]).value_eq(1)


def test_offdiagonal_vanishes_at_origin():
    # smallness: stable coefficients below the diagonal vanish at phi = eps = 0
    origin = {"phi": MPoly.zero(), "eps": MPoly.zero()}
    for k in range(6):
        for jp in range(k + 1):
            for j in range(jp):
                f = stable_coeff(k, j, jp).expand()
                assert not f.den.substitute(origin).is_zero
                assert f.num.substitute(origin).is_zero


def test_top_coefficient_matches_attracting_class():
    for k in range(6):
        for jp in range(k + 1):
            assert stable_coeff(k, jp, jp).expand() == zbar_coeff(k, jp, jp).expand()


# ---------------------------------------------------------------------------
# verifications
# ---------------------------------------------------------------------------


def test_verify_inverse_small():
    for k in range(5):
        assert verify_inverse(k).passed


def test_inverse_holds_on_both_sides_through_k6():
    # verify_inverse decides S S^-1 = Id; the other side is a second route
    for k in range(7):
        identity = SymMatrix.identity(k + 1)
        assert not S_inverse(k).mul(S_matrix(k)).mismatches(identity), k
        assert not S_matrix(k).mul(S_inverse(k)).mismatches(identity), k


def test_inverse_failure_lists_the_entries_of_sinv_s(monkeypatch):
    k = 4
    s_inv, s = S_inverse(k), S_matrix(k)
    grid = [list(row) for row in s_inv.entries]
    grid[1][2] = grid[1][2].scale(3)
    broken = SymMatrix(grid)
    monkeypatch.setattr(stablebasis, "S_inverse", lambda k: broken)
    report = verify_inverse(k)
    identity = SymMatrix.identity(k + 1)
    product = broken.mul(s)
    bad = product.mismatches(identity)
    # row 1 of S^-1 S is off from column 2 on; S S^-1 is off in column 2 only
    assert bad == [(1, 2), (1, 3), (1, 4)]
    assert s.mul(broken).mismatches(identity) == [(0, 2), (1, 2)]
    assert [(w["i"], w["j_prime"]) for w in report.failures] == bad
    for w in report.failures:
        assert w["entry"] == ratfun_to_str(product.entries[w["i"]][w["j_prime"]])
    # the report a check of S^-1 S = Id gives, built here by that route
    expected = Report("inverse", {"k": k})
    for i, j in bad:
        expected.fail(i=i, j_prime=j, entry=ratfun_to_str(product.entries[i][j]))
    assert report.to_json() == expected.to_json()


def test_verify_linrel_small_and_golden_solve():
    for k in range(5):
        assert verify_linrel(k).passed
    assert solve_change_of_basis(2) == [
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_linrel_trivial_base():
    assert stable_coeff(0, 0, 0).expand() == zbar_coeff(0, 0, 0).expand()


def test_residue_cancellation_k1():
    # (eps+z) * (-eps/(z (eps+z))) + eps * (1/z) has zero residue at z = 0
    terms = _sinv_s_entry_terms(1, 0, 1)
    entry = factored_sum(terms)
    assert residue_at(entry, 0).is_zero


def test_candidate_pole_collection():
    terms = _sinv_s_entry_terms(2, 0, 1)
    poles = candidate_poles(terms)
    assert poles == sorted(poles)
    assert all(isinstance(n, int) for n in poles)
    entry = factored_sum(terms)
    assert poles and all(residue_at(entry, n).is_zero for n in poles)


def test_verify_residues_all_small():
    for k in range(4):
        assert verify_residues_all(k).passed


@pytest.mark.parametrize("check", [verify_linrel, verify_residues_all])
def test_checks_refuse_negative_k(check):
    with pytest.raises(ValueError, match=r"^need k >= 0, got -1$"):
        check(-1)


def test_phi_eps_zero_value_refuses_a_factor_without_z():
    # every attracting coefficient has a z in each factor; a phi factor alone
    # would vanish at phi = eps = 0, where the triangular solve reads it
    with pytest.raises(ValueError, match=r"^factor phi vanishes at phi = eps = 0$"):
        stablebasis._phi_eps_zero_value(FactoredRat(1, [(LinForm(0, 1, 0), 1)]))


# the JSON text of each failing report below: dict equality ignores key
# order, the text does not; the witness keys come first, then i and j'
DOUBLED_SUMMAND_JSON = {
    (2, 0, 1): '{"check": "residues_all", "params": {"k": 2}, "status": "fail", '
    '"witness": {"pole": "z = -1*phi", "residue": "-eps", "i": 0, "j_prime": 1}, '
    '"failures": [{"pole": "z = -1*phi", "residue": "-eps", "i": 0, "j_prime": 1}]}',
    (2, 1, 1): '{"check": "residues_all", "params": {"k": 2}, "status": "fail", '
    '"witness": {"at": "z -> infinity", "expected": 1, "limit": "2", "i": 1, "j_prime": 1}, '
    '"failures": [{"at": "z -> infinity", "expected": 1, "limit": "2", "i": 1, "j_prime": 1}]}',
}


@pytest.mark.parametrize(
    "key, failure",
    [
        # the summands of (2, 0, 1) are -eps/(z+phi) and eps/(z+phi); doubling
        # the first leaves -eps/(z+phi), whose residue at z = -phi is -eps
        ((2, 0, 1), {"pole": "z = -1*phi", "residue": "-eps", "i": 0, "j_prime": 1}),
        # the diagonal entry (2, 1, 1) is the single summand 1; doubled it tends to 2
        ((2, 1, 1), {"at": "z -> infinity", "expected": 1, "limit": "2", "i": 1, "j_prime": 1}),
    ],
)
def test_residues_report_an_entry_with_a_doubled_summand(monkeypatch, key, failure):
    terms = stablebasis._sinv_s_entry_terms

    def doubled(k, i, j_prime):
        out = terms(k, i, j_prime)
        if (k, i, j_prime) == key:
            out[0] = out[0].scale(2)
        return out

    monkeypatch.setattr(stablebasis, "_sinv_s_entry_terms", doubled)
    report = verify_residues_all(2)
    assert not report.passed
    assert report.failures == [failure]
    assert json.dumps(report.to_json()) == DOUBLED_SUMMAND_JSON[key]


# ---------------------------------------------------------------------------
# SymMatrix mechanics
# ---------------------------------------------------------------------------


def test_symmatrix_product_and_identity():
    s = S_matrix(2)
    prod = S_inverse(2).mul(s)
    assert not prod.mismatches(SymMatrix.identity(3))
    assert not SymMatrix.identity(3).mismatches(SymMatrix.identity(3))


def test_symmatrix_json_and_latex():
    s = S_matrix(1)
    doc = s.to_json()
    assert doc["shape"] == [2, 2]
    assert doc["entries"][0][0] == "1/(eps + z)"
    assert doc["entries"][1][0] == "0"
    assert doc["row_labels"] == doc["col_labels"] == ["0", "1"]
    assert s.to_json([(0, 1), (1, 0)])["col_labels"] == ["(0, 1)", "(1, 0)"]
    tex = s.to_latex()
    assert tex.startswith("\\begin{pmatrix}") and "\\varepsilon" in tex


def test_symmatrix_shape_validation():
    with pytest.raises(ValueError):
        SymMatrix([[RatFun.one()], [RatFun.one(), RatFun.zero()]])
