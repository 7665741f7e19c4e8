"""Tensor-square representation theory: brackets, projectors, spectra."""

import math
from fractions import Fraction

import pytest

from spinr import fracmat, oracle
from spinr.exactalg import MPoly, RatFun, cancel_common_z_roots, ratfun_to_str
from spinr.oracle import (
    OracleStructureError,
    casimir_matrix,
    casimir_projectors,
    commutation_gauge,
    coproduct,
    fusion_numerator,
    sl2_rep,
    spectral_decompose,
    spectral_numerators,
    verify_sl2_commutation,
    verify_spectrum,
)
from spinr.rmatrix import (
    FullR,
    assemble_full,
    over_spin_denominator,
    spin_denominator,
    z_poly,
)

Z = MPoly.var("z")
ONE = MPoly.one()


def bracket(a, b):
    return fracmat.mat_sub(fracmat.mat_mul(a, b), fracmat.mat_mul(b, a))


# ---------------------------------------------------------------------------
# the irreducible and its coproduct
# ---------------------------------------------------------------------------


def test_bracket_relations_exact():
    for ell in range(1, 7):
        rep = sl2_rep(ell)
        assert bracket(rep.h, rep.e) == fracmat.mat_scale(rep.e, Fraction(2))
        assert bracket(rep.h, rep.f) == fracmat.mat_scale(rep.f, Fraction(-2))
        assert bracket(rep.e, rep.f) == rep.h


def test_coproduct_weight_diagonal():
    dh = coproduct(1, "H")
    assert [dh[i][i] for i in range(4)] == [2, 0, 0, -2]
    assert all(dh[i][j] == 0 for i in range(4) for j in range(4) if i != j)


def test_coproduct_is_algebra_map():
    for ell in (1, 2, 3):
        de, df, dh = coproduct(ell, "E"), coproduct(ell, "F"), coproduct(ell, "H")
        assert bracket(de, df) == dh
        assert bracket(dh, de) == fracmat.mat_scale(de, Fraction(2))


def test_coproduct_lowering_action():
    df = coproduct(1, "F")
    column = [df[i][0] for i in range(4)]  # image of e_0 (x) e_0
    assert column == [0, 1, 1, 0]  # e_0 (x) e_1 + e_1 (x) e_0


# ---------------------------------------------------------------------------
# Casimir projectors
# ---------------------------------------------------------------------------


def rank(a):
    """Rank over the rationals by Gaussian elimination."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def test_rank_stays_exact_on_int_pivots():
    # an int pivot must not turn the elimination into float arithmetic:
    # 7/3 is not a float, so a float reciprocal leaves a spurious residue
    assert rank([[3, 7], [6, 14]]) == 1
    assert rank([[3, 7], [1, Fraction(7, 3)]]) == 1
    assert rank([[3, 7], [1, 2]]) == 2


def test_projector_ranks():
    assert [rank(p) for p in casimir_projectors(1)] == [1, 3]
    assert [rank(p) for p in casimir_projectors(2)] == [1, 3, 5]


def _dense_projectors(ell):
    # reference route: Lagrange interpolation on the whole (ell+1)^2-dimensional Casimir
    c = casimir_matrix(ell)
    eye = fracmat.identity((ell + 1) ** 2)
    eigenvalue = [Fraction(2 * s * (s + 1)) for s in range(ell + 1)]
    projectors = []
    for s in range(ell + 1):
        p = eye
        for t in range(ell + 1):
            if t != s:
                shifted = fracmat.mat_sub(c, fracmat.mat_scale(eye, eigenvalue[t]))
                gap = eigenvalue[s] - eigenvalue[t]
                p = fracmat.mat_scale(fracmat.mat_mul(p, shifted), 1 / gap)
        projectors.append(p)
    return projectors


def test_projector_algebra():
    for ell in range(1, 7):
        projs = casimir_projectors(ell)
        if ell <= 4:
            assert list(projs) == _dense_projectors(ell)
        dim = (ell + 1) ** 2
        total = fracmat.zeros(dim, dim)
        for s, p in enumerate(projs):
            assert fracmat.mat_mul(p, p) == p
            assert rank(p) == 2 * s + 1
            for t, q in enumerate(projs):
                if t < s:
                    assert fracmat.mat_mul(p, q) == fracmat.zeros(dim, dim)
            total = fracmat.mat_add(total, p)
        assert total == fracmat.identity(dim)


def test_casimir_spectrum():
    for ell in (1, 2, 3):
        c = casimir_matrix(ell)
        dim = (ell + 1) ** 2
        product = fracmat.identity(dim)
        for s in range(ell + 1):
            shift = fracmat.mat_scale(fracmat.identity(dim), Fraction(2 * s * (s + 1)))
            product = fracmat.mat_mul(product, fracmat.mat_sub(c, shift))
        assert product == fracmat.zeros(dim, dim)


# ---------------------------------------------------------------------------
# commutation and gauge
# ---------------------------------------------------------------------------


def test_commutation_needs_one_sign_flip_per_column():
    for ell in range(1, 7):
        report = verify_sl2_commutation(assemble_full(ell))
        assert report.passed
        gauge = report.details["gauge"]
        d = ell + 1
        expected = [(-1) ** (idx % d) for idx in range(d * d)]
        assert gauge == expected


def test_commutation_witness_names_generator_power_and_entry():
    # one coupling of the spin-1 matrix scaled by 2 breaks commutation; each
    # witness must name a nonzero commutator entry, the first one row by row
    full = assemble_full(2)
    labels = full.labels
    num = [list(row) for row in full.num]
    i, j = labels.index((0, 1)), labels.index((1, 0))
    num[i][j] = tuple(2 * c for c in num[i][j])
    broken = FullR(2, tuple(map(tuple, num)))
    report = verify_sl2_commutation(broken)
    assert not report.passed and "gauge" not in report.details
    sigma = [(-1) ** (idx % 3) for idx in range(9)]
    for witness in report.failures:
        assert set(witness) == {"generator", "power", "entry", "value"}
        n_e = broken.coefficients()[witness["power"]]
        gauged = [[sigma[r] * sigma[c] * x for c, x in enumerate(row)] for r, row in enumerate(n_e)]
        comm = bracket(gauged, coproduct(2, witness["generator"]))
        r, c = witness["entry"]
        assert comm[r][c] != 0 and witness["value"] == str(comm[r][c])
        assert not any(comm[r][:c]) and not any(x for row in comm[:r] for x in row)
    with pytest.raises(OracleStructureError):
        commutation_gauge(broken)


def test_gauge_is_weight_preserving():
    full = assemble_full(1)
    sigma = commutation_gauge(full)
    # conjugation by a diagonal sign matrix preserves the sector structure
    for i, (ap, bp) in enumerate(full.matrix.row_labels):
        for j, (a, b) in enumerate(full.matrix.row_labels):
            if ap + bp != a + b:
                assert full.matrix.entries[i][j].scale(sigma[i] * sigma[j]).is_zero


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def test_spectral_values_locked_spin_half():
    rhos = spectral_decompose(assemble_full(1))
    assert [ratfun_to_str(r) for r in rhos] == ["(1 - z)/(1 + z)", "1"]


def test_spectral_values_locked_spin_one():
    rhos = spectral_decompose(assemble_full(2))
    assert [ratfun_to_str(r) for r in rhos] == [
        "(2 - 3*z + z^2)/(2 + 3*z + z^2)",
        "(2 - z)/(2 + z)",
        "1",
    ]


def test_spectral_ratio_matches_middle_block_eigenvalues():
    # the 2x2 middle block [[eps, z], [z, eps]]/(eps - z) at eps = -1 has
    # eigenvalues (eps +- z)/(eps - z); the ratio of the two spectral
    # functions must reproduce (eps + z)/(eps - z) up to inversion
    rhos = spectral_decompose(assemble_full(1))
    ratio = rhos[0] / rhos[1]
    expected = RatFun(ONE - Z, ONE + Z)  # (eps+z)/(eps-z) at eps = -1
    assert ratio.value_eq(expected)


def test_spectrum_is_the_fusion_product():
    # rho_s(z) = prod_{j=s+1..ell} (j - z)/(j + z) (Kulish-Reshetikhin-Sklyanin),
    # in lowest terms with monic denominator, compared term for term
    for ell in (3, 4):
        rhos = spectral_decompose(assemble_full(ell))
        assert len(rhos) == ell + 1
        for s, rho in enumerate(rhos):
            num, den = ONE, ONE
            for j in range(s + 1, ell + 1):
                num = num * (MPoly.const(j) - Z)
                den = den * (MPoly.const(j) + Z)
            assert rho.num == num and rho.den == den, (ell, s, ratfun_to_str(rho))


def _fusion_product(ell, s):
    num = ONE
    for j in range(1, ell + 1):
        num = num * (Z + MPoly.const(j) if j <= s else MPoly.const(j) - Z)
    return num


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _flip(coeffs):
    # p(z) -> p(-z)
    return [-x if e % 2 else x for e, x in enumerate(coeffs)]


def test_fusion_numerator_implies_the_spectral_identities():
    # for rho_s = n_s/D the closed form alone gives rho_s(0) = 1, unitarity
    # rho_s(z) rho_s(-z) = 1 and the Moebius ratios
    # rho_(s+1)/rho_s = (z+s+1)/(s+1-z); verify_spectrum checks only the
    # closed form, so these are checked here once, on int coefficient lists
    for ell in range(1, 13):
        d = [1]
        for j in range(1, ell + 1):
            d = _poly_mul(d, [j, 1])
        unit = _poly_mul(d, _flip(d))
        for s in range(ell + 1):
            n = fusion_numerator(ell, s)
            assert n[0] == math.factorial(ell) == d[0], (ell, s)
            assert _poly_mul(n, _flip(n)) == unit, (ell, s)
            if s < ell:
                step = _poly_mul(fusion_numerator(ell, s + 1), [s + 1, -1])
                assert step == _poly_mul(n, [s + 1, 1]), (ell, s)


def test_rho_matches_the_trial_division_route():
    # second route: strip the common roots of n_s and D by substitution,
    # at the candidate roots -1..-ell, and compare num and den term for term
    # (spectral_decompose is over_spin_denominator on each n_s)
    for ell in range(1, 7):
        full = assemble_full(ell)
        roots = sorted(Fraction(-j) for j in range(1, ell + 1))
        numerators = spectral_numerators(full)
        for s, n in enumerate(numerators):
            rho = over_spin_denominator(n, ell)
            num, den = cancel_common_z_roots(z_poly(n), spin_denominator(ell), roots)
            assert rho.num == num and rho.den == den, (ell, s)
            assert z_poly(n) == _fusion_product(ell, s), (ell, s)


def test_spectrum_checks_the_closed_form_coefficients(monkeypatch):
    # N(-z)/D(z) still commutes, and its eigenvalues prod_{j<=s} (j-z)/(j+z)
    # satisfy rho(0) = 1, rho(z) rho(-z) = 1 and Moebius ratios; only the
    # closed form of the fusion numerators tells it from R
    ell = 3
    mirrored = tuple(
        tuple(tuple(-c if e % 2 else c for e, c in enumerate(coeffs)) for coeffs in row)
        for row in assemble_full(ell).num
    )
    broken = FullR(ell, mirrored)
    assert verify_sl2_commutation(broken).passed
    monkeypatch.setattr(oracle, "assemble_full", lambda ell: broken)
    report = verify_spectrum(ell)
    expected = []
    for s in range(ell + 1):
        for (e, _, _), x in sorted(_fusion_product(ell, s).terms.items()):
            if e % 2:
                expected.append({"s": s, "power": e, "got": str(-x), "expected": str(x)})
    assert expected and report.failures == expected


def test_spectrum_suite():
    for ell in (1, 2):
        report = verify_spectrum(ell)
        assert report.passed
        assert "rho" in report.details


def test_reconstruction_failure_raises():
    full = assemble_full(1)
    bad_gauge = [1, 1, 1, 1]  # identity gauge does not commute; projection drops data
    with pytest.raises(OracleStructureError):
        spectral_decompose(full, bad_gauge)
