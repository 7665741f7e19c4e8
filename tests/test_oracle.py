"""Tensor-square representation theory: brackets, projectors, spectra."""

import math
from fractions import Fraction

import pytest

from spinr import fracmat, oracle, rmatrix
from spinr.cli import MAX_ELL
from spinr.exactalg import MPoly, RatFun, cancel_common_z_roots, ratfun_to_str
from spinr.oracle import (
    OracleStructureError,
    casimir_projectors,
    fusion_numerator,
    highest_weight_vector,
    sector_action,
    sign_gauge,
    spectral_decompose,
    spectral_numerators,
    verify_sl2_commutation,
    verify_spectrum,
)
from spinr.rmatrix import (
    FullR,
    assemble_full,
    over_spin_denominator,
    pair_sectors,
    spin_denominator,
    z_poly,
)

Z = MPoly.var("z")
ONE = MPoly.one()


# the dense reference routes keep their own matrix helpers: src has only mat_mul


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def bracket(a, b):
    return mat_sub(fracmat.mat_mul(a, b), fracmat.mat_mul(b, a))


# ---------------------------------------------------------------------------
# dense reference: the irreducible, its coproduct and the Casimir on V (x) V
# ---------------------------------------------------------------------------


def sl2_rep(ell):
    """(E, F, H) of the spin-ell/2 irreducible on e_0..e_ell, as exact matrices."""
    d = ell + 1
    e, f, h = zeros(d, d), zeros(d, d), zeros(d, d)
    for a in range(d):
        h[a][a] = Fraction(ell - 2 * a)
        if a < ell:
            f[a + 1][a] = Fraction(1)
        if a > 0:
            e[a - 1][a] = Fraction(a * (ell - a + 1))
    return e, f, h


def kron(a, b):
    nb, mb = len(b), len(b[0])
    return [
        [x * b[p][q] for x in row_a for q in range(mb)] for row_a in a for p in range(nb)
    ]


def coproduct(ell, which):
    """The tensor-square action x(x)1 + 1(x)x of one generator."""
    x = sl2_rep(ell)["EFH".index(which)]
    eye = identity(ell + 1)
    return mat_add(kron(x, eye), kron(eye, x))


def casimir_matrix(ell):
    de, df, dh = coproduct(ell, "E"), coproduct(ell, "F"), coproduct(ell, "H")
    quad = mat_add(fracmat.mat_mul(de, df), fracmat.mat_mul(df, de))
    return mat_add(quad, mat_scale(fracmat.mat_mul(dh, dh), Fraction(1, 2)))


def test_bracket_relations_exact():
    for ell in range(1, 7):
        e, f, h = sl2_rep(ell)
        assert bracket(h, e) == mat_scale(e, Fraction(2))
        assert bracket(h, f) == mat_scale(f, Fraction(-2))
        assert bracket(e, f) == h


def test_coproduct_weight_diagonal():
    dh = coproduct(1, "H")
    assert [dh[i][i] for i in range(4)] == [2, 0, 0, -2]
    assert all(dh[i][j] == 0 for i in range(4) for j in range(4) if i != j)


def test_coproduct_is_algebra_map():
    for ell in (1, 2, 3):
        de, df, dh = coproduct(ell, "E"), coproduct(ell, "F"), coproduct(ell, "H")
        assert bracket(de, df) == dh
        assert bracket(dh, de) == mat_scale(de, Fraction(2))


def test_coproduct_lowering_action():
    df = coproduct(1, "F")
    column = [df[i][0] for i in range(4)]  # image of e_0 (x) e_0
    assert column == [0, 1, 1, 0]  # e_0 (x) e_1 + e_1 (x) e_0


def test_sector_action_is_the_coproduct_between_weight_sectors():
    # E_w and F_w are the blocks of the dense coproduct from sector w to
    # w-1 and w+1; the dense matrix has no other nonzero entry
    for ell in range(1, 5):
        sectors = pair_sectors(ell)
        action = sector_action(ell)
        for which, side, step in (("E", 0, -1), ("F", 1, 1)):
            x = coproduct(ell, which)
            for w, source in enumerate(sectors):
                target = sectors[w + step] if 0 <= w + step <= 2 * ell else []
                assert action[w][side] == [[x[i][j] for j in source] for i in target]
                for i in target:
                    for j in source:
                        x[i][j] = 0
            assert not any(v for row in x for v in row), (ell, which)


def test_sector_action_brackets_to_the_weight():
    # [E, F] = H on sector w: E_(w+1) F_w - F_(w-1) E_w = 2(ell - w) Id
    for ell in range(1, 7):
        action = sector_action(ell)
        for w, sector in enumerate(pair_sectors(ell)):
            n = len(sector)
            ef = fe = zeros(n, n)
            if w < 2 * ell:
                ef = fracmat.mat_mul(action[w + 1][0], action[w][1])
            if w:
                fe = fracmat.mat_mul(action[w - 1][1], action[w][0])
            weight = mat_scale(identity(n), 2 * (ell - w))
            assert mat_sub(ef, fe) == weight, (ell, w)


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
    eye = identity((ell + 1) ** 2)
    eigenvalue = [Fraction(2 * s * (s + 1)) for s in range(ell + 1)]
    projectors = []
    for s in range(ell + 1):
        p = eye
        for t in range(ell + 1):
            if t != s:
                shifted = mat_sub(c, mat_scale(eye, eigenvalue[t]))
                gap = eigenvalue[s] - eigenvalue[t]
                p = mat_scale(fracmat.mat_mul(p, shifted), 1 / gap)
        projectors.append(p)
    return projectors


def test_projector_algebra():
    for ell in range(1, 7):
        projs = casimir_projectors(ell)
        if ell <= 4:
            assert list(projs) == _dense_projectors(ell)
        dim = (ell + 1) ** 2
        total = zeros(dim, dim)
        for s, p in enumerate(projs):
            assert fracmat.mat_mul(p, p) == p
            assert rank(p) == 2 * s + 1
            for t, q in enumerate(projs):
                if t < s:
                    assert fracmat.mat_mul(p, q) == zeros(dim, dim)
            total = mat_add(total, p)
        assert total == identity(dim)


def test_casimir_spectrum():
    for ell in (1, 2, 3):
        c = casimir_matrix(ell)
        dim = (ell + 1) ** 2
        product = identity(dim)
        for s in range(ell + 1):
            shift = mat_scale(identity(dim), Fraction(2 * s * (s + 1)))
            product = fracmat.mat_mul(product, mat_sub(c, shift))
        assert product == zeros(dim, dim)


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


def coefficient_matrices(full):
    """N_0..N_ell as dense int matrices, scattered from the stored sector blocks."""
    n = full.dim
    out = [[[0] * n for _ in range(n)] for _ in range(full.ell + 1)]
    for sector, block in zip(pair_sectors(full.ell), full.blocks):
        for i, row in zip(sector, block):
            for j, coeffs in zip(sector, row):
                for e, c in enumerate(coeffs):
                    out[e][i][j] = c
    return out


def dense_witnesses(full, sigma):
    """Reference route: the first nonzero entry, row by row, of each dense [sigma N_e sigma, Dx]."""
    witnesses = []
    for which in ("E", "F", "H"):
        x = coproduct(full.ell, which)
        for e, n_e in enumerate(coefficient_matrices(full)):
            gauged = [
                [sigma[r] * sigma[c] * v for c, v in enumerate(row)] for r, row in enumerate(n_e)
            ]
            comm = bracket(gauged, x)
            bad = next(((r, c) for r, row in enumerate(comm) for c, v in enumerate(row) if v), None)
            if bad is not None:
                value = str(comm[bad[0]][bad[1]])
                witnesses.append({"generator": which, "power": e, "entry": bad, "value": value})
    return witnesses


def edited(full, i, j, change):
    """full with entry (i, j), which lies in a pair sector, replaced by change(entry)."""
    blocks = [[list(row) for row in block] for block in full.blocks]
    sectors = pair_sectors(full.ell)
    place = {x: (w, r) for w, sector in enumerate(sectors) for r, x in enumerate(sector)}
    (w, r), (v, c) = place[i], place[j]
    assert w == v, (i, j)
    blocks[w][r][c] = change(blocks[w][r][c])
    return FullR(full.ell, tuple(tuple(map(tuple, block)) for block in blocks))


def perturbed(full, i, j, e, delta):
    """full with delta added to the coefficient of z^e in entry (i, j)."""

    def change(entry):
        coeffs = list(entry) + [0] * (full.ell + 1 - len(entry))
        coeffs[e] += delta
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    return edited(full, i, j, change)


def test_commutation_witness_names_generator_power_and_entry():
    # a broken coupling fails commutation, and the witnesses are those of the
    # dense brackets: the spin-1 coupling (0,1) -> (1,0) scaled by 2, then
    # perturbations (ell, i, j, e, delta) inside weight sectors at ell = 1..4;
    # there the dense bracket with H vanishes, so every witness is one of E or F
    full = assemble_full(2)
    i, j = full.labels.index((0, 1)), full.labels.index((1, 0))
    cases = [edited(full, i, j, lambda c: tuple(2 * x for x in c))]
    trials = [
        (1, 1, 1, 0, -1), (1, 2, 1, 0, 1), (1, 3, 3, 1, -1),
        (2, 4, 6, 2, 3), (2, 7, 5, 1, 1), (2, 6, 2, 1, -2),
        (3, 0, 0, 3, -1), (3, 2, 5, 2, 3), (3, 7, 10, 2, -1),
        (4, 14, 14, 2, 3), (4, 12, 4, 2, -2), (4, 1, 5, 1, 3),
    ]
    cases += [perturbed(assemble_full(ell), i, j, e, delta) for ell, i, j, e, delta in trials]
    for broken in cases:
        report = verify_sl2_commutation(broken)
        assert not report.passed and "gauge" not in report.details
        sigma = sign_gauge(broken.ell)
        expected = dense_witnesses(broken, sigma)
        assert expected and all(w["generator"] != "H" for w in expected)
        assert report.failures == expected
        lowest = min(w["power"] for w in expected)
        with pytest.raises(OracleStructureError, match=rf"z\^{lowest}$"):
            spectral_numerators(broken)


def test_failures_inside_and_between_sectors_report_the_lowest_power():
    # one matrix broken twice: inside weight sector 2 at z^1 and inside
    # weight sector 3 at z^3; the spectrum fails at the lower power, which is
    # where the projector reconstruction first fails, while commutation
    # reports the witnesses of the dense brackets at both powers
    ell = 3
    full = assemble_full(ell)
    inside = full.labels.index((1, 1)), full.labels.index((0, 2))
    other = full.labels.index((0, 3)), full.labels.index((2, 1))
    broken = perturbed(perturbed(full, *inside, 1, 1), *other, 3, -2)
    sigma = sign_gauge(ell)
    with pytest.raises(OracleStructureError, match=r"z\^1$"):
        spectral_numerators(broken)
    assert trace_numerators(broken, sigma)[1] == [1, 3]
    expected = dense_witnesses(broken, sigma)
    assert {(w["generator"], w["power"]) for w in expected} == {
        ("E", 1), ("F", 1), ("E", 3), ("F", 3)
    }
    assert verify_sl2_commutation(broken).failures == expected


def test_spectrum_suite_reports_a_commutation_failure_without_rho(monkeypatch):
    # one broken entry inside weight sector 2, at z^1: commutation fails
    # before any eigenvalue is read, so the suite reports one reason, which
    # names that power, and neither rho nor the gauge
    ell = 3
    full = assemble_full(ell)
    broken = perturbed(full, full.labels.index((1, 1)), full.labels.index((0, 2)), 1, 1)
    assert {w["power"] for w in verify_sl2_commutation(broken).failures} == {1}
    monkeypatch.setattr(oracle, "assemble_full", lambda ell: broken)
    report = verify_spectrum(ell)
    assert report.failures == [{"reason": "spectral reconstruction fails at the power z^1"}]
    assert report.details == {}


def test_witnesses_follow_the_gauge_entry_by_entry(monkeypatch):
    # the sign of each bracket entry comes from sigma_i sigma_j: without the
    # gauge R does not commute, and the witnesses are those of the dense
    # brackets; under (-1)^a, which agrees with (-1)^b up to the sign
    # (-1)^w of the whole sector w, every bracket vanishes.  The verdict is
    # memoized per matrix object, so each foreign gauge is read on a fresh
    # copy, never on the shared assemble_full(ell)
    for ell in range(1, 5):
        full = assemble_full(ell)
        d = ell + 1
        identity_gauge = (1,) * full.dim
        monkeypatch.setattr(oracle, "sign_gauge", lambda ell: identity_gauge)
        witnesses = list(oracle._commutation_witnesses(FullR(ell, full.blocks)))
        assert len(witnesses) == 2 * ell and witnesses == dense_witnesses(full, identity_gauge)
        row_gauge = tuple((-1) ** a for a in range(d) for b in range(d))
        monkeypatch.setattr(oracle, "sign_gauge", lambda ell: row_gauge)
        assert oracle._commutation_witnesses(FullR(ell, full.blocks)) == ()


def test_gauge_is_weight_preserving():
    full = assemble_full(1)
    sigma = sign_gauge(full.ell)
    # conjugation by a diagonal sign matrix preserves the sector structure
    for i, (ap, bp) in enumerate(full.labels):
        for j, (a, b) in enumerate(full.labels):
            if ap + bp != a + b:
                assert full.matrix.entries[i][j].scale(sigma[i] * sigma[j]).is_zero


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def trace_numerators(full, sigma):
    """Reference route: n_s,e = trace(sigma N_e sigma P_s)/(2s+1) on the dense projectors.

    Returns the numerators and the powers e at which sum_s n_s,e P_s fails to
    rebuild sigma N_e sigma, that is, where sigma N_e sigma does not commute.
    """
    supports = [
        [(i, j, x) for i, row in enumerate(p) for j, x in enumerate(row) if x]
        for p in casimir_projectors(full.ell)
    ]
    coeffs, failing = [[] for _ in supports], []
    for e, n_e in enumerate(coefficient_matrices(full)):
        g = [[sigma[r] * sigma[c] * v for c, v in enumerate(row)] for r, row in enumerate(n_e)]
        rebuilt = [[0] * full.dim for _ in range(full.dim)]
        for s, support in enumerate(supports):
            n = Fraction(sum(x * g[j][i] for i, j, x in support), 2 * s + 1)
            coeffs[s].append(n)
            for i, j, x in support:
                rebuilt[i][j] += n * x
        if rebuilt != g:
            failing.append(e)
    return coeffs, failing


def test_highest_weight_vectors_are_killed_by_e():
    # u_s sits in sector w = ell - s with leading coefficient f(w) = w! ell!/(ell-w)!,
    # every coefficient a nonzero int, and E_w u_s = 0 for the tensor-square
    # action; every spectral numerator is an int too, through MAX_ELL
    for ell in range(1, MAX_ELL + 1):
        action = sector_action(ell)
        for s in range(ell + 1):
            u, w = highest_weight_vector(ell, s), ell - s
            assert all(type(c) is int and c for c in u), (ell, s)
            assert len(u) == w + 1 and u[0] == math.factorial(w) * math.perm(ell, w), (ell, s)
            lowered = [sum(x * c for x, c in zip(row, u)) for row in action[w][0]]
            assert not any(lowered), (ell, s)
        numerators = spectral_numerators(assemble_full(ell))
        assert all(type(n) is int for row in numerators for n in row), ell


def _form_without_factorial(ell):
    return [math.perm(ell, a) for a in range(ell + 1)]


def test_a_contravariant_form_without_its_factorial_is_caught(monkeypatch):
    # the mutant f(a) = ell!/(ell-a)! of the shared form (equal to f at ell = 1):
    # the mirror premise reads False on a fresh matrix at ell = 2, and the
    # projectors leave the dense route
    monkeypatch.setattr(rmatrix, "contravariant_form", _form_without_factorial)
    monkeypatch.setattr(oracle, "contravariant_form", _form_without_factorial)
    assert not FullR(2, assemble_full(2).blocks).mirror_symmetric
    assert list(casimir_projectors(2)) != _dense_projectors(2)


def test_highest_weight_numerators_equal_the_projector_traces():
    # second route: the traces against the dense Casimir projectors give the
    # same numbers, and the projectors rebuild every sigma N_e sigma
    for ell in range(1, 7):
        full = assemble_full(ell)
        coeffs, failing = trace_numerators(full, sign_gauge(ell))
        assert failing == [] and spectral_numerators(full) == coeffs, ell


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
    assert not rhos[1].is_zero
    ratio = RatFun(rhos[0].num * rhos[1].den, rhos[0].den * rhos[1].num)
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
        tuple(
            tuple(tuple(-c if e % 2 else c for e, c in enumerate(coeffs)) for coeffs in row)
            for row in block
        )
        for block in assemble_full(ell).blocks
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
    # the coupling (0,1) -> (1,0) perturbed at z^0 does not commute
    broken = perturbed(full, full.labels.index((0, 1)), full.labels.index((1, 0)), 0, 1)
    with pytest.raises(OracleStructureError):
        spectral_decompose(broken)
