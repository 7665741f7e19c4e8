"""Sector blocks, assembly, unitarity, LU factors, Yang-Baxter."""

from fractions import Fraction

import pytest

from spinr.exactalg import (
    MPoly,
    PoleSpecializationError,
    RatFun,
    cancel_common_z_roots,
)
from spinr.fracmat import identity, kron, mat_mul
from spinr.golden import spin_half_block, spin_one_full_matrix, spin_one_middle_block
from spinr.rmatrix import (
    FullR,
    _ybe_at,
    assemble_full,
    lu_factors,
    rblock_closed,
    rblock_triangular,
    s_tilde,
    sample_spectral_triples,
    specialize_block,
    verify_block_limit,
    verify_equal_constructions,
    verify_identity_at_zero,
    verify_unitarity_block,
    verify_unitarity_full,
    verify_ybe,
    ybe_trials,
)
from spinr.stablebasis import SymMatrix

Z = MPoly.var("z")
PHI = MPoly.var("phi")
EPS = MPoly.var("eps")
ONE = MPoly.one()


# ---------------------------------------------------------------------------
# sector blocks
# ---------------------------------------------------------------------------


def test_block_k0_is_one():
    m = rblock_closed(0).matrix
    assert m.rows == 1 and m.entries[0][0].value_eq(1)


def test_block_k1_matches_reference():
    assert rblock_closed(1).matrix.value_eq(spin_half_block())


def test_block_k2_corner_entry():
    entry = rblock_closed(2).matrix.entries[0][0]
    expected = RatFun(EPS * (PHI + EPS), (EPS - Z) * (PHI + EPS - Z))
    assert entry == expected


def test_block_k2_matches_reference():
    assert rblock_closed(2).matrix.value_eq(spin_one_middle_block())


def test_s_tilde_k1_hand_values():
    st = s_tilde(1)
    assert st.entries[0][0].is_zero
    assert st.entries[0][1] == RatFun(-ONE, Z)
    assert st.entries[1][0] == RatFun(ONE, EPS - Z)
    assert st.entries[1][1] == RatFun(EPS, Z * (EPS - Z))


def test_triangular_equals_closed_small():
    for k in range(5):
        assert verify_equal_constructions(k).passed


def test_provenance_labels():
    assert rblock_closed(2).provenance == "closed_form"
    assert rblock_triangular(2).provenance == "triangular_product"


def test_block_limit_is_signed_reversal():
    # the spectral line runs from the identity at z = 0 to (-1)^k times the
    # index reversal at z -> infinity; the printed 2x2 block shows the sign
    for k in range(5):
        assert verify_block_limit(k).passed


# ---------------------------------------------------------------------------
# LU factorization
# ---------------------------------------------------------------------------


def test_lu_factors_k0():
    low, up = lu_factors(0)
    assert low.entries[0][0].value_eq(1)
    assert up.entries[0][0].value_eq(1)


def test_lu_factors_shapes():
    for k in (1, 2, 3):
        low, up = lu_factors(k)  # the product identity is asserted inside
        for i in range(k + 1):
            for j in range(k + 1):
                if i < j:
                    assert low.entries[i][j].is_zero
                if i > j:
                    assert up.entries[i][j].is_zero


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_rejects_bad_spin():
    with pytest.raises(ValueError):
        assemble_full(0)


def test_assembled_4x4_hand_values():
    full = assemble_full(1)
    a = RatFun(ONE, Z + ONE)
    b = RatFun(-Z, Z + ONE)
    expected = SymMatrix(
        [
            [RatFun.one(), RatFun.zero(), RatFun.zero(), RatFun.zero()],
            [RatFun.zero(), a, b, RatFun.zero()],
            [RatFun.zero(), b, a, RatFun.zero()],
            [RatFun.zero(), RatFun.zero(), RatFun.zero(), RatFun.one()],
        ]
    )
    assert full.matrix.value_eq(expected)
    assert full.pole_candidates == frozenset({Fraction(-1)})


def test_assembled_9x9_matches_reference():
    assert assemble_full(2).matrix.value_eq(spin_one_full_matrix())


def test_block_structure_cross_sector_zero():
    full = assemble_full(2)
    basis = full.basis()
    for i, (ap, bp) in enumerate(basis):
        for j, (a, b) in enumerate(basis):
            if ap + bp != a + b:
                assert full.matrix.entries[i][j].is_zero


def test_specialize_block_cancels_removable_factors():
    block, poles, pole_grid = specialize_block(3, 2)
    # the in-range entries carry only genuine poles; z = 0 is not one of them
    for bp in (1, 2):
        for b in (1, 2):
            assert Fraction(0) not in pole_grid[bp][b]
    in_range = [pole_grid[bp][b] for bp in (1, 2) for b in (1, 2)]
    assert all(p < 0 for cell in in_range for p in cell)


def _specialize_expanded(entry: RatFun, ell: int) -> tuple[MPoly, MPoly, frozenset]:
    """The expand-then-substitute route: eps -> -ell*phi and phi -> 1 on the
    expanded generic entry, then trial division at the bound denominator roots."""
    candidates = set()
    for form, _ in entry.den_factors:
        bound = form.bind_eps(-ell)
        candidates.add(Fraction(-bound.c_phi, bound.c_z))
    eps, phi = {"eps": MPoly.monomial((0, 1, 0), -ell)}, {"phi": ONE}
    num = entry.num.substitute(eps).substitute(phi)
    den = entry.den.substitute(eps).substitute(phi)
    num, den = cancel_common_z_roots(num, den, sorted(candidates))
    genuine = frozenset(r for r in candidates if den.substitute({"z": MPoly.const(r)}).is_zero)
    return num, den, genuine


def test_assembly_matches_expanded_generic_blocks():
    # binding before summing must give the same num/den terms, not merely
    # equal values: the JSON and LaTeX output print them as they are
    fulls = {ell: assemble_full(ell) for ell in (1, 2, 3)}
    poles = {ell: set() for ell in fulls}
    for k in range(7):
        block = rblock_closed(k).matrix.entries
        for ell, full in fulls.items():
            if k > 2 * ell:
                continue
            d = ell + 1
            span = range(max(0, k - ell), min(k, ell) + 1)
            for bp in span:
                for b in span:
                    num, den, genuine = _specialize_expanded(block[bp][b], ell)
                    entry = full.matrix.entries[d * (k - bp) + bp][d * (k - b) + b]
                    assert entry.num == num and entry.den == den, (ell, k, bp, b)
                    assert entry.den_factors is None
                    poles[ell] |= genuine
    for ell, full in fulls.items():
        assert full.pole_candidates == frozenset(poles[ell])


def test_assembled_poles_and_identity_at_zero_through_spin_5_2():
    for ell in range(1, 6):
        full = assemble_full(ell)
        assert full.pole_candidates == frozenset(Fraction(-n) for n in range(1, ell + 1))
        assert full.at_z(Fraction(0)) == identity(full.dim)


def test_identity_at_zero():
    for ell in (1, 2, 3, 4):
        assert verify_identity_at_zero(ell).passed


def test_at_z_refuses_pole_and_names_it():
    full = assemble_full(1)
    with pytest.raises(PoleSpecializationError) as err:
        full.at_z(Fraction(-1))
    assert "-1" in str(err.value)


def test_at_z_numeric_values():
    full = assemble_full(1)
    numeric = full.at_z(Fraction(1))
    assert numeric[1][1] == Fraction(1, 2)
    assert numeric[1][2] == Fraction(-1, 2)
    assert numeric[0][0] == 1


# ---------------------------------------------------------------------------
# unitarity
# ---------------------------------------------------------------------------


def test_unitarity_blocks_small():
    for k in range(5):
        assert verify_unitarity_block(k).passed


def test_unitarity_assembled():
    for ell in (1, 2):
        assert verify_unitarity_full(ell).passed


def test_block_and_assembled_coefficients_are_ints():
    entries = [e for row in rblock_closed(4).matrix.entries for e in row]
    entries += [e for row in assemble_full(3).matrix.entries for e in row]
    for entry in entries:
        for poly in (entry.num, entry.den):
            assert all(type(x) is int for x in poly.terms.values()), entry


# ---------------------------------------------------------------------------
# Yang-Baxter
# ---------------------------------------------------------------------------


def test_ybe_collapses_at_equal_points():
    z = Fraction(3, 7)
    assert verify_ybe(1, z, z, z).passed


def test_ybe_single_point_spin_one():
    assert verify_ybe(2, Fraction(5), Fraction(2), Fraction(-3, 7)).passed


def test_ybe_trials_spin_half():
    assert ybe_trials(1, 20, seed=7).passed


def test_ybe_failure_witnesses_match_fraction_products():
    # corrupt the (0,1) -> (1,0) coupling of the spin-1/2 matrix
    full = assemble_full(1)
    grid = [list(row) for row in full.matrix.entries]
    assert not grid[1][2].is_zero
    grid[1][2] = grid[1][2].scale(2)
    labels = full.matrix.row_labels
    broken = FullR(1, SymMatrix(grid, labels, labels), full.pole_candidates)
    z1, z2, z3 = Fraction(5, 3), Fraction(2, 7), Fraction(-3, 4)
    report = _ybe_at(broken, z1, z2, z3)
    assert not report.passed
    # second route: both sides on the whole triple tensor power, in Fractions
    # from the unscaled matrices
    r12, r13, r23 = (broken.at_z(dz) for dz in (z1 - z2, z1 - z3, z2 - z3))
    eye = identity(2)
    lhs = mat_mul(mat_mul(kron(r23, eye), kron(eye, r13)), kron(r12, eye))
    rhs = mat_mul(mat_mul(kron(eye, r12), kron(r13, eye)), kron(eye, r23))
    differing = {(i, j) for i in range(8) for j in range(8) if lhs[i][j] != rhs[i][j]}
    assert {(w["row"], w["col"]) for w in report.failures} == differing
    for w in report.failures:
        assert w["lhs"] == str(lhs[w["row"]][w["col"]])
        assert w["rhs"] == str(rhs[w["row"]][w["col"]])


def test_sampling_is_seeded_and_avoids_poles():
    poles = assemble_full(2).pole_candidates
    first = sample_spectral_triples(2, 10, seed=11, poles=poles)
    second = sample_spectral_triples(2, 10, seed=11, poles=poles)
    assert first == second
    for z1, z2, z3 in first:
        for diff in (z1 - z2, z1 - z3, z2 - z3):
            assert diff not in poles
    assert sample_spectral_triples(2, 10, seed=12, poles=poles) != first
