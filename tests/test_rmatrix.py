"""Sector blocks, assembly, unitarity, Yang-Baxter."""

import math
from fractions import Fraction

import pytest

from spinr import cli, exactalg, oracle, rmatrix
from spinr.exactalg import (
    FactoredRat,
    LinForm,
    MPoly,
    PoleSpecializationError,
    RatFun,
    cancel_common_z_roots,
    factored_sum,
    mpoly_exact_div,
    ratfun_to_str,
    run_pairs,
)
from spinr.fracmat import SymMatrix, mat_mul
from spinr.golden import spin_half_block, spin_one_full_matrix, spin_one_middle_block
from spinr.stablebasis import S_inverse, S_matrix, sinv_entry, stable_coeff, verify_inverse
from spinr.rmatrix import (
    FullR,
    assemble_full,
    over_spin_denominator,
    pair_sectors,
    rblock_closed,
    rblock_triangular,
    sample_spectral_triples,
    specialize_block,
    spin_denominator,
    verify_block_limit,
    verify_equal_constructions,
    verify_identity_at_zero,
    verify_unitarity_block,
    verify_unitarity_full,
    verify_ybe,
    ybe_trials,
    z_poly,
)

Z = MPoly.var("z")
PHI = MPoly.var("phi")
EPS = MPoly.var("eps")
ONE = MPoly.one()


def s_tilde(k):
    # J * S(-z), the right factor of the triangular block: S at -z, rows reversed
    return SymMatrix(S_matrix(k).flip_z().entries[::-1])


def naive_product(items):
    # second route to a factor product, form by form and outside the memo
    out = ONE
    for form, exp in items:
        out = out * form.to_mpoly() ** exp
    return out


# ---------------------------------------------------------------------------
# sector blocks
# ---------------------------------------------------------------------------


def test_block_k0_is_one():
    m = rblock_closed(0)
    assert m.rows == 1 and m.entries[0][0].value_eq(1)


def test_block_k1_matches_reference():
    assert not rblock_closed(1).mismatches(spin_half_block())


def test_block_k2_corner_entry():
    entry = rblock_closed(2).entries[0][0]
    expected = RatFun(EPS * (PHI + EPS), (EPS - Z) * (PHI + EPS - Z))
    assert entry == expected


def test_block_k2_matches_reference():
    assert not rblock_closed(2).mismatches(spin_one_middle_block())


def test_s_tilde_k1_hand_values():
    st = s_tilde(1)
    assert st.entries[0][0].is_zero
    assert st.entries[0][1] == RatFun(-ONE, Z)
    assert st.entries[1][0] == RatFun(ONE, EPS - Z)
    assert st.entries[1][1] == RatFun(EPS, Z * (EPS - Z))


def test_triangular_equals_closed_small():
    for k in range(5):
        assert verify_equal_constructions(k).passed


def test_closed_summands_are_the_triangular_product_term_by_term():
    # summand j of closed-form entry (i, j') is (S^-1)_(i, j) * (J S(-z))_(j, j'),
    # as factored terms: drift in either run table shows at its summand
    for k in range(9):
        for i in range(k + 1):
            for jp in range(k + 1):
                closed = [
                    FactoredRat(scalar, run_pairs(runs))
                    for scalar, runs in rmatrix._entry_summands(k, i, jp)
                ]
                products = (
                    sinv_entry(k, i, j) * stable_coeff(k, k - j, jp).flip_z() for j in range(k + 1)
                )
                assert closed == [t for t in products if not t.is_zero], (k, i, jp)


@pytest.mark.parametrize(
    "build", [rblock_closed, rblock_triangular, S_matrix, S_inverse, rmatrix.summand_mismatches]
)
def test_block_builders_refuse_negative_k(build):
    with pytest.raises(ValueError, match=r"^need k >= 0, got -1$"):
        build(-1)


def test_block_limit_is_signed_reversal():
    # the spectral line runs from the identity at z = 0 to (-1)^k times the
    # index reversal at z -> infinity; the printed 2x2 block shows the sign
    for k in range(5):
        assert verify_block_limit(k).passed


def test_block_limit_reports_a_wrong_or_a_divergent_entry(monkeypatch):
    # the k = 2 corner (0, 2) tends to 1, so doubled it tends to 2; an entry
    # whose numerator outgrows its denominator in z has no limit at all
    block = rblock_closed(2)

    def edited(i, j, entry):
        rows = [list(row) for row in block.entries]
        rows[i][j] = entry
        return SymMatrix(rows)

    doubled = edited(0, 2, block.entries[0][2].scale(2))
    monkeypatch.setattr(rmatrix, "rblock_closed", lambda k: doubled)
    assert verify_block_limit(2).failures == [{"i": 0, "j_prime": 2, "expected": 1, "limit": "2"}]
    divergent = edited(1, 0, RatFun(Z * Z, Z + ONE))
    monkeypatch.setattr(rmatrix, "rblock_closed", lambda k: divergent)
    assert verify_block_limit(2).failures == [
        {"i": 1, "j_prime": 0, "expected": 0, "limit": "divergent"}
    ]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_rejects_bad_spin():
    # the guard is FullR's, so an R that assemble_full did not build meets it too
    cases = [
        (0, lambda: assemble_full(0)),
        (-1, lambda: FullR(-1, ())),
        (0, lambda: FullR(0, ((((1,),),),))),
    ]
    for ell, build in cases:
        with pytest.raises(ValueError, match=f"^need ell >= 1, got {ell}$"):
            build()


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
    assert not full.matrix.mismatches(expected)
    # the one pole is -1, the root of D(z) = z + 1
    assert full.matrix.entries[0][0].den == Z + ONE


def test_assembled_9x9_matches_reference():
    assert not assemble_full(2).matrix.mismatches(spin_one_full_matrix())


def test_block_structure_cross_sector_zero():
    full = assemble_full(2)
    basis = full.labels
    for i, (ap, bp) in enumerate(basis):
        for j, (a, b) in enumerate(basis):
            if ap + bp != a + b:
                assert full.matrix.entries[i][j].is_zero


def test_common_denominator_invariants():
    # every entry sits over the one D of degree ell whose roots are the pole
    # candidates; the evaluator reads deg N <= ell = deg D, and every root of
    # D is a genuine pole: some numerator over D stays nonzero there
    for ell in range(1, 7):
        full = assemble_full(ell)
        entries = [e for row in full.matrix.entries for e in row]
        den = entries[0].den
        assert all(e.den is den for e in entries)
        assert den.degree_in("z") == ell
        for root in (Fraction(-j) for j in range(1, ell + 1)):
            assert den.eval_rational({"z": root}) == 0
            assert any(e.num.eval_rational({"z": root}) != 0 for e in entries), (ell, root)
        assert all(e.num.degree_in("z") <= ell for e in entries), ell


def _specialize_expanded(entry: RatFun, ell: int) -> tuple[MPoly, MPoly, frozenset]:
    """The expand-then-substitute route: eps -> -ell*phi and phi -> 1 on the
    expanded generic entry, then trial division at the bound denominator roots."""
    candidates = set()
    for form, _ in entry.den_factors:
        candidates.add(Fraction(-(form.c_phi - ell * form.c_eps), form.c_z))
    eps, phi = {"eps": MPoly({(0, 1, 0): -ell})}, {"phi": ONE}
    num = entry.num.substitute(eps).substitute(phi)
    den = entry.den.substitute(eps).substitute(phi)
    num, den = cancel_common_z_roots(num, den, sorted(candidates))
    genuine = frozenset(r for r in candidates if den.substitute({"z": MPoly.const(r)}).is_zero)
    return num, den, genuine


def test_assembly_matches_expanded_generic_blocks():
    # binding before summing must give the same num/den terms, not merely
    # equal values: the JSON and LaTeX output print them as they are
    fulls = {ell: assemble_full(ell) for ell in (1, 2, 3)}
    printed = {ell: full.lowest_terms() for ell, full in fulls.items()}
    poles = {ell: set() for ell in fulls}
    for k in range(7):
        block = rblock_closed(k).entries
        for ell, full in fulls.items():
            if k > 2 * ell:
                continue
            d = ell + 1
            span = range(max(0, k - ell), min(k, ell) + 1)
            for bp in span:
                for b in span:
                    num, den, genuine = _specialize_expanded(block[bp][b], ell)
                    entry = printed[ell].entries[d * (k - bp) + bp][d * (k - b) + b]
                    assert entry.num == num and entry.den == den, (ell, k, bp, b)
                    assert entry.den_factors is None
                    poles[ell] |= genuine
    for ell, full in fulls.items():
        assert frozenset(poles[ell]) == frozenset(Fraction(-j) for j in range(1, ell + 1))


def test_lowest_terms_matches_the_trial_division_route():
    # second route: strip the common roots of N and D by substitution, at
    # the candidate roots -1..-ell, and compare num and den term for term
    for ell in range(1, 7):
        full = assemble_full(ell)
        roots = sorted(Fraction(-j) for j in range(1, ell + 1))
        for row, printed in zip(full.matrix.entries, full.lowest_terms().entries):
            for e, reduced in zip(row, printed):
                if e.is_zero:
                    num, den = MPoly.zero(), MPoly.one()
                else:
                    num, den = cancel_common_z_roots(e.num, e.den, roots)
                assert reduced.num == num and reduced.den == den, (ell, ratfun_to_str(e))


def test_spin_line_assembles_and_reduces_without_substitution(monkeypatch):
    # specialization and the lowest-terms reduction run on int coefficient
    # lists in z, and the roots of D are known: from assembly to the printed
    # matrix nothing is substituted, no factor list is canonicalized, read
    # from the run memo or merged, no MPoly is multiplied and nothing is
    # divided by the generic kernel
    def refuse(*args):
        raise AssertionError("generic kernel called on the spin line")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    monkeypatch.setattr(MPoly, "__mul__", refuse)
    for name in ("_canonical_factor_items", "_run_factors", "_merge_factor_items"):
        monkeypatch.setattr(exactalg, name, refuse)
    monkeypatch.setattr(exactalg, "mpoly_exact_div", refuse)
    assemble_full.cache_clear()  # build under the patch, not from the memo
    for ell in range(1, 5):
        full = assemble_full(ell)
        assert full.lowest_terms().rows == full.dim


def test_specialization_keeps_exactly_the_summands_that_survive_binding(monkeypatch):
    # the int route keeps a summand iff binding eps -> -ell*phi leaves no zero
    # numerator form, as the homogeneous route decides it, and canonicalizes,
    # reads from the run memo or merges no factor list
    def refuse(*args):
        raise AssertionError("factor list canonicalized on the spin line")

    spin_summand = rmatrix._spin_summand
    results = []

    def recording(scalar, runs, ell):
        results.append(spin_summand(scalar, runs, ell))
        return results[-1]

    for name in ("_canonical_factor_items", "_run_factors", "_merge_factor_items"):
        monkeypatch.setattr(exactalg, name, refuse)
    monkeypatch.setattr(rmatrix, "_spin_summand", recording)
    ell, k = 3, 4
    specialize_block(k, ell)
    summands = kept = 0
    span = range(k - ell, ell + 1)
    for bp in span:
        for b in span:
            for _, runs in rmatrix._entry_summands(k, bp, b):
                bound = [
                    (LinForm(form.c_z, form.c_phi - ell * form.c_eps, 0), exp)
                    for form, exp in run_pairs(runs)
                ]
                summands += 1
                kept += not any(exp > 0 and form.is_zero for form, exp in bound)
    assert len(results) == summands
    assert 0 < kept < summands and sum(r is not None for r in results) == kept


def _homogeneous_specialization(k, ell):
    """The homogeneous route: bind eps -> -ell*phi in every summand's forms,
    sum the survivors over their factored lcm, multiply by
    (z+phi)...(z+ell*phi), divide exactly and read N_e off z^e phi^(ell-e).
    Rows and columns follow pair sector k, entry (b', b) for the pairs
    (a', b') and (a, b)."""
    hom_den = math.prod((LinForm(1, j, 0).to_mpoly() for j in range(1, ell + 1)), start=ONE)
    order = [i % (ell + 1) for i in pair_sectors(ell)[k]]
    out = []
    for bp in order:
        out.append([])
        for b in order:
            bound = []
            for scalar, runs in rmatrix._entry_summands(k, bp, b):
                pairs = [
                    (LinForm(form.c_z, form.c_phi - ell * form.c_eps, 0), exp)
                    for form, exp in run_pairs(runs)
                ]
                if not any(exp > 0 and form.is_zero for form, exp in pairs):
                    bound.append(FactoredRat(scalar, pairs))
            summed = factored_sum(bound)
            terms = mpoly_exact_div(hom_den * summed.num, summed.den).terms
            assert all(ez + ephi == ell and not eeps for ez, ephi, eeps in terms), (k, bp, b)
            top = max((ez for ez, _, _ in terms), default=-1)
            out[-1].append(tuple(terms.get((e, ell - e, 0), 0) for e in range(top + 1)))
    return tuple(map(tuple, out))


def test_specialization_matches_the_homogeneous_route():
    for ell in range(1, 7):
        for k in range(2 * ell + 1):
            assert specialize_block(k, ell) == _homogeneous_specialization(k, ell), (ell, k)


def test_non_exact_root_division_names_the_sector_and_entry(monkeypatch):
    # one extra summand 1/(z + 3) in entry (1, 2) of sector 2 at ell = 2:
    # D = (z+1)(z+2) does not clear it, so a root division leaves a remainder
    original = rmatrix._entry_summands

    def broken(k, i, j_prime):
        yield from original(k, i, j_prime)
        if (i, j_prime) == (1, 2):
            yield 1, ((1, 0, 3, 3, -1),)

    monkeypatch.setattr(rmatrix, "_entry_summands", broken)
    assert specialize_block(2, 3)  # another ell, where D = (z+1)(z+2)(z+3) clears it
    with pytest.raises(AssertionError, match=r"sector 2 entry \(1, 2\): z \+ 3 does not divide"):
        specialize_block(2, 2)


def test_an_entry_whose_summands_cancel_is_stored_as_empty(monkeypatch):
    # entry (1, 2) of sector 2 at ell = 2, (0, -2) as built, replaced by its
    # first summand and that summand's negation: both survive the binding, the
    # sum is the zero list [0, 0, 0], and its trailing zeros are trimmed to ()
    # as FullR stores a zero entry; every other entry is unchanged
    original = rmatrix._entry_summands

    def cancelling(k, i, j_prime):
        if (i, j_prime) != (1, 2):
            yield from original(k, i, j_prime)
            return
        scalar, runs = next(original(k, i, j_prime))
        yield from ((scalar, runs), (-scalar, runs))

    built = specialize_block(2, 2)
    monkeypatch.setattr(rmatrix, "_entry_summands", cancelling)
    cancelled = specialize_block(2, 2)
    row, col = [2, 1, 0].index(1), [2, 1, 0].index(2)  # b = k - a, a ascending
    expected = [list(r) for r in built]
    assert expected[row][col] == (0, -2)
    expected[row][col] = ()
    assert [list(r) for r in cancelled] == expected


def test_specialization_matches_an_independent_sympy_route():
    # third route, outside the exact kernel: the expanded generic entry in
    # sympy, at eps = -ell*phi and phi = 1, times D(z), cancelled by sympy
    sympy = pytest.importorskip("sympy")
    z, phi, eps = sympy.symbols("z phi eps")

    def to_sympy(p):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator) * z**a * phi**b * eps**e
                for (a, b, e), c in p.terms.items()
            )
        )

    for ell in range(1, 4):
        d_z = sympy.prod(z + j for j in range(1, ell + 1))
        for k in range(2 * ell + 1):
            block = rblock_closed(k).entries
            numerators = specialize_block(k, ell)
            sector = pair_sectors(ell)[k]
            assert len(numerators) == len(sector)
            for row, i in zip(numerators, sector):
                assert len(row) == len(sector)
                for got_coeffs, j in zip(row, sector):
                    bp, b = i % (ell + 1), j % (ell + 1)
                    entry = block[bp][b]
                    value = (to_sympy(entry.num) / to_sympy(entry.den)).subs(eps, -ell * phi)
                    got = sympy.cancel(value.subs(phi, 1) * d_z)
                    assert got.is_polynomial(z), (ell, k, bp, b, got)
                    poly = sympy.Poly(got, z)
                    coeffs = () if poly.is_zero else tuple(reversed(poly.all_coeffs()))
                    assert coeffs == got_coeffs, (ell, k, bp, b)


def test_generic_blocks_match_an_independent_sympy_route():
    # second route for the generic (z, phi, eps) entries, outside the exact
    # kernel: each closed-form summand as a sympy quotient of products of its
    # own linear forms, reduced by sympy and brought over the entry's
    # denominator by exact sympy division; the numerators must add up to the
    # entry's numerator
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("z phi eps")

    def poly(terms):
        rep = {mono: sympy.Rational(c.numerator, c.denominator) for mono, c in terms.items()}
        return sympy.Poly.from_dict(rep or {(0, 0, 0): 0}, *gens, domain="QQ")

    for k in range(5):
        block = rblock_closed(k).entries
        for i in range(k + 1):
            for jp in range(k + 1):
                entry = block[i][jp]
                den = poly(entry.den.terms)
                total = poly({})
                for scalar, runs in rmatrix._entry_summands(k, i, jp):
                    num_s = poly({(0, 0, 0): scalar})
                    den_s = poly({(0, 0, 0): 1})
                    for form, exp in run_pairs(runs):
                        factor = poly(form.to_mpoly().terms) ** abs(exp)
                        if exp > 0:
                            num_s *= factor
                        else:
                            den_s *= factor
                    # a form with exponents of both signs cancels within the summand
                    num_s, den_s = num_s.cancel(den_s, include=True)
                    cofactor, rest = sympy.div(den, den_s)
                    assert rest.is_zero, (k, i, jp)
                    total += num_s * cofactor
                assert total == poly(entry.num.terms), (k, i, jp)


def test_assembly_refuses_a_numerator_above_degree_ell(monkeypatch):
    # FullR.evaluate dots the coefficients with the powers z^0..z^ell, so a
    # larger degree must stop the assembly rather than be cut off
    specialize = rmatrix.specialize_block

    def one_entry_too_high(k, ell):
        block = [list(row) for row in specialize(k, ell)]
        if k == ell:
            block[0][0] = (0,) * (ell + 1) + (1,)  # the entry of the pair (0, ell)
        return tuple(map(tuple, block))

    monkeypatch.setattr(rmatrix, "specialize_block", one_entry_too_high)
    # assemble_full is memoized: a matrix built earlier would skip the patched build
    assemble_full.cache_clear()
    try:
        for ell in (1, 3):
            with pytest.raises(ValueError, match="degree"):
                assemble_full(ell)
    finally:
        assemble_full.cache_clear()


def test_full_r_refuses_an_over_degree_numerator():
    # (1, 0, 5) is 1 + 5z^2 at ell = 1: at_z(1) would cut it to 1
    # instead of 6; the refusal names the entry's global row and column
    for w, r, c, entry in ((0, 0, 0, (0, 0)), (1, 0, 1, (1, 2)), (2, 0, 0, (3, 3))):
        blocks = [[[()] * len(sector) for _ in sector] for sector in pair_sectors(1)]
        blocks[w][r][c] = (1, 0, 5)
        with pytest.raises(ValueError, match=rf"^entry \({entry[0]}, {entry[1]}\): degree"):
            FullR(1, tuple(tuple(map(tuple, block)) for block in blocks))


def test_full_r_refuses_a_wrongly_shaped_numerator():
    # a wrong sector count, a ragged block, and a block of another sector's size
    blocks = assemble_full(1).blocks
    ragged = blocks[:1] + ((blocks[1][0], blocks[1][1][:1]),) + blocks[2:]
    resized = blocks[:1] + (assemble_full(2).blocks[2],) + blocks[2:]  # 3 x 3 for 2 x 2
    for wrong in (blocks[:2], ragged, resized):
        with pytest.raises(ValueError, match="^blocks must be the 3 pair sectors for ell = 1$"):
            FullR(1, wrong)
    with pytest.raises(ValueError, match="5 pair sectors"):
        FullR(2, blocks)


def test_assembled_poles_and_identity_at_zero_through_spin_5_2():
    for ell in range(1, 6):
        full = assemble_full(ell)
        den = full.matrix.entries[0][0].den
        assert den.degree_in("z") == ell
        assert all(den.eval_rational({"z": Fraction(-n)}) == 0 for n in range(1, ell + 1))
        assert full.at_z(Fraction(0)) == identity(full.dim)


def test_identity_at_zero():
    for ell in (1, 2, 3, 4):
        assert verify_identity_at_zero(assemble_full(ell)).passed


def test_at_z_refuses_pole_and_names_it():
    full = assemble_full(1)
    with pytest.raises(PoleSpecializationError) as err:
        full.at_z(Fraction(-1))
    assert "-1" in str(err.value)


def test_coefficients_are_a_second_route_to_the_numerators():
    # sum_e p^e q^(ell-e) N_e is q^ell N(p/q), which is at_z times the int
    # q^ell D(p/q) of evaluate; at z = 0 that is N_0 = D(0) R(0) = ell! Id
    for ell in range(1, 6):
        full = assemble_full(ell)
        coeffs = [[[0] * full.dim for _ in range(full.dim)] for _ in range(ell + 1)]
        for sector, block in zip(pair_sectors(ell), full.blocks):
            for i, row in zip(sector, block):
                for j, entry in zip(sector, row):
                    for e, c in enumerate(entry):
                        coeffs[e][i][j] = c
        assert len(coeffs) == ell + 1
        assert {type(x) for n_e in coeffs for row in n_e for x in row} == {int}
        assert coeffs[0] == [
            [math.factorial(ell) if i == j else 0 for j in range(full.dim)]
            for i in range(full.dim)
        ]
        for z in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(5)):
            p, q = z.numerator, z.denominator
            _, den = full.evaluate(z)
            nums = [[x * den for x in row] for row in full.at_z(z)]
            expected = [
                [sum(p**e * q ** (ell - e) * n_e[i][j] for e, n_e in enumerate(coeffs))
                 for j in range(full.dim)]
                for i in range(full.dim)
            ]
            assert nums == expected, (ell, z)


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
        assert verify_unitarity_full(assemble_full(ell)).passed


def test_block_and_assembled_coefficients_are_ints():
    entries = [e for row in rblock_closed(4).entries for e in row]
    entries += [e for row in assemble_full(3).matrix.entries for e in row]
    for entry in entries:
        for poly in (entry.num, entry.den):
            assert all(type(x) is int for x in poly.terms.values()), entry
    # the stored numerators: int coefficient tuples with trailing zeros trimmed
    for ell in range(1, cli.MAX_ELL + 1):
        for coeffs in (c for block in assemble_full(ell).blocks for row in block for c in row):
            assert type(coeffs) is tuple and all(type(x) is int for x in coeffs), ell
            assert not coeffs or coeffs[-1] != 0


def test_spin_line_constants_are_numerators():
    # every denominator run of the closed form is +-(z + c), so the spin line
    # only ever multiplies its int scalar by constants; a constant run with a
    # negative exponent, which would divide it, is refused
    for k in range(2 * cli.MAX_ELL + 1):
        for i in range(k + 1):
            for jp in range(k + 1):
                for _, runs in rmatrix._entry_summands(k, i, jp):
                    assert all(c_z or exp > 0 for c_z, _, _, _, exp in runs), (k, i, jp)
    for run in ((0, 1, 1, 2, -1), (0, 0, 3, 3, -1), (0, 1, 2, 2, -2)):
        with pytest.raises(ValueError, match="constant run .* in a denominator"):
            rmatrix._spin_summand(1, ((1, 0, 0, 0, 1), run), 2)


# ---------------------------------------------------------------------------
# Yang-Baxter
# ---------------------------------------------------------------------------


def test_ybe_collapses_at_equal_points():
    z = Fraction(3, 7)
    assert verify_ybe(assemble_full(1), z, z, z).passed


def test_ybe_single_point_spin_one():
    assert verify_ybe(assemble_full(2), Fraction(5), Fraction(2), Fraction(-3, 7)).passed


def test_ybe_trials_spin_half():
    assert ybe_trials(assemble_full(1), 20, seed=7).passed


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def kron(a, b):
    nb, mb = len(b), len(b[0])
    return [
        [x * b[p][q] for x in row_a for q in range(mb)] for row_a in a for p in range(nb)
    ]


def _triple_weight(index, ell):
    return sum(index // (ell + 1) ** p % (ell + 1) for p in range(3))


def _dense_ybe_witnesses(full, z1, z2, z3):
    """Second route: both sides on the whole triple tensor power, in Fractions
    from the unscaled matrices, as the witnesses of ``verify_ybe``."""
    ell = full.ell
    r12, r13, r23 = (full.at_z(dz) for dz in (z1 - z2, z1 - z3, z2 - z3))
    eye, n = identity(ell + 1), (ell + 1) ** 3
    lhs = mat_mul(mat_mul(kron(r23, eye), kron(eye, r13)), kron(r12, eye))
    rhs = mat_mul(mat_mul(kron(eye, r12), kron(r13, eye)), kron(eye, r23))
    differing = [(r, c) for r in range(n) for c in range(n) if lhs[r][c] != rhs[r][c]]
    # witnesses come sector by sector, then row by row
    differing.sort(key=lambda rc: (_triple_weight(rc[0], ell), rc))
    return [
        {"row": r, "col": c, "lhs": str(lhs[r][c]), "rhs": str(rhs[r][c])} for r, c in differing
    ]


def test_ybe_failure_witnesses_match_fraction_products():
    # corrupt one same-weight coupling; at ell = 3 the factor 10**6 gives
    # entries of 93 bits against a measured bound of 116, so a digit width
    # from the largest entry of one operator alone would mix neighbouring
    # entries
    cases = [
        (1, (1, 2), 2, (Fraction(5, 3), Fraction(2, 7), Fraction(-3, 4))),
        (2, (1, 3), -1, (Fraction(5), Fraction(2), Fraction(-3, 7))),
        (2, (4, 6), 3, (Fraction(1, 2), Fraction(-9, 4), Fraction(7, 3))),
        (3, (6, 9), 10**6, (Fraction(11, 5), Fraction(-4, 3), Fraction(2, 9))),
    ]
    for ell, (i, j), factor, (z1, z2, z3) in cases:
        assert _stored(assemble_full(ell), i, j)
        broken = _broken_full(ell, {(i, j): lambda c: tuple(factor * x for x in c)})
        report = verify_ybe(broken, z1, z2, z3)
        assert not report.passed, ell
        assert report.failures == _dense_ybe_witnesses(broken, z1, z2, z3), ell


def _witnesses(full, triples):
    """One {"z", "first"} per failing triple, in order, as ``ybe_trials`` reports them."""
    out = []
    for zs in triples:
        sub = verify_ybe(full, *zs)
        if not sub.passed:
            out.append({"z": [str(z) for z in zs], "first": sub.failures[0]})
    return out


def test_ybe_trials_reports_each_failing_triple_with_its_first_witness():
    # every failing triple is one witness, carrying the first witness of
    # verify_ybe at that triple: the sampled triples below (2l)^2 = 16
    # trials, the grid triples from there on
    broken = _broken_full(2, {(1, 3): lambda c: tuple(2 * x for x in c)})
    for trials, triples in ((4, sample_spectral_triples(2, 4, 5)), (20, _grid(2))):
        report = ybe_trials(broken, trials, seed=5)
        expected = _witnesses(broken, triples)
        assert len(expected) > 1 and report.failures == expected, trials
        assert report.params == {"ell": 2, "trials": trials, "seed": 5}


def _grid(ell):
    """The grid triples (u+v, v, 0), u and v in 1..2l, v fastest."""
    n = range(1, 2 * ell + 1)
    return [(Fraction(u + v), Fraction(v), Fraction(0)) for u in n for v in n]


def _record_ybe_points(monkeypatch):
    """Route the per-point check of ybe_trials through a recorder; returns its points."""
    points, inner = [], rmatrix._ybe_at

    def recorded(full, zs, ops):
        points.append(tuple(zs))
        return inner(full, zs, ops)

    monkeypatch.setattr(rmatrix, "_ybe_at", recorded)
    return points


def _corner(ell):
    """The grid points (u, v) with u <= v and u + v <= 3l, v fastest."""
    n = range(1, 2 * ell + 1)
    return [(u, v) for u in n for v in n if u <= v and u + v <= 3 * ell]


def _record_corner_points(monkeypatch):
    """Route the sector products of the corner pass through a recorder; returns
    the points (u, v) they were formed at, once per sector, read off the
    evaluated differences u, u+v and v they were given."""
    points, values, evaluate, sides = [], {}, FullR.evaluate, rmatrix._sides

    def evaluated(self, z):
        out = evaluate(self, z)
        values[id(out[0])] = int(z)
        return out

    def recorded(slot12, slot23, r12, r13, r23, left, right):
        u, uv, v = (values[id(r)] for r in (r12, r13, r23))
        assert uv == u + v
        points.append((u, v))
        return sides(slot12, slot23, r12, r13, r23, left, right)

    monkeypatch.setattr(FullR, "evaluate", evaluated)
    monkeypatch.setattr(rmatrix, "_sides", recorded)
    return points


def test_ybe_trials_proves_on_the_grid_without_sampling(monkeypatch):
    # trials >= (2l)^2 and both premises: exactly the corner points (u, v),
    # u <= v and u + v <= 3l, in each sector W <= 3l // 2, no other grid
    # triple, and no sample
    points, corner = _record_ybe_points(monkeypatch), _record_corner_points(monkeypatch)

    def never(*args):
        raise AssertionError("sampled although the grid decides")

    monkeypatch.setattr(rmatrix, "sample_spectral_triples", never)
    sizes = {1: 2, 2: 8, 3: 17, 4: 30}
    for ell, trials in ((1, 4), (1, 100), (2, 16), (3, 36), (4, 64), (4, 10000)):
        points.clear(), corner.clear()
        full = FullR(ell, assemble_full(ell).blocks)
        report = ybe_trials(full, trials, seed=3)
        assert report.passed and report.params == {"ell": ell, "trials": trials, "seed": 3}
        assert full.swap_symmetric and full.mirror_symmetric and len(_corner(ell)) == sizes[ell]
        assert points == [] and corner == _corner(ell) * (3 * ell // 2 + 1), (ell, trials)


def test_ybe_trials_below_the_grid_size_samples_as_before(monkeypatch):
    points = _record_ybe_points(monkeypatch)
    for ell in range(1, 5):
        points.clear()
        trials = (2 * ell) ** 2 - 1
        assert ybe_trials(assemble_full(ell), trials, seed=3).passed
        assert points == sample_spectral_triples(ell, trials, 3), ell


def test_the_grid_evaluates_each_difference_once(monkeypatch):
    # the corner triples (u+v, v, 0), u <= v and u + v <= 3l, have the
    # differences 1..3l, and each is evaluated once per call, not three
    # times per point
    for ell in (1, 3):
        full = FullR(ell, assemble_full(ell).blocks)
        assert full.identity_at_zero
        values, evaluate = [], FullR.evaluate
        monkeypatch.setattr(FullR, "evaluate", lambda self, z: values.append(z) or evaluate(self, z))
        assert ybe_trials(full, (2 * ell) ** 2, seed=3).passed
        assert sorted(values) == list(range(1, 3 * ell + 1)), ell
        monkeypatch.undo()


def test_ybe_trials_samples_when_r_at_zero_is_not_the_identity(monkeypatch):
    # 2R solves the Yang-Baxter equation, but 2R(0) != Id, so the grid
    # proves nothing and the sampled route decides
    doubled = FullR(
        2,
        tuple(
            tuple(tuple(tuple(2 * x for x in c) for c in row) for row in block)
            for block in assemble_full(2).blocks
        ),
    )
    assert not doubled.identity_at_zero
    points = _record_ybe_points(monkeypatch)
    assert ybe_trials(doubled, 20, seed=3).passed
    assert points == sample_spectral_triples(2, 20, 3)


def test_every_doubled_entry_fails_the_grid():
    # each stored entry doubled, at l = 2 and 3, checked with (2l)^2 trials:
    # a diagonal one breaks R(0) = Id and fails on the sampled triples, every
    # other one reports exactly its failing grid triples, each with the first
    # witness of verify_ybe there
    mutants = 0
    for ell in (2, 3):
        full = assemble_full(ell)
        for w, sector in enumerate(pair_sectors(ell)):
            for r, i in enumerate(sector):
                for c, j in enumerate(sector):
                    assert full.blocks[w][r][c], (ell, i, j)
                    broken = _broken_full(ell, {(i, j): lambda n: tuple(2 * x for x in n)})
                    mutants += 1
                    report = ybe_trials(broken, (2 * ell) ** 2, seed=3)
                    assert report.failures, (ell, i, j)
                    if i == j:
                        assert not broken.identity_at_zero, (ell, i)
                        continue
                    assert broken.identity_at_zero, (ell, i, j)
                    assert report.failures == _witnesses(broken, _grid(ell)), (ell, i, j)
    assert mutants == 63


def _swap(ell, i):
    """The index of (b, a) for the pair i = (a, b)."""
    return i % (ell + 1) * (ell + 1) + i // (ell + 1)


def _off_diagonal(ell):
    """The stored entries (i, j), i != j, of assemble_full(ell)."""
    return [(i, j) for sector in pair_sectors(ell) for i in sector for j in sector if i != j]


def _doubled(c):
    return tuple(2 * x for x in c)


def test_swap_premise_holds_through_max_ell():
    # and it agrees with the dense P R(z) P = R(z) at a point
    z = Fraction(2, 3)
    for ell in range(1, cli.MAX_ELL + 1):
        full = assemble_full(ell)
        assert full.swap_symmetric, ell
        if ell <= 4:
            m, p = full.at_z(z), [_swap(ell, i) for i in range(full.dim)]
            assert [[m[p[i]][p[j]] for j in range(full.dim)] for i in range(full.dim)] == m


def test_swap_premise_is_decided_only_when_read():
    full = FullR(3, assemble_full(3).blocks)
    full.lowest_terms(), full.at_z(Fraction(2)), full.mirror_symmetric, full.identity_at_zero
    assert "swap_symmetric" not in vars(full)
    assert full.swap_symmetric and "swap_symmetric" in vars(full)


def test_swap_premise_refuses_each_off_diagonal_doubled_entry():
    for ell in (1, 2, 3):
        for i, j in _off_diagonal(ell):
            assert _stored(assemble_full(ell), i, j), (ell, i, j)
            assert not _broken_full(ell, {(i, j): _doubled}).swap_symmetric, (ell, i, j)


def test_every_doubled_swap_pair_fails_through_the_corner_pass(monkeypatch):
    # each off-diagonal entry doubled together with its swap image, at l = 2
    # and 3: both premises hold, so the corner pass decides first; it fails,
    # and the witnesses are exactly the failing grid triples in grid order,
    # each with the first witness of verify_ybe there
    verdicts, corner_holds = [], rmatrix._corner_holds

    def recorded(full, evaluated):
        verdicts.append(corner_holds(full, evaluated))
        return verdicts[-1]

    monkeypatch.setattr(rmatrix, "_corner_holds", recorded)
    mutants = 0
    for ell in (2, 3):
        for i, j in _off_diagonal(ell):
            image = _swap(ell, i), _swap(ell, j)
            if (i, j) > image:
                continue
            broken = _broken_full(ell, {(i, j): _doubled, image: _doubled})
            assert broken.swap_symmetric and broken.identity_at_zero, (ell, i, j)
            verdicts.clear()
            report = ybe_trials(broken, (2 * ell) ** 2, seed=3)
            assert verdicts == [False], (ell, i, j)
            assert report.failures == _witnesses(broken, _grid(ell)) != [], (ell, i, j)
            mutants += 1
    assert mutants == 19


def test_ybe_trials_reports_a_failing_grid_triple_that_no_sample_finds(monkeypatch):
    # equal-point triples (z, z, z) pass for any R with R(0) = Id, so no such
    # sample finds the broken entry; from (2l)^2 trials on no triple is
    # sampled even though the grid fails, and the witnesses are exactly the
    # failing grid triples in grid order
    broken = _broken_full(2, {(1, 3): lambda c: tuple(2 * x for x in c)})
    monkeypatch.setattr(
        rmatrix,
        "sample_spectral_triples",
        lambda ell, trials, seed: [(Fraction(k, 3),) * 3 for k in range(trials)],
    )
    assert ybe_trials(broken, 15, seed=5).passed

    def never(*args):
        raise AssertionError("sampled although the grid decides")

    monkeypatch.setattr(rmatrix, "sample_spectral_triples", never)
    expected = _witnesses(broken, _grid(2))
    assert expected
    for trials in (16, 100):
        assert ybe_trials(broken, trials, seed=5).failures == expected, trials


def test_balanced_digits_decode_packed_rows():
    # balanced base-2^s digits are unique in [-2^(s-1), 2^(s-1)); verify_ybe
    # packs rows whose digits stay within +-(2^(s-1) - 1)
    for s in (2, 5, 64):
        top = 2 ** (s - 1) - 1
        row = [0, top, -top, 0, top, -top]
        packed = sum(x << (s * q) for q, x in enumerate(row))
        assert rmatrix._balanced_digits(packed, s, len(row)) == row
        for q in range(len(row)):
            for digit in (0, top, -top):
                if digit == row[q]:
                    continue
                other = row[:q] + [digit] + row[q + 1 :]
                decoded = rmatrix._balanced_digits(
                    sum(x << (s * p) for p, x in enumerate(other)), s, len(row)
                )
                assert decoded == other, (s, q, digit)


def _embedded(m, slot, d):
    """The rows of m (x) I (slot 12) or I (x) m (slot 23) on the triple power, as {col: x}."""
    rows = []
    for i in range(d**3):
        if slot == 12:
            pair, spectator = divmod(i, d)
            rows.append({p * d + spectator: x for p, x in enumerate(m[pair]) if x})
        else:
            spectator, pair = divmod(i, d * d)
            rows.append({spectator * d * d + p: x for p, x in enumerate(m[pair]) if x})
    return rows


def _times(sparse, dense):
    return [[sum(x * dense[a][c] for a, x in row.items()) for c in range(len(dense[0]))]
            for row in sparse]


def test_measured_ybe_bound_bounds_both_sides(monkeypatch):
    # verify_ybe packs digits of s bits for B = (l+1)^2 times the largest
    # absolute entries of the three scaled operators; on the dense route of
    # _dense_ybe_witnesses, in ints, every entry of both sides times
    # d12 d13 d23 is at most B, B is at most the bound derived from the
    # coefficients, (l+1)^2 nu^3 prod max(|p|, q)^l with nu = max sum_e |N_e|,
    # and the digit width s of verify_ybe holds every such entry; the corner
    # pass of ybe_trials packs every point at one width, which holds the
    # bound B of each corner point
    widths, apply = [], rmatrix._apply

    def recorded(blocks, pair_blocks, rows):
        if rows[0] == 1 and len(rows) > 1 and rows == [rows[1] ** q for q in range(len(rows))]:
            widths.append(rows[1].bit_length() - 1)  # the unit rows 2^(s*q)
        return apply(blocks, pair_blocks, rows)

    monkeypatch.setattr(rmatrix, "_apply", recorded)
    rational = [
        (Fraction(3, 7),) * 3,
        (Fraction(5), Fraction(2), Fraction(-3, 7)),
        (Fraction(5, 3), Fraction(2, 7), Fraction(-3, 4)),
        (Fraction(1, 2), Fraction(-9, 4), Fraction(7, 3)),
        (Fraction(11, 5), Fraction(-4, 3), Fraction(2, 9)),
    ]
    for ell in (1, 2, 3):
        full, d = assemble_full(ell), ell + 1
        nu = max(sum(map(abs, c)) for block in full.blocks for row in block for c in row)
        corner = {(u + v, v, 0) for u, v in _corner(ell)}
        corner_bounds = []
        for zs in _grid(ell) + rational:
            ops, bound, derived = [], d**2, d**2 * nu**3
            for dz in (zs[0] - zs[1], zs[0] - zs[2], zs[1] - zs[2]):
                p, q = dz.numerator, dz.denominator
                scale = math.prod(p + j * q for j in range(1, d))
                m = [[x * scale for x in row] for row in full.at_z(dz)]
                assert {x.denominator for row in m for x in row} == {1}
                ops.append([[int(x) for x in row] for row in m])
                bound *= max(abs(x) for row in ops[-1] for x in row)
                derived *= max(abs(p), q) ** ell
            lhs = rhs = identity(d**3)
            for r, slot in zip(ops, (12, 23, 12)):  # the order of _dense_ybe_witnesses
                lhs = _times(_embedded(r, slot, d), lhs)
            for r, slot in zip(ops[::-1], (23, 12, 23)):
                rhs = _times(_embedded(r, slot, d), rhs)
            top = max(abs(x) for row in lhs for x in row)
            assert lhs == rhs and 0 < top <= bound <= derived, (ell, zs)
            widths.clear()
            assert verify_ybe(full, *zs).passed
            assert widths and all(bound < 2 ** (s - 1) for s in widths), (ell, zs)
            if zs in corner:
                corner_bounds.append(bound)
        widths.clear()
        assert ybe_trials(full, (2 * ell) ** 2, seed=3).passed and len(corner_bounds) == len(corner)
        assert len(set(widths)) == 1 and all(b < 2 ** (widths[0] - 1) for b in corner_bounds), ell


def test_sampling_is_seeded_and_avoids_poles():
    poles = {Fraction(-1), Fraction(-2)}
    first = sample_spectral_triples(2, 10, seed=11)
    second = sample_spectral_triples(2, 10, seed=11)
    assert first == second
    for z1, z2, z3 in first:
        for diff in (z1 - z2, z1 - z3, z2 - z3):
            assert diff not in poles
    assert sample_spectral_triples(2, 10, seed=12) != first


# ---------------------------------------------------------------------------
# factored denominators and the symbolic product
# ---------------------------------------------------------------------------


def test_den_factors_multiply_out_through_k6():
    # the product sums over the lcm of den_factors, which is sound only if
    # every den_factors multiplies out to den exactly
    for k in range(7):
        block = rblock_closed(k)
        built = [S_matrix(k), S_inverse(k), s_tilde(k), block, rblock_triangular(k)]
        built += [m.flip_z() for m in built]
        # the products that verify_unitarity_block and verify_inverse form
        # (R R(-z) and S^-1 S only once a premise fails)
        products = [
            block.mul(block.flip_z()),
            S_matrix(k).mul(S_inverse(k)),
            S_inverse(k).mul(S_matrix(k)),
        ]
        for m in built + products:
            for entry in (e for row in m.entries for e in row):
                assert entry.den_factors is not None, k
                assert entry.den == naive_product(entry.den_factors), k


def test_s_tilde_is_reversed_flipped_s():
    # J * S(-z) is S at -z with its rows reversed; second route: each entry
    # from the factored stable coefficient, flipped before it is expanded,
    # and the triangular block is S^-1 times exactly that factor
    for k in range(7):
        tilde = s_tilde(k)
        expected = SymMatrix(
            [
                [stable_coeff(k, k - j, jp).flip_z().expand() for jp in range(k + 1)]
                for j in range(k + 1)
            ]
        )
        assert not tilde.mismatches(expected), k
        for row_t, row_e in zip(tilde.entries, expected.entries):
            for x, y in zip(row_t, row_e):
                assert (x.num, x.den, x.den_factors) == (y.num, y.den, y.den_factors), k
        direct = S_inverse(k).mul(expected)
        for row_t, row_d in zip(rblock_triangular(k).entries, direct.entries):
            for x, y in zip(row_t, row_d):
                assert (x.num, x.den, x.den_factors) == (y.num, y.den, y.den_factors), k


def test_unitarity_block_direct_product_is_identity_through_k6():
    # second route to the composed proof: the product R(z) R(-z) itself
    for k in range(7):
        block = rblock_closed(k)
        assert not block.mul(block.flip_z()).mismatches(SymMatrix.identity(k + 1)), k


def _spy_products(monkeypatch):
    """Record both factors of every SymMatrix product formed from now on."""
    products = []
    plain = SymMatrix.mul

    def spy(self, other):
        products.append((self, other))
        return plain(self, other)

    monkeypatch.setattr(SymMatrix, "mul", spy)
    return products


def _operands(products):
    return [m for pair in products for m in pair]


def _spy_blocks(monkeypatch):
    """Record every closed block that the checks build from now on, one per call."""
    built = []
    plain = rmatrix.rblock_closed

    def spy(k):
        built.append(plain(k))
        return built[-1]

    monkeypatch.setattr(rmatrix, "rblock_closed", spy)
    return built


def _edited_summands(edit):
    """_entry_summands with edit(k, i, j', summands) applied to every entry's summand list."""
    original = rmatrix._entry_summands

    def edited(k, i, j_prime):
        return iter(edit(k, i, j_prime, list(original(k, i, j_prime))))

    return edited


def test_negated_block_fails_constructions_but_stays_unitary(monkeypatch):
    # -R is unitary too, so a failed premise must fall back to the product
    block = rblock_closed(3)
    negated = _edited_summands(lambda k, i, jp, terms: [(-s, runs) for s, runs in terms])
    monkeypatch.setattr(rmatrix, "_entry_summands", negated)
    constructions = verify_equal_constructions(3)
    assert not constructions.passed
    nonzero = [(i, j) for i in range(4) for j in range(4) if not block.entries[i][j].is_zero]
    assert [(w["i"], w["j_prime"]) for w in constructions.failures] == nonzero
    built, products = _spy_blocks(monkeypatch), _spy_products(monkeypatch)
    assert verify_unitarity_block(3).passed
    (negated_block,) = built
    assert negated_block in _operands(products)
    assert negated_block.entries[0][3].value_eq(block.entries[0][3].scale(-1))


def test_constructions_and_unitarity_form_the_triangular_product_only_on_a_failure(monkeypatch):
    k = 4
    S_inverse(k), S_matrix(k), verify_inverse(k)  # the memoized premise objects, outside the spy
    products = _spy_products(monkeypatch)
    assert verify_equal_constructions(k).passed and verify_unitarity_block(k).passed
    assert products == []  # both decided on the summands: no product, no closed block
    # a failing premise forms the triangular product once per constructions case
    doubled = _edited_summands(lambda k, i, jp, terms: [(2 * s, runs) for s, runs in terms])
    monkeypatch.setattr(rmatrix, "_entry_summands", doubled)
    report = verify_equal_constructions(k)
    assert not report.passed
    assert sum(left is S_inverse(k) for left, _ in products) == 1
    tri = rblock_triangular(k)
    for w in report.failures:
        assert w["triangular"] == ratfun_to_str(tri.entries[w["i"]][w["j_prime"]])
        assert w["closed"] == ratfun_to_str(rblock_closed(k).entries[w["i"]][w["j_prime"]])


def _doubled_entry(i, j_prime):
    """Every summand of closed-form entry (i, j') doubled, so the entry doubles."""
    return _edited_summands(
        lambda k, a, b, terms: [(2 * s, r) for s, r in terms] if (a, b) == (i, j_prime) else terms
    )


def test_replaced_premise_objects_are_not_masked_by_the_memo(monkeypatch):
    k = 3
    assert verify_inverse(k).passed and verify_equal_constructions(k).passed
    corner = rblock_closed(k).entries[0][k]
    built, products = _spy_blocks(monkeypatch), _spy_products(monkeypatch)
    assert verify_unitarity_block(k).passed
    assert built == [] and products == []  # proven from the premises: no block, no product
    # a broken transcription read after the premises were proven is caught
    monkeypatch.setattr(rmatrix, "_entry_summands", _doubled_entry(0, k))
    report = verify_unitarity_block(k)
    (broken,) = built
    assert not report.passed and broken in _operands(products)
    assert broken.entries[0][k].value_eq(corner.scale(2))
    expected = broken.mul(broken.flip_z()).mismatches(SymMatrix.identity(k + 1))
    assert [(w["i"], w["j"]) for w in report.failures] == expected
    monkeypatch.undo()
    s_inv = S_inverse(k)
    built, products = _spy_blocks(monkeypatch), _spy_products(monkeypatch)
    # a broken S^-1: its inverse premise fails, so the block is built and the product formed
    grid = [list(row) for row in s_inv.entries]
    grid[0][k] = grid[0][k].scale(3)
    broken_inv = SymMatrix(grid)
    monkeypatch.setattr(rmatrix, "S_inverse", lambda k: broken_inv)
    assert verify_unitarity_block(k).passed
    (block,) = built
    assert broken_inv in _operands(products) and block in _operands(products)
    # an equal copy of S^-1 is a new object: the premises are decided for it
    copy = SymMatrix(s_inv.entries)
    monkeypatch.setattr(rmatrix, "S_inverse", lambda k: copy)
    built.clear()
    products.clear()
    assert verify_unitarity_block(k).passed
    assert copy in _operands(products) and built == []


def _skip_first_summand(k, i, jp, terms):
    return terms[1:]


def _drop_the_flip(k, i, jp, terms):
    # the last four runs are stable_coeff(k, k - j, j') at -z: undo the z -> -z
    return [(s, r[:3] + tuple((-c_z, *rest) for c_z, *rest in r[3:])) for s, r in terms]


@pytest.mark.parametrize("edit", [_skip_first_summand, _drop_the_flip])
def test_summand_mutants_fail_with_the_value_witnesses(monkeypatch, edit):
    # "summand j skipped" and "the flip dropped": the premise fails, both
    # blocks are formed, and the witnesses are the entries whose values differ
    k = 3
    monkeypatch.setattr(rmatrix, "_entry_summands", _edited_summands(edit))
    assert rmatrix.summand_mismatches(k)
    closed, tri = rblock_closed(k), S_inverse(k).mul(s_tilde(k))
    expected = [
        {
            "i": i,
            "j_prime": j,
            "closed": ratfun_to_str(closed.entries[i][j]),
            "triangular": ratfun_to_str(tri.entries[i][j]),
        }
        for i in range(k + 1)
        for j in range(k + 1)
        if not closed.entries[i][j].value_eq(tri.entries[i][j])
    ]
    assert expected and verify_equal_constructions(k).failures == expected
    # block unitarity decides by the product R(z) R(-z) of the mutant block
    built, products = _spy_blocks(monkeypatch), _spy_products(monkeypatch)
    report = verify_unitarity_block(k)
    (block,) = built
    assert block in _operands(products) and not block.mismatches(closed)
    product = closed.mul(closed.flip_z())
    assert [(w["i"], w["j"]) for w in report.failures] == product.mismatches(
        SymMatrix.identity(k + 1)
    )


def _fails_the_premise_at_1_3_but_passes_by_value(monkeypatch, edit):
    # the premise names entry (1, 3) only, and both cases decide it by value
    k = 3
    monkeypatch.setattr(rmatrix, "_entry_summands", _edited_summands(edit))
    assert rmatrix.summand_mismatches(k) == ((1, 3),)
    built, products = _spy_blocks(monkeypatch), _spy_products(monkeypatch)
    assert verify_equal_constructions(k).passed
    assert sum(left is S_inverse(k) for left, _ in products) == 1  # decided by value
    built.clear()
    products.clear()
    assert verify_unitarity_block(k).passed
    (block,) = built
    assert block in _operands(products)


def test_a_split_summand_differs_term_by_term_but_passes_by_value(monkeypatch):
    # summand s * t of entry (1, 3) written as (s + 1) * t - 1 * t: the term
    # identity fails at that entry only, the values agree, so both cases pass
    def split(k, i, jp, terms):
        if (i, jp) != (1, 3):
            return terms
        (s, runs), *rest = terms
        return [(s + 1, runs), (-1, runs), *rest]

    _fails_the_premise_at_1_3_but_passes_by_value(monkeypatch, split)


def _split_a_run(k, i, jp, terms):
    # the first run of two or more forms in entry (1, 3)'s first summand, as two adjacent runs
    if (i, jp) != (1, 3):
        return terms
    (s, runs), *rest = terms
    n = next(n for n, (_, _, lo, hi, _) in enumerate(runs) if hi > lo)
    c_z, c_eps, lo, hi, exp = runs[n]
    halves = ((c_z, c_eps, lo, lo, exp), (c_z, c_eps, lo + 1, hi, exp))
    return [(s, runs[:n] + halves + runs[n + 1 :]), *rest]


def test_a_run_split_in_two_fails_the_premise_but_passes_by_value(monkeypatch):
    # the same factored term, which a premise on FactoredRat values accepts,
    # but another (scalar, runs) row: the fallback to the values is not hidden
    before = list(rmatrix._entry_summands(3, 1, 3))
    after = _split_a_run(3, 1, 3, before)
    assert after != before
    factored = [[FactoredRat(s, run_pairs(r)) for s, r in terms] for terms in (before, after)]
    assert factored[0] == factored[1]
    _fails_the_premise_at_1_3_but_passes_by_value(monkeypatch, _split_a_run)


def test_the_summand_premise_holds_up_to_the_input_bound():
    # constructions and block unitarity at every k the CLI accepts rest on it
    for k in range(cli.MAX_K + 1):
        assert rmatrix.summand_mismatches(k) == (), k


@pytest.mark.parametrize("name", ["sinv_runs", "stable_runs"])
def test_the_summand_premise_is_decided_per_transcription(monkeypatch, name):
    # each run table is part of the memo key: a replaced table is decided
    # anew, and a table that differs at one row fails the entries it enters
    k = 3
    assert rmatrix.summand_mismatches(k) == ()
    table = getattr(rmatrix, name)
    reads = []

    def doubled_at_the_corner(k, a, b):
        reads.append((a, b))
        s, runs = table(k, a, b)
        return (2 * s, runs) if (a, b) == (0, k) else (s, runs)

    monkeypatch.setattr(rmatrix, name, doubled_at_the_corner)
    bad = rmatrix.summand_mismatches(k)
    # the corner is S^-1_(0, 3), read by row 0, or S_(0, 3) = (J S)_(3, 3), read by column 3
    row, column = [(0, jp) for jp in range(k + 1)], [(i, k) for i in range(k + 1)]
    assert list(bad) == (row if name == "sinv_runs" else column)
    assert len(reads) == (k + 1) ** 2  # each factor read once per k, not once per entry
    assert rmatrix.summand_mismatches(k) is bad and len(reads) == (k + 1) ** 2
    products = _spy_products(monkeypatch)
    assert verify_equal_constructions(k).passed  # the blocks are unchanged in value
    assert verify_unitarity_block(k).passed and products  # but proven by the product


def test_closed_and_triangular_blocks_agree_in_value_through_k8():
    # the value route of the constructions identity, which a passing CLI run
    # no longer takes: the closed form summed over its lcm against the
    # expanded product S^-1 J S(-z)
    for k in range(9):
        assert not rblock_closed(k).mismatches(rblock_triangular(k)), k


def test_unitarity_block_witness_matches_plain_product(monkeypatch):
    block = rblock_closed(3)
    monkeypatch.setattr(rmatrix, "_entry_summands", _doubled_entry(1, 2))
    broken = rblock_closed(3)
    assert broken.entries[1][2].value_eq(block.entries[1][2].scale(2))
    report = verify_unitarity_block(3)
    monkeypatch.undo()
    # second route: the product accumulated with RatFun + and *, pair by pair
    flipped = broken.flip_z()
    plain = {}
    for i in range(4):
        for j in range(4):
            acc = RatFun.zero()
            for m in range(4):
                acc = acc + broken.entries[i][m] * flipped.entries[m][j]
            if not acc.value_eq(int(i == j)):
                plain[i, j] = acc
    assert (1, 2) in plain
    assert [(w["i"], w["j"]) for w in report.failures] == sorted(plain)
    product = broken.mul(flipped)
    for w in report.failures:
        entry = product.entries[w["i"]][w["j"]]
        assert w["entry"] == ratfun_to_str(entry)
        assert entry.value_eq(plain[w["i"], w["j"]])
    assert verify_unitarity_block(3).passed


def _place(ell, i, j):
    """(w, r, c): entry (i, j), which lies in a pair sector, is blocks[w][r][c]."""
    place = {x: (w, r) for w, sector in enumerate(pair_sectors(ell)) for r, x in enumerate(sector)}
    (w, r), (v, c) = place[i], place[j]
    assert w == v, (i, j)
    return w, r, c


def _broken_full(ell, changes):
    """assemble_full(ell) with the numerator coefficients of some entries (i, j) replaced.

    Each entry lies in a pair sector, and is edited at its place in the block.
    """
    blocks = [[list(row) for row in block] for block in assemble_full(ell).blocks]
    for (i, j), coeffs in changes.items():
        w, r, c = _place(ell, i, j)
        blocks[w][r][c] = coeffs(blocks[w][r][c])
    return FullR(ell, tuple(tuple(map(tuple, block)) for block in blocks))


def _stored(full, i, j):
    """The stored coefficient tuple of entry (i, j), which lies in a pair sector."""
    w, r, c = _place(full.ell, i, j)
    return full.blocks[w][r][c]


def _dense_unitarity_witnesses(full):
    """Second route: the dense RatFun product over all index triples, as the
    witnesses of ``verify_unitarity_full``."""
    product = full.matrix.mul(full.matrix.flip_z())
    labels = full.labels
    return [
        {"row": labels[i], "col": labels[j], "entry": ratfun_to_str(product.entries[i][j])}
        for i, j in product.mismatches(SymMatrix.identity(full.dim))
    ]


def test_identity_at_zero_fails_on_a_corrupted_constant_coefficient():
    # N_0 = ell! Id decides R(0) = Id; the dense route at_z(0) must agree, also
    # when only a higher coefficient is corrupted, which leaves R(0) alone
    bump = {0: lambda c: (c[0] + 1,) + c[1:] if c else (1,), 1: lambda c: (c[0], c[1] + 1) + c[2:]}
    cases = [(2, (4, 4), 0), (2, (1, 3), 0), (3, (6, 9), 0), (3, (0, 0), 0), (3, (6, 9), 1)]
    for ell, (i, j), power in cases:
        broken = _broken_full(ell, {(i, j): bump[power]})
        report = verify_identity_at_zero(broken)
        dense = broken.at_z(Fraction(0)) == identity(broken.dim)
        assert report.passed == dense == (power > 0), (ell, i, j, power)
        if power == 0:
            assert report.failures == [{"reason": "R(0) is not the identity"}]


def test_unitarity_full_witness_matches_dense_product():
    # scale the (0,1) -> (1,0) coupling of the spin-1 matrix by 2
    broken = _broken_full(2, {(1, 3): lambda c: tuple(2 * x for x in c)})
    report = verify_unitarity_full(broken)
    assert report.failures and report.failures == _dense_unitarity_witnesses(broken)


# ---------------------------------------------------------------------------
# the spin-reversal symmetry and the half-sector checks
# ---------------------------------------------------------------------------


def _weyl(ell):
    """M: e_a -> a!/(ell-a)! e_(ell-a) as a dense Fraction matrix (column a)."""
    d = ell + 1
    return [
        [
            Fraction(math.factorial(a), math.factorial(ell - a)) if r == ell - a else Fraction(0)
            for a in range(d)
        ]
        for r in range(d)
    ]


def _commutes_with_weyl_pair(full):
    """(M (x) M) R(z) == R(z) (M (x) M) in Fractions at three rational z."""
    mm = kron(_weyl(full.ell), _weyl(full.ell))
    points = (Fraction(3, 7), Fraction(-5, 2), Fraction(11))
    return all(mat_mul(mm, full.at_z(z)) == mat_mul(full.at_z(z), mm) for z in points)


def _mirror_scaled(ell, i, j, factor):
    """assemble_full(ell) with entry (i, j) and its mirror both scaled by factor."""
    last = (ell + 1) ** 2 - 1
    scale = lambda c: tuple(factor * x for x in c)  # noqa: E731
    return _broken_full(ell, {(i, j): scale, (last - i, last - j): scale})


def test_mirror_premise_holds_through_max_ell():
    for ell in range(1, 13):
        assert assemble_full(ell).mirror_symmetric, ell


def test_mirror_premise_agrees_with_dense_commutation():
    for ell in range(1, 5):
        assert _commutes_with_weyl_pair(assemble_full(ell)), ell
    broken = _broken_full(2, {(1, 3): lambda c: tuple(2 * x for x in c)})
    assert not broken.mirror_symmetric and not _commutes_with_weyl_pair(broken)
    scaled = _mirror_scaled(2, 1, 3, 2)
    assert scaled.mirror_symmetric and _commutes_with_weyl_pair(scaled)


def test_mirror_premise_refuses_one_corrupted_entry():
    # (an entry between self-mirrored pairs, such as (1,1) -> (1,1) at ell = 2,
    # is not constrained by the symmetry, so none is corrupted here)
    for ell, (i, j) in ((1, (1, 2)), (2, (2, 4)), (3, (6, 9)), (3, (0, 0))):
        assert _stored(assemble_full(ell), i, j)
        broken = _broken_full(ell, {(i, j): lambda c: c[:-1] + (c[-1] + 1,)})
        assert not broken.mirror_symmetric, (ell, i, j)


def test_mirror_premise_is_decided_only_when_read():
    full = FullR(3, assemble_full(3).blocks)
    full.lowest_terms(), full.at_z(Fraction(2))
    assert "mirror_symmetric" not in vars(full)
    assert full.mirror_symmetric and "mirror_symmetric" in vars(full)


def test_dense_outputs_read_the_blocks_and_no_check_builds_them(monkeypatch):
    # matrix, lowest_terms and at_z hold each stored entry at its sector
    # position, and zero between different weights
    z = Fraction(2, 3)
    for ell in range(1, cli.MAX_ELL + 1):
        full = assemble_full(ell)
        dense = full.matrix.entries, full.lowest_terms().entries, full.at_z(z)
        # z = 2/3: the powers 2^e 3^(ell-e) and 3^ell D(2/3), built here
        table = [2**e * 3 ** (ell - e) for e in range(ell + 1)]
        den = math.prod(2 + 3 * j for j in range(1, ell + 1))
        weight = [a + b for a, b in full.labels]
        for w, sector in enumerate(pair_sectors(ell)):
            for r, i in enumerate(sector):
                for c, j in enumerate(sector):
                    coeffs = full.blocks[w][r][c]
                    matrix, reduced, value = (d[i][j] for d in dense)
                    assert matrix.num == z_poly(coeffs) and matrix.den == spin_denominator(ell)
                    reduced_again = over_spin_denominator(coeffs, ell)
                    assert (reduced.num, reduced.den) == (reduced_again.num, reduced_again.den)
                    assert value == Fraction(sum(x * t for x, t in zip(coeffs, table)), den)
        between = [(i, j) for i, u in enumerate(weight) for j, v in enumerate(weight) if u != v]
        assert between, ell
        for i, j in between:
            assert dense[0][i][j].is_zero and dense[1][i][j].is_zero and dense[2][i][j] == 0
            assert dense[0][i][j].den == spin_denominator(ell)
    # the checks read the blocks of the FullR they are given: on fresh copies,
    # made before assembly is refused, no check builds R or a dense square.
    # With the memo emptied, every assemble_full call reaches specialize_block
    fulls = [FullR(ell, assemble_full(ell).blocks) for ell in (1, 2, 3)]

    def never(*args):
        raise AssertionError("a check built R")

    assemble_full.cache_clear()
    monkeypatch.setattr(rmatrix, "specialize_block", never)
    assert not hasattr(oracle, "assemble_full")
    zs = (Fraction(11, 5), Fraction(-4, 3), Fraction(2, 9))
    for full in fulls:
        grid = (2 * full.ell) ** 2
        assert verify_unitarity_full(full).passed and verify_identity_at_zero(full).passed
        assert ybe_trials(full, grid, seed=3).passed and ybe_trials(full, 5, seed=3).passed
        assert verify_ybe(full, *zs).passed
        assert oracle.verify_sl2_commutation(full).passed and oracle.verify_spectrum(full).passed
        assert "matrix" not in vars(full), full.ell


def test_dense_outputs_work_only_on_sector_entries(monkeypatch):
    # sum over sectors of |sector|^2 entries at ell = 12, against 13^4 = 28561
    # for the dense square, plus at most one call for the shared zero; the
    # sector layout is built once per ell
    calls = []

    def counted(coeffs, ell):
        calls.append(coeffs)
        return over_spin_denominator(coeffs, ell)

    monkeypatch.setattr(rmatrix, "over_spin_denominator", counted)
    sizes = sum(len(sector) ** 2 for sector in pair_sectors(12))
    assert sizes == 1469
    assemble_full(12).lowest_terms()
    assert sizes <= len(calls) <= sizes + 1
    for ell in (1, 4, 12):
        assert pair_sectors(ell) is pair_sectors(ell) and type(pair_sectors(ell)) is tuple


def test_full_r_refuses_mutation():
    # the memoized commutation verdict and the cached premises assume that a
    # FullR never changes
    full = FullR(1, assemble_full(1).blocks)
    for name, value in (("ell", 2), ("blocks", assemble_full(2).blocks), ("fresh", 0)):
        with pytest.raises(AttributeError, match=f"^FullR is immutable: cannot set {name}$"):
            setattr(full, name, value)
    assert full.ell == 1 and full.blocks is assemble_full(1).blocks and "fresh" not in vars(full)


def test_half_sector_failures_match_the_dense_routes():
    # the premise still holds, so the checks start on the lower half, find a
    # failure there and then check every sector: the witnesses, upper half
    # included, are those of the dense routes, in the same order
    cases = [
        (1, (1, 2), 2, (Fraction(5, 3), Fraction(2, 7), Fraction(-3, 4))),
        (2, (1, 3), -1, (Fraction(5), Fraction(2), Fraction(-3, 7))),
        (2, (4, 4), 3, (Fraction(1, 2), Fraction(-9, 4), Fraction(7, 3))),
        (3, (6, 9), 10**6, (Fraction(11, 5), Fraction(-4, 3), Fraction(2, 9))),
    ]
    for ell, (i, j), factor, zs in cases:
        broken = _mirror_scaled(ell, i, j, factor)
        assert broken.mirror_symmetric
        report = verify_ybe(broken, *zs)
        assert report.failures and report.failures == _dense_ybe_witnesses(broken, *zs)
        # a failing sector fails with its mirror
        weights = {_triple_weight(w["row"], ell) for w in report.failures}
        assert weights == {3 * ell - w for w in weights}
        report = verify_unitarity_full(broken)
        assert report.failures and report.failures == _dense_unitarity_witnesses(broken)
        weights = {sum(w["row"]) for w in report.failures}
        assert weights == {2 * ell - w for w in weights}


def _applied_weights(monkeypatch, ell, run):
    """The triple sector weights that ``_apply`` is called on while run() runs."""
    weight = {
        id(blocks): w
        for w, (_, slot12, slot23) in enumerate(rmatrix._ybe_layout(ell))
        for blocks in (slot12, slot23)
    }
    seen, apply = [], rmatrix._apply
    monkeypatch.setattr(
        rmatrix,
        "_apply",
        lambda blocks, *rest: seen.append(weight[id(blocks)]) or apply(blocks, *rest),
    )
    run()
    monkeypatch.setattr(rmatrix, "_apply", apply)
    return sorted(set(seen)), len(seen)


def test_ybe_applies_only_the_lower_half_when_the_premise_holds(monkeypatch):
    zs = (Fraction(11, 5), Fraction(-4, 3), Fraction(2, 9))
    for ell in (1, 2, 3, 4):
        full = assemble_full(ell)
        passed = []
        weights, calls = _applied_weights(
            monkeypatch, ell, lambda: passed.append(verify_ybe(full, *zs).passed)
        )
        half = 3 * ell // 2
        assert passed == [True] and weights == list(range(half + 1)) and calls == 6 * (half + 1)
    # a failure makes it apply every sector
    broken = _mirror_scaled(3, 6, 9, 2)
    weights, calls = _applied_weights(monkeypatch, 3, lambda: verify_ybe(broken, *zs))
    assert weights == list(range(10)) and calls == 60
