"""Kernel tests: polynomials, factored products, rational functions, residues."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from spinr.exactalg import (
    ExactDivisionError,
    FactoredRat,
    LinForm,
    MPoly,
    RatFun,
    UnsupportedPoleOrderError,
    _expand_factor_product,
    cancel_common_z_roots,
    factored_sum,
    limit_at_z_infinity,
    mpoly_exact_div,
    mpoly_to_str,
    parse_rational,
    ratfun_to_str,
    residue_at,
)
from spinr.oracle import _eval_with_cancellation

Z = MPoly.var("z")
PHI = MPoly.var("phi")
EPS = MPoly.var("eps")
ONE = MPoly.one()


def c(x):
    return MPoly.const(x)


def rf(num, den=None):
    return RatFun(num, den)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_add_free_sum():
    assert Z + PHI == MPoly({(1, 0, 0): 1, (0, 1, 0): 1})


def test_difference_of_squares():
    assert (Z + PHI) * (Z - PHI) == Z * Z - PHI * PHI


def test_eps_squared_cancellation():
    # the cancellation that collapses the k=1 off-diagonal sum
    assert (EPS + Z) * (EPS - Z) + Z * Z == EPS * EPS


def test_zero_pruning():
    assert (Z - Z).is_zero
    assert MPoly({(1, 0, 0): 0}).is_zero


def test_pow_and_scale():
    assert (Z + PHI) ** 2 == Z * Z + Z * PHI * c(2) + PHI * PHI
    assert Z.scale(Fraction(1, 2)) + Z.scale(Fraction(1, 2)) == Z


def test_exact_div_difference_of_squares():
    assert mpoly_exact_div(Z * Z - PHI * PHI, Z - PHI) == Z + PHI


def test_exact_div_with_multiplicity():
    product = (Z + c(2) * PHI) * (Z - PHI) ** 2
    assert mpoly_exact_div(product, Z - PHI) == (Z + c(2) * PHI) * (Z - PHI)


def test_exact_div_rejects_nonexact():
    with pytest.raises(ExactDivisionError):
        mpoly_exact_div(Z * Z, Z + PHI)


def test_flip_z():
    assert (Z * Z + Z + PHI).flip_z() == Z * Z - Z + PHI


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_ratfun_eq_common_factor():
    assert rf(Z, Z * PHI).value_eq(rf(ONE, PHI))


def test_ratfun_eq_distinct():
    assert not rf(EPS, EPS - Z).value_eq(rf(EPS + Z, EPS - Z))


def test_ratfun_eq_sign_normalization():
    assert rf(-EPS, Z * (EPS + Z)).value_eq(rf(EPS, -(Z * (EPS + Z))))


def test_ratfun_eq_operator_is_value_equality():
    assert RatFun(Z, Z * PHI) == RatFun(ONE, PHI)
    assert RatFun.one() == 1
    assert RatFun(Z) != RatFun(PHI)


def test_ratfun_add_mul():
    a = rf(ONE, Z)
    b = rf(ONE, PHI)
    assert a + b == rf(Z + PHI, Z * PHI)
    assert a * b == rf(ONE, Z * PHI)
    assert a - a == RatFun.zero()


# ---------------------------------------------------------------------------
# factored products
# ---------------------------------------------------------------------------


def test_expand_single_inverse_factor():
    f = FactoredRat(1, [(LinForm(1, 0, 1), -1)])
    assert f.expand() == rf(ONE, EPS + Z)


def test_expand_stable_entry_k1():
    # -eps/(z (eps+z)): the (0, 1) stable-class coefficient at k = 1
    f = FactoredRat(-1, [(LinForm(0, 0, 1), 1), (LinForm(1, 0, 0), -1), (LinForm(1, 0, 1), -1)])
    assert f.expand() == rf(-EPS, Z * (EPS + Z))


def test_expand_printed_stable_entry_k2():
    # 2 (phi+eps) / ((eps+z) (phi-z) (phi+z))
    f = FactoredRat(
        2,
        [
            (LinForm(0, 1, 1), 1),
            (LinForm(1, 0, 1), -1),
            (LinForm(-1, 1, 0), -1),
            (LinForm(1, 1, 0), -1),
        ],
    )
    expected = rf(c(2) * (PHI + EPS), (EPS + Z) * (PHI - Z) * (PHI + Z))
    assert f.expand() == expected


def test_canonical_sign_collision():
    # (-z) and (z) must share a factor key, sign moving to the scalar
    a = FactoredRat(1, [(LinForm(-1, 0, 0), 1)])
    b = FactoredRat(-1, [(LinForm(1, 0, 0), 1)])
    assert a == b


def test_factored_sum_keeps_common_denominator():
    # 1/z + 1/(z*phi): least common denominator is z*phi, not z^2*phi
    terms = [
        FactoredRat(1, [(LinForm(1, 0, 0), -1)]),
        FactoredRat(1, [(LinForm(1, 0, 0), -1), (LinForm(0, 1, 0), -1)]),
    ]
    total = factored_sum(terms)
    assert total.den == Z * PHI
    assert total == rf(PHI + ONE, Z * PHI)


# ---------------------------------------------------------------------------
# residues and limits
# ---------------------------------------------------------------------------


def test_residue_simple_pole():
    assert residue_at(rf(ONE, Z + PHI), 1) == RatFun.one()


def test_residue_at_origin():
    f = rf(EPS, Z * (EPS + Z))
    assert residue_at(f, 0) == RatFun.one()


def test_residue_no_pole_is_zero():
    assert residue_at(rf(ONE, Z + PHI), 2).is_zero


def test_residue_removable_factor_is_zero():
    f = rf(Z + PHI, (Z + PHI) * (Z - PHI))
    assert residue_at(f, 1).is_zero


def test_residue_strips_shared_factor_before_ordering():
    # (z+phi)^2 / ((z+phi)^3 (z-phi)) has a simple pole at z = -phi
    f = rf((Z + PHI) ** 2, (Z + PHI) ** 3 * (Z - PHI))
    assert residue_at(f, 1) == rf(c(-1), c(2) * PHI)


def test_residue_double_pole_rejected():
    with pytest.raises(UnsupportedPoleOrderError):
        residue_at(rf(ONE, (Z + PHI) ** 2), 1)


def test_limit_at_infinity():
    assert limit_at_z_infinity(rf(Z, Z + PHI)).value_eq(1)
    assert limit_at_z_infinity(rf(PHI, Z + PHI)).is_zero
    assert limit_at_z_infinity(rf(Z * Z, Z + PHI)) is None


def test_cancel_common_z_roots():
    num, den = cancel_common_z_roots(Z * (Z + PHI), Z * Z, [Fraction(0)])
    assert num == Z + PHI and den == Z


def test_cancel_common_z_roots_multiplicity_and_one_sided_roots():
    # (z-1)^2 is shared; the root 3 is only in num, the root 0 only in den
    num, den = cancel_common_z_roots(
        (Z - ONE) ** 2 * (Z - c(3)), (Z - ONE) ** 2 * Z, [Fraction(0), Fraction(1), Fraction(3)]
    )
    assert num == Z - c(3) and den == Z


def test_eval_with_cancellation():
    f = rf(Z * (Z + ONE), Z * (Z + c(2)))
    assert _eval_with_cancellation(f, Fraction(0)) == Fraction(1, 2)
    assert _eval_with_cancellation(rf(ONE, Z), Fraction(0)) is None


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------


def test_canonical_text_form():
    assert ratfun_to_str(rf(EPS + Z, Z * PHI)) == "(eps + z)/(z*phi)"
    assert mpoly_to_str(Z * Z - PHI.scale(2)) == "-2*phi + z^2"
    assert ratfun_to_str(RatFun.zero()) == "0"
    assert mpoly_to_str(c(Fraction(-3, 7))) == "-3/7"


def test_parse_rational():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational("-4") == Fraction(-4)
    for bad in ("1.5", "3/", "/7", "a", "1e3", "3 / 7"):
        with pytest.raises(ValueError):
            parse_rational(bad)


# ---------------------------------------------------------------------------
# coefficient representation: int when integral, Fraction otherwise
# ---------------------------------------------------------------------------


def coeff_types(p):
    return {type(x) for x in p.terms.values()}


def test_exact_div_quotient_keeps_fractions():
    q = mpoly_exact_div(Z.scale(2) + ONE, c(2))
    assert q == Z + c(Fraction(1, 2))
    assert type(q.terms[(1, 0, 0)]) is int
    assert type(q.terms[(0, 0, 0)]) is Fraction


def test_as_rational_is_a_fraction():
    half = RatFun(MPoly.const(1), MPoly.const(2)).as_rational()
    assert half == Fraction(1, 2)
    assert type(half) is Fraction
    assert type(MPoly.const(3).as_rational()) is Fraction


def test_scale_back_to_integers_gives_ints():
    p = Z.scale(3) + PHI.scale(4) - ONE
    back = p.scale(Fraction(1, 2)).scale(2)
    assert back == p
    assert coeff_types(back) == {int}


def test_integral_sums_and_products_give_ints():
    half_z = Z.scale(Fraction(1, 2))
    assert coeff_types(half_z) == {Fraction}
    assert coeff_types(half_z + half_z) == {int}
    assert coeff_types(half_z * c(2)) == {int}
    assert coeff_types(MPoly({(0, 0, 0): Fraction(6, 3)})) == {int}


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
monomials = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
mpolys = st.dictionaries(monomials, small_fractions, max_size=4).map(MPoly)
nonzero_mpolys = mpolys.filter(lambda p: not p.is_zero)

linforms = st.builds(
    LinForm, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
).filter(lambda f: not f.is_zero)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)
factored = st.builds(
    FactoredRat,
    nonzero_fractions,
    st.lists(st.tuples(linforms, st.integers(-2, 2)), max_size=4),
)


@given(mpolys, mpolys, mpolys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c_):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c_ == a + (b + c_)
    assert (a * b) * c_ == a * (b * c_)
    assert a * (b + c_) == a * b + a * c_


@given(mpolys, nonzero_mpolys)
@settings(max_examples=60, deadline=None)
def test_exact_div_roundtrip(f, g):
    assert mpoly_exact_div(f * g, g) == f


@given(factored, factored)
@settings(max_examples=60, deadline=None)
def test_expand_is_multiplicative(f, g):
    assert (f * g).expand() == f.expand() * g.expand()


@given(factored, st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_residue_vanishes_without_pole_factor(f, n):
    assume(LinForm(1, n, 0) not in {form for form, _ in f.den_items()})
    assert residue_at(f.expand(), n).is_zero


@given(mpolys, mpolys, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_substitute_commutes_with_product(a, b, m):
    binding = {"z": MPoly.monomial((0, 1, 0), m)}  # z -> m*phi
    assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)


@given(factored, factored, nonzero_fractions)
@settings(max_examples=100, deadline=None)
def test_den_factors_multiply_out_to_den(f, g, q):
    a, b = f.expand(), g.expand()
    results = [a, b, a + b, a - b, a * b, a.scale(q), a.flip_z(), (a + b).flip_z()]
    results.append(factored_sum([f, g]))
    for r in results:
        assert r.den_factors is not None
        assert r.den == _expand_factor_product(r.den_factors)


@given(factored)
@settings(max_examples=60, deadline=None)
def test_expand_inverse_roundtrip(f):
    expanded = f.expand()
    back = f.inverse().expand()
    assert expanded * back == RatFun.one()


@given(mpolys, small_fractions, small_fractions, small_fractions)
@settings(max_examples=100, deadline=None)
def test_eval_rational_matches_per_term_fraction_sum(p, z, phi, eps):
    # second route: a Fraction power product per term, summed term by term
    expected = Fraction(0)
    for (a, b, e), coeff in p.terms.items():
        expected += Fraction(coeff) * z**a * phi**b * eps**e
    value = p.eval_rational({"z": z, "phi": phi, "eps": eps})
    assert type(value) is Fraction
    assert value == expected
