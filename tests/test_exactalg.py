"""Kernel tests: polynomials, factored products, rational functions, residues."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinr.exactalg import (
    ExactAlgError,
    ExactDivisionError,
    FactoredRat,
    LinForm,
    MPoly,
    PoleSpecializationError,
    RatFun,
    UnsupportedPoleOrderError,
    _canonical,
    _canonical_factor_items,
    _expand_factor_product,
    _sum_of_products,
    cancel_common_z_roots,
    divide_root,
    factored_runs,
    factored_sum,
    limit_at_z_infinity,
    mpoly_exact_div,
    mpoly_to_str,
    parse_rational,
    ratfun_dot,
    ratfun_to_str,
    residue_at,
    run_pairs,
)

Z = MPoly.var("z")
PHI = MPoly.var("phi")
EPS = MPoly.var("eps")
ONE = MPoly.one()


def c(x):
    return MPoly.const(x)


def rf(num, den=None):
    return RatFun(num, den)


def naive_product(items):
    # second route to a factor product, form by form and outside the memo
    out = ONE
    for form, exp in items:
        out = out * form.to_mpoly() ** exp
    return out


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


def test_mpoly_equals_a_scalar_by_its_constant_term():
    assert MPoly.const(3) == 3
    assert MPoly() == 0
    assert MPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert MPoly.var("z") != 3


def test_pow_and_scale():
    assert (Z + PHI) ** 2 == Z * Z + Z * PHI * c(2) + PHI * PHI
    assert Z.scale(Fraction(1, 2)) + Z.scale(Fraction(1, 2)) == Z
    # the square-and-multiply loop would never end on a negative exponent
    with pytest.raises(ValueError, match="^negative power of a polynomial$"):
        Z**-1


def test_eval_rational_refuses_an_unbound_variable():
    with pytest.raises(ExactAlgError, match="^variable z unbound in rational evaluation$"):
        Z.eval_rational({"phi": 1})


def test_exact_div_difference_of_squares():
    assert mpoly_exact_div(Z * Z - PHI * PHI, Z - PHI) == Z + PHI


def test_exact_div_with_multiplicity():
    product = (Z + c(2) * PHI) * (Z - PHI) ** 2
    assert mpoly_exact_div(product, Z - PHI) == (Z + c(2) * PHI) * (Z - PHI)


def test_exact_div_rejects_nonexact():
    with pytest.raises(ExactDivisionError):
        mpoly_exact_div(Z * Z, Z + PHI)


def test_internal_invariants_raise_with_their_messages():
    # a zero divisor, a zero linear factor, a zero denominator and a pole at
    # the evaluation point are each refused with a message that names them
    with pytest.raises(ExactDivisionError, match="^division by the zero polynomial$"):
        mpoly_exact_div(Z, MPoly())
    with pytest.raises(ExactAlgError, match="^zero linear form used as a factor$"):
        FactoredRat(1, [(LinForm(0, 0, 0), 1)])
    with pytest.raises(ZeroDivisionError, match="^rational function with zero denominator$"):
        RatFun(Z, MPoly())
    with pytest.raises(PoleSpecializationError, match=r"^denominator z vanishes at \{'z': 0\}$"):
        RatFun(ONE, Z).eval_rational({"z": 0})


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


def test_factored_sum_of_nothing_is_zero_over_one():
    # no live term: the lcm of no denominators is 1, with no factors, for a
    # factored sum, for a dot product with no pair or only zero operands, and
    # for a product with zero on either side of a factored 1/z
    zero = RatFun.zero()
    f = factored_sum([FactoredRat(1, [(LinForm(1, 0, 0), -1)])])
    assert f.den_factors == ((LinForm(1, 0, 0), 1),)
    for total in (
        factored_sum([]),
        factored_sum([FactoredRat.zero()]),
        ratfun_dot([], []),
        ratfun_dot([zero, zero], [zero, zero]),
        zero * f,
        f * zero,
    ):
        assert (total.num, total.den, total.den_factors) == (MPoly.zero(), ONE, ())


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


def test_residue_of_zero_is_zero():
    # a zero numerator is never stripped, so its pole order is not read
    for den in ((Z + PHI) ** 2, Z + PHI):
        assert residue_at(rf(MPoly.zero(), den), 1) == RatFun.zero()


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
    # "²" passes str.isdigit but is no decimal digit, so Fraction would reject it
    for bad in ("1.5", "3/", "/7", "a", "1e3", "3 / 7", "²", "1/²"):
        with pytest.raises(ValueError, match="not an integer or p/q rational"):
            parse_rational(bad)
    for bad in ("1/0", "-3/0"):
        with pytest.raises(ValueError, match="zero denominator"):
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


scalars = st.one_of(st.integers(-6, 6), small_fractions)


def assert_canonical_scalar(f):
    # int exactly when integral (also a zero scalar), and the value the same
    # as with the scalar taken as a Fraction
    assert type(f.scalar) is (int if Fraction(f.scalar).denominator == 1 else Fraction), f
    num = naive_product(f.num_items()).scale(Fraction(f.scalar))
    assert f.expand() == RatFun(num, naive_product(f.den_items())), f


@given(scalars, st.lists(st.tuples(linforms, st.integers(-2, 2)), max_size=4), factored, scalars)
@settings(max_examples=100, deadline=None)
def test_factored_scalar_is_an_int_exactly_when_integral(s, pairs, g, t):
    f = FactoredRat(s, pairs)
    for h in (f, f * g, g * f, f.scale(t), g.scale(t), f.flip_z(), g.flip_z(), FactoredRat(t)):
        assert_canonical_scalar(h)


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
    binding = {"z": MPoly({(0, 1, 0): m})}  # z -> m*phi
    assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)


@given(factored, factored, nonzero_fractions)
@settings(max_examples=100, deadline=None)
def test_den_factors_multiply_out_to_den(f, g, q):
    a, b = f.expand(), g.expand()
    results = [a, b, a + b, a - b, a * b, a.scale(q), a.flip_z(), (a + b).flip_z()]
    results.append(factored_sum([f, g]))
    for r in results:
        assert r.den_factors is not None
        assert r.den == naive_product(r.den_factors)


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


def _cross_multiplied_eq(a, b):
    return a.num * b.den == b.num * a.den


@given(factored, factored, nonzero_fractions, linforms)
@settings(max_examples=100, deadline=None)
def test_value_eq_agrees_with_cross_multiplication(f, g, q, form):
    a, b = f.expand(), g.expand()
    # a times form/form: the same value over a larger factored denominator
    padded = a * FactoredRat(1, [(form, 1)]).expand() * FactoredRat(1, [(form, -1)]).expand()
    assert padded.value_eq(a) and a.value_eq(padded)
    pairs = [
        (a, b),  # disjoint or overlapping factor lists
        (a, a.scale(q)),  # equal factor lists
        (a, RatFun(a.num + b.num, a.den, a.den_factors)),
        (a, (f * g).expand()),  # overlapping lists
        (a, padded),
        (RatFun(a.num), b),  # den = 1
        (RatFun(a.num), RatFun(b.num)),
        (a, RatFun(b.num, b.den, None)),  # unknown factorization
        (RatFun(a.num, a.den, None), a),
        (RatFun(a.num, a.den, None), RatFun(b.num, b.den, None)),
        (a.flip_z(), b.flip_z()),
        (a.flip_z(), a),
        (padded.flip_z(), a.flip_z()),
    ]
    for x, y in pairs:
        assert x.value_eq(y) == _cross_multiplied_eq(x, y)
        assert y.value_eq(x) == _cross_multiplied_eq(y, x)


# a few fixed forms next to arbitrary ones, so that lists repeat forms often
repeatable_forms = st.one_of(
    st.sampled_from([LinForm(1, 0, 0), LinForm(1, 1, 0), LinForm(0, 1, -1)]), linforms
)
canonical_items = st.lists(
    st.tuples(repeatable_forms, st.integers(1, 4)), max_size=5
).map(lambda pairs: _canonical_factor_items(Fraction(1), pairs)[1])


@given(canonical_items, mpolys, nonzero_mpolys, nonzero_fractions)
@settings(max_examples=100, deadline=None)
def test_expansion_memo_is_shared_and_never_mutated(items, p, q, x):
    expanded = _expand_factor_product(items)
    assert expanded == naive_product(items)
    assert _expand_factor_product(tuple(list(items))) is expanded
    before = dict(expanded.terms)
    # every operation reads the shared poly; none may write to it
    results = [
        expanded + p, p + expanded, expanded - p, p - expanded, -expanded,
        expanded * p, p * expanded, expanded.scale(x), expanded.flip_z(),
        mpoly_exact_div(expanded * q, q), mpoly_exact_div(expanded * q, expanded),
    ]
    assert results[-2] == expanded and results[-1] == q
    assert _expand_factor_product(items) is expanded
    assert expanded.terms == before


def _plus_sum_of_products(pairs):
    # second route: each product built as an MPoly and added with +
    out = MPoly.zero()
    for a, b in pairs:
        out = out + a * b
    return out


@given(st.lists(st.tuples(mpolys, mpolys), max_size=5))
@settings(max_examples=100, deadline=None)
def test_sum_of_products_equals_the_sum_built_with_plus(pairs):
    total = _sum_of_products(pairs)
    expected = _plus_sum_of_products(pairs)
    assert total == expected
    assert {m: type(x) for m, x in total.terms.items()} == {
        m: type(x) for m, x in expected.terms.items()
    }
    # each pair once more with a negated factor: the sum cancels exactly
    cancelled = _sum_of_products(pairs + [(-a, b) for a, b in pairs])
    assert cancelled.is_zero and cancelled.terms == {}


def test_sum_of_products_edge_cases():
    assert _sum_of_products([]).is_zero
    half = Fraction(1, 2)
    # Fraction terms that add up to an integer come back as ints
    total = _sum_of_products([(Z.scale(half), c(3)), (Z, c(half)), (PHI.scale(half), ONE)])
    assert total == Z.scale(2) + PHI.scale(half)
    assert type(total.terms[(1, 0, 0)]) is int
    assert type(total.terms[(0, 1, 0)]) is Fraction
    # z^2 - phi^2 - (z - phi)(z + phi) = 0, a cancellation across pairs
    assert _sum_of_products([(Z, Z), (PHI, -PHI), (Z - PHI, -(Z + PHI))]).is_zero
    cases = [
        # products landing on every total degree from 0 to 4 in one call
        [(c(5), c(-2)), (c(3), EPS), (Z * PHI, EPS - Z), (Z + EPS * EPS, PHI - Z * Z)],
        # z^2 - eps^2 fills both end slots of degree 2, pure z^d and pure eps^d
        [(Z + EPS, Z - EPS)],
        # e_z > 0 and e_phi > 0 in both factors: the slots add in both digits
        [(Z * PHI + Z * Z * PHI.scale(half), Z * PHI * EPS - Z * PHI * PHI.scale(3))],
    ]
    for pairs in cases:
        total = _sum_of_products(pairs)
        assert total == _plus_sum_of_products(pairs) and not total.is_zero
    assert _sum_of_products(cases[1]).terms == {(2, 0, 0): 1, (0, 0, 2): -1}


@given(st.builds(LinForm, st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)))
@example(LinForm(0, -4, 6))
@example(LinForm(0, 0, -3))
@example(LinForm(-2, 4, 0))
@example(LinForm(0, 0, 0))
@settings(max_examples=100, deadline=None)
def test_canonical_memo_returns_canonical(form):
    if form.is_zero:  # refused inside the memo, on every call
        for canonical in (_canonical, _canonical, LinForm.canonical):
            with pytest.raises(ExactAlgError, match="^zero linear form used as a factor$"):
                canonical(form)
        return
    assert _canonical(form) == form.canonical()
    assert _canonical(LinForm(*form)) == form.canonical()  # an equal key reads the memo


def naive_ratfun(scalar, pairs):
    # scalar * prod form**exp multiplied out form by form, outside every memo and merge
    num = naive_product([(form, exp) for form, exp in pairs if exp > 0]).scale(scalar)
    return RatFun(num, naive_product([(form, -exp) for form, exp in pairs if exp < 0]))


# c_z and c_eps in -2..2, lo and hi in -3..3 (hi < lo is an empty run), exponents in -2..2
coefficients, bounds = st.integers(-2, 2), st.integers(-3, 3)
run_tuples = st.tuples(coefficients, coefficients, bounds, bounds, st.integers(-2, 2))


@given(st.one_of(st.just(0), scalars), st.lists(run_tuples, max_size=7))
@example(Fraction(3, 2), [(0, 0, 1, 2, -1), (1, 0, 2, 1, 1)])  # content 1/2 of 1/(2*phi); empty
@example(5, [(0, 1, 1, 2, 1), (0, 1, 1, 2, -1), (2, 0, -3, 3, 0)])  # cancelled runs, exponent 0
@example(-1, [(-1, 2, 0, 1, -2), (1, -2, 0, 0, 1), (0, 0, 2, 3, 2)])  # signs and shared forms
@example(0, [(0, 0, -1, 1, 1)])  # a zero scalar refuses nothing, as in FactoredRat
@example(1, [(0, 0, -1, 1, 1)])  # the zero form
@settings(max_examples=200, deadline=None)
def test_factored_runs_equals_canonicalizing_the_expanded_runs(s, runs):
    try:
        expected = FactoredRat(s, run_pairs(runs))
    except ExactAlgError as err:
        with pytest.raises(ExactAlgError, match=f"^{err}$"):
            factored_runs(s, runs)
        return
    got = factored_runs(s, runs)
    assert type(got.scalar) is type(expected.scalar)
    assert (got.scalar, got.factors) == (expected.scalar, expected.factors)
    if s:
        assert got.expand() == naive_ratfun(s, run_pairs(runs))


def test_a_run_holding_the_zero_form_is_refused_on_every_call():
    # the refusal is raised inside the memos, and exceptions are not cached
    for _ in range(2):
        with pytest.raises(ExactAlgError, match="^zero linear form used as a factor$"):
            factored_runs(1, [(1, 0, 0, 0, 1), (0, 0, -1, 1, 1)])


# factored values over a few fixed forms, so that products cancel factors often
repeating_factored = st.builds(
    FactoredRat, scalars, st.lists(st.tuples(repeatable_forms, st.integers(-2, 2)), max_size=4)
)


@given(repeating_factored, repeating_factored)
@example(FactoredRat(2, [(LinForm(1, 1, 0), 1)]), FactoredRat(3, [(LinForm(-2, -2, 0), -1)]))
@settings(max_examples=100, deadline=None)
def test_products_merge_as_canonicalizing_the_concatenated_factors(a, b):
    product = a * b
    expected = FactoredRat(a.scalar * b.scalar, (*a.factors, *b.factors))
    assert type(product.scalar) is type(expected.scalar)
    assert (product.scalar, product.factors) == (expected.scalar, expected.factors)
    assert product.expand() == naive_ratfun(a.scalar * b.scalar, (*a.factors, *b.factors))
    if not a.is_zero and not b.is_zero:
        den_factors = (a.expand() * b.expand()).den_factors
        assert den_factors == FactoredRat(1, (*a.den_items(), *b.den_items())).factors


def test_comparisons_with_a_foreign_type_are_not_implemented():
    for value in (MPoly.one(), FactoredRat(2, [(LinForm(1, 0, 0), -1)]), RatFun.one()):
        assert value.__eq__("1") is NotImplemented
        assert value != "1"


def test_reprs_name_the_type_and_the_text_form():
    assert repr(FactoredRat(-2, [(LinForm(1, 0, 0), -1)])) == "FactoredRat(-2 * (z)^-1)"
    assert repr(rf(Z, PHI + EPS)) == "RatFun(z/(eps + phi))"


# ---------------------------------------------------------------------------
# polynomials in z: coefficient lists, synthetic division, residues
# ---------------------------------------------------------------------------

z_free_mpolys = st.dictionaries(
    st.tuples(st.just(0), st.integers(0, 2), st.integers(0, 2)), small_fractions, max_size=3
).map(MPoly)


def from_z_coeffs(coeffs):
    out = MPoly.zero()
    for e, c_e in enumerate(coeffs):
        out = out + c_e * Z**e
    return out


@given(mpolys)
@example(MPoly.zero())
@example(PHI * EPS + c(3))
@settings(max_examples=100, deadline=None)
def test_z_coeffs_round_trip(p):
    coeffs = p.z_coeffs()
    assert all(c_e.degree_in("z") <= 0 for c_e in coeffs)
    assert len(coeffs) == p.degree_in("z") + 1
    assert from_z_coeffs(coeffs) == p


@given(nonzero_mpolys, z_free_mpolys)
@example(Z**2 * PHI + EPS, MPoly.zero())
@example(c(7), PHI)
@settings(max_examples=100, deadline=None)
def test_divide_root_on_z_free_coefficients(p, root):
    # second routes: the remainder is p at z = -root, and p - r is divisible
    # by z + root with the quotient that mpoly_exact_div finds
    quotient, remainder = divide_root(p.z_coeffs(), root)
    assert remainder.degree_in("z") <= 0
    assert remainder == p.substitute({"z": -root})
    assert from_z_coeffs(quotient) == mpoly_exact_div(p - remainder, Z + root)


def to_sympy(p, symbols):
    import sympy

    z, phi, eps = symbols
    return sympy.Add(
        *(
            sympy.Rational(c_.numerator, c_.denominator) * z**a * phi**b * eps**e
            for (a, b, e), c_ in p.terms.items()
        )
    )


@given(
    nonzero_mpolys,
    nonzero_mpolys,
    st.integers(-3, 3),
    st.sampled_from([(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 0), (1, 1), (2, 1)]),
)
@example(ONE, Z - PHI, 1, (2, 3))
@example(EPS, Z + EPS, 0, (0, 1))
@settings(max_examples=40, deadline=None)
def test_residue_matches_an_independent_sympy_route(a, b, n, powers):
    # f = a (z + n phi)^i / (b (z + n phi)^j) with a, b nonzero at z = -n phi:
    # a pole of order j - i; sympy's residue of a simple pole is
    # ((z + n phi) f) cancelled, then taken at z = -n phi
    sympy = pytest.importorskip("sympy")
    symbols = z, phi, _ = sympy.symbols("z phi eps")
    a_s, b_s = to_sympy(a, symbols), to_sympy(b, symbols)
    assume(sympy.expand(a_s.subs(z, -n * phi)) != 0 and sympy.expand(b_s.subs(z, -n * phi)) != 0)
    i, j = powers
    factor = Z + PHI.scale(n)
    f = RatFun(a * factor**i, b * factor**j)
    if j - i >= 2:
        with pytest.raises(UnsupportedPoleOrderError):
            residue_at(f, n)
        return
    expected = sympy.cancel((z + n * phi) * a_s * (z + n * phi) ** (i - j) / b_s).subs(z, -n * phi)
    got = residue_at(f, n)
    assert sympy.cancel(to_sympy(got.num, symbols) / to_sympy(got.den, symbols) - expected) == 0
    if j - i <= 0:
        assert got.is_zero
