"""The matrix module: the one entrywise comparison and the symbolic product."""

import pytest
from hypothesis import given, settings, strategies as st

from spinr.exactalg import FactoredRat, LinForm, MPoly, RatFun
from spinr.fracmat import SymMatrix


def naive_product(items):
    # second route to a factor product, form by form and outside the memo
    out = MPoly.one()
    for form, exp in items:
        out = out * form.to_mpoly() ** exp
    return out


def test_mismatches_refuses_other_shapes():
    # a smaller matrix must not compare equal to the corner of a larger one
    for a, b in ((2, 3), (3, 2)):
        with pytest.raises(ValueError):
            SymMatrix.identity(a).mismatches(SymMatrix.identity(b))


def test_mul_refuses_other_shapes():
    with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
        SymMatrix.identity(2).mul(SymMatrix.identity(3))


def test_repr_names_the_shape():
    assert repr(SymMatrix([[RatFun.one()] * 3] * 2)) == "SymMatrix(2x3)"


# ---------------------------------------------------------------------------
# the symbolic product
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
linforms = st.builds(LinForm, st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1)).filter(
    lambda f: not f.is_zero
)
factored = st.builds(
    FactoredRat,
    small_fractions.filter(lambda q: q != 0),
    st.lists(st.tuples(linforms, st.integers(-2, 2)), max_size=3),
)


def _unfactored(f: FactoredRat) -> RatFun:
    e = f.expand()
    return RatFun(e.num, e.den, None)


entries = st.one_of(
    st.just(RatFun.zero()),
    factored.map(FactoredRat.expand),
    factored.map(FactoredRat.expand),
    factored.map(_unfactored),
)


@st.composite
def matrix_pairs(draw):
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    grid = lambda rows, cols: [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return SymMatrix(grid(n, m)), SymMatrix(grid(m, p))


@given(matrix_pairs())
@settings(max_examples=80, deadline=None)
def test_mul_equals_plain_accumulation(pair):
    # second route: the plain RatFun sum of products, term by term
    a, b = pair
    product = a.mul(b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = RatFun.zero()
            for m in range(a.cols):
                x, y = a.entries[i][m], b.entries[m][j]
                if not x.is_zero and not y.is_zero:
                    acc = acc + x * y
            entry = product.entries[i][j]
            assert entry.value_eq(acc)
            if entry.den_factors is not None:
                assert entry.den == naive_product(entry.den_factors)
            operands = [*a.entries[i], *(row[j] for row in b.entries)]
            if all(x.den_factors is not None for x in operands):
                assert entry.den_factors is not None
