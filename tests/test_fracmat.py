"""The matrix module: exact rank, and the one entrywise comparison."""

from fractions import Fraction

import pytest

from spinr.fracmat import SymMatrix, rank


def test_rank_stays_exact_on_int_pivots():
    # an int pivot must not turn the elimination into float arithmetic:
    # 7/3 is not a float, so a float reciprocal leaves a spurious residue
    assert rank([[3, 7], [6, 14]]) == 1
    assert rank([[3, 7], [1, Fraction(7, 3)]]) == 1
    assert rank([[3, 7], [1, 2]]) == 2


def test_mismatches_refuses_other_shapes():
    # a smaller matrix must not compare equal to the corner of a larger one
    for a, b in ((2, 3), (3, 2)):
        with pytest.raises(ValueError):
            SymMatrix.identity(a).mismatches(SymMatrix.identity(b))
    assert not SymMatrix.identity(2).value_eq(SymMatrix.identity(3))
