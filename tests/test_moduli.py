"""Fixed-point enumeration, dimension formulas, patch weight tables."""

import itertools

import pytest

from spinr.exactalg import LinForm
from spinr.moduli import (
    DegeneratePatchError,
    DomainError,
    FixedPoint,
    WeightTable,
    WeightedVar,
    complete_intersection_coeff,
    dim_M1,
    duality_involution,
    fixed_points,
    patch_weights,
    weight_space_dim,
)
from spinr.stablebasis import stable_coeff, zbar_coeff


def brute_force_count(k, n, ell):
    """Independent oracle: enumerate all sequences directly."""
    return sum(
        1 for seq in itertools.product(range(ell + 1), repeat=n) if sum(seq) == k
    )


# ---------------------------------------------------------------------------
# fixed points and dimensions
# ---------------------------------------------------------------------------


def test_fixed_points_k2():
    assert [p.seq for p in fixed_points(2, 2, 2)] == [(2, 0), (1, 1), (0, 2)]


def test_fixed_points_zero_weight():
    assert [p.seq for p in fixed_points(0, 3, 5)] == [(0, 0, 0)]


def test_fixed_points_k3():
    assert [p.seq for p in fixed_points(3, 2, 2)] == [(2, 1), (1, 2)]


def test_fixed_points_empty_beyond_range():
    assert fixed_points(9, 2, 2) == []


def test_fixed_points_rejects_bad_arguments():
    with pytest.raises(DomainError):
        fixed_points(-1, 2, 2)
    with pytest.raises(DomainError):
        fixed_points(1, 0, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FixedPoint((0,), 0), r"^ell must be >= 1, got 0$"),
        (lambda: FixedPoint((3,), 2), r"^entries of \(3,\) must lie in 0\.\.2$"),
        (lambda: weight_space_dim(-1, 2, 2), r"^need k >= 0, n >= 1, ell >= 1, got \(-1, 2, 2\)$"),
        (lambda: dim_M1(-1, 2, 2), r"^need k >= 0, n >= 1, ell >= 1, got \(-1, 2, 2\)$"),
    ],
    ids=["fixed-point-ell", "fixed-point-entry", "weight-space-dim", "dim-M1"],
)
def test_library_guards_name_the_refused_input(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_weight_space_dim_examples():
    assert weight_space_dim(2, 2, 2) == 3
    assert weight_space_dim(0, 4, 3) == 1
    assert weight_space_dim(4, 3, 2) == 6 == brute_force_count(4, 3, 2)


def test_counting_identity_exhaustive():
    for n in range(1, 5):
        for ell in range(1, 5):
            for k in range(n * ell + 1):
                count = len(fixed_points(k, n, ell))
                assert count == weight_space_dim(k, n, ell) == brute_force_count(k, n, ell)


def test_dim_examples():
    assert dim_M1(2, 2, 2) == 4
    assert dim_M1(0, 3, 4) == 0
    assert dim_M1(3, 2, 2) == 2


def test_dim_matches_two_branch_form():
    for ell in range(1, 7):
        for k in range(2 * ell + 1):
            assert dim_M1(k, 2, ell) == 2 * min(k, 2 * ell - k)


def test_dim_symmetric_under_complement():
    for n in range(1, 5):
        for ell in range(1, 5):
            for k in range(n * ell + 1):
                assert dim_M1(k, n, ell) == dim_M1(n * ell - k, n, ell)


def test_dim_empty_stable_set():
    with pytest.raises(DomainError):
        dim_M1(3, 1, 2)  # two Jordan blocks cannot fit a single site


# ---------------------------------------------------------------------------
# duality involution
# ---------------------------------------------------------------------------


def test_duality_examples():
    assert duality_involution(FixedPoint((2, 0), 2)).seq == (0, 2)
    pts = fixed_points(1, 2, 3)
    images = [duality_involution(p).seq for p in pts]
    assert sorted(images) == sorted(p.seq for p in fixed_points(5, 2, 3))


def test_duality_is_involution_and_bijection():
    for n in range(1, 4):
        for ell in range(1, 4):
            for k in range(n * ell + 1):
                pts = fixed_points(k, n, ell)
                dual = [duality_involution(p) for p in pts]
                assert all(duality_involution(q) == p for p, q in zip(pts, dual))
                assert sorted(q.seq for q in dual) == sorted(
                    p.seq for p in fixed_points(n * ell - k, n, ell)
                )


# ---------------------------------------------------------------------------
# patch weight tables
# ---------------------------------------------------------------------------


def test_patch_weights_zbar_k2():
    table = patch_weights(2, 1, 2, "Zbar")
    x_weights = [v.form for v in table.variables if v.tag.startswith("x")]
    u_weights = [v.form for v in table.variables if v.tag.startswith("u")]
    assert sorted(x_weights) == sorted(
        [LinForm(0, 1, 0), LinForm(1, 1, 0), LinForm(-1, 1, 0), LinForm(0, 1, 0)]
    )
    assert u_weights == []
    assert list(table.equations) == [LinForm(0, 1, 0), LinForm(0, 2, 0)]


def test_patch_weights_stab_corner():
    table = patch_weights(2, 0, 0, "Stab")
    assert [v.form for v in table.variables] == [LinForm(1, 0, 1), LinForm(1, 1, 1)]
    assert table.equations == ()
    coeff = complete_intersection_coeff(table)
    assert coeff.expand() == stable_coeff(2, 0, 0).expand()


def test_patch_weights_core_dimension():
    for k in range(7):
        table = patch_weights(k, k, k, "P")
        assert len(table.variables) == 2 * k
        assert len(table.equations) == k
        assert len(table.variables) - len(table.equations) == k


def test_patch_weights_lagrangian_dimension():
    for k in range(7):
        for jp in range(k + 1):
            for j in range(jp + 1):
                for variant in ("Zbar", "Stab"):
                    table = patch_weights(k, j, jp, variant)
                    assert len(table.variables) - len(table.equations) == k


def test_patch_weights_bounds():
    with pytest.raises(DomainError):
        patch_weights(2, 2, 1, "Zbar")
    with pytest.raises(DomainError):
        patch_weights(2, 3, 3, "P")
    with pytest.raises(DomainError):
        patch_weights(2, 0, 1, "Q")


def test_patch_tags_name_coordinates():
    table = patch_weights(3, 1, 2, "Zbar")
    tags = [v.tag for v in table.variables]
    assert any(t.startswith("x[(2,1)") for t in tags)
    assert "u[0,1,2]" in tags


# ---------------------------------------------------------------------------
# complete intersection coefficients
# ---------------------------------------------------------------------------


def test_ci_coeff_singular_point_example():
    # one equation of weight 2*phi (twice the weight of b) over a, b, c with
    # weights phi+z, phi, phi-z: the local patch around the singular middle
    # fixed point, whose coefficient is 2/((phi-z)(phi+z))
    from spinr.exactalg import FactoredRat

    table = WeightTable(
        variables=(
            WeightedVar(LinForm(1, 1, 0), "a"),
            WeightedVar(LinForm(0, 1, 0), "b"),
            WeightedVar(LinForm(-1, 1, 0), "c"),
        ),
        equations=(LinForm(0, 2, 0),),
    )
    coeff = complete_intersection_coeff(table)
    assert coeff.expand() == zbar_coeff(2, 1, 2).expand()
    # without the b variable the ratio keeps the factor 2*phi in the numerator
    short = WeightTable(table.variables[::2], table.equations)
    expected = FactoredRat(
        2, [(LinForm(0, 1, 0), 1), (LinForm(1, 1, 0), -1), (LinForm(-1, 1, 0), -1)]
    )
    assert complete_intersection_coeff(short) == expected


def test_ci_coeff_empty_table_is_one():
    assert complete_intersection_coeff(WeightTable((), ())).expand().value_eq(1)


def test_ci_coeff_rejects_zero_weight():
    table = WeightTable((WeightedVar(LinForm(0, 0, 0), "bad"),), ())
    with pytest.raises(DegeneratePatchError):
        complete_intersection_coeff(table)
    with pytest.raises(DegeneratePatchError, match=r"^equation with zero weight$"):
        complete_intersection_coeff(WeightTable((), (LinForm(0, 0, 0),)))


def test_geometry_reproduces_class_coefficients():
    # two independent derivation paths: weight tables vs closed-form products
    for k in range(6):
        for jp in range(k + 1):
            for j in range(jp + 1):
                geom_z = complete_intersection_coeff(patch_weights(k, j, jp, "Zbar"))
                assert geom_z.expand() == zbar_coeff(k, j, jp).expand()
                geom_s = complete_intersection_coeff(patch_weights(k, j, jp, "Stab"))
                assert geom_s.expand() == stable_coeff(k, j, jp).expand()
