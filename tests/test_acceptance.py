"""Acceptance gate: the exit criteria of the build, one test per criterion.

Every check is exact (tolerance identically zero); each criterion also
carries a wall-clock budget.  Run with ``pytest -v -s tests/test_acceptance.py``
to see one pass/fail line per criterion with its timing.
"""

import itertools
import time
from fractions import Fraction

from spinr.golden import (
    spin_half_block,
    spin_one_full_matrix,
    spin_one_middle_block,
    stable_matrix_k2,
)
from spinr.moduli import (
    complete_intersection_coeff,
    dim_M1,
    duality_involution,
    fixed_points,
    patch_weights,
    weight_space_dim,
)
from spinr.oracle import (
    casimir_projectors,
    spectral_decompose,
    verify_sl2_commutation,
)
from spinr.rmatrix import (
    assemble_full,
    rblock_closed,
    verify_equal_constructions,
    verify_identity_at_zero,
    verify_unitarity_block,
    ybe_trials,
)
from spinr.stablebasis import (
    S_matrix,
    solve_change_of_basis,
    stable_coeff,
    verify_inverse,
    verify_linrel,
    verify_residues_all,
    zbar_coeff,
)


class _Budget:
    """Measure one criterion and print its pass/fail line."""

    def __init__(self, number: int, name: str, limit_seconds: float):
        self.number = number
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_spin_half_reproduction():
    with _Budget(1, "spin-1/2 block reproduction", 1.0):
        assert not rblock_closed(1).mismatches(spin_half_block())


def test_criterion_02_spin_one_golden_matrices():
    with _Budget(2, "spin-1 golden matrices", 5.0):
        assert not S_matrix(2).mismatches(stable_matrix_k2())
        assert verify_inverse(2).passed
        assert not rblock_closed(2).mismatches(spin_one_middle_block())
        assert not assemble_full(2).matrix.mismatches(spin_one_full_matrix())


def test_criterion_03_inverse_identity():
    with _Budget(3, "S^-1 S = Id for k <= 6", 60.0):
        for k in range(7):
            report = verify_inverse(k)
            assert report.passed, report.summary()


def test_criterion_04_residue_vanishing():
    with _Budget(4, "residues vanish and limits are delta for k <= 4", 60.0):
        for k in range(5):
            report = verify_residues_all(k)
            assert report.passed, report.summary()


def test_criterion_05_linear_relations():
    with _Budget(5, "binomial linear relations for k <= 5", 30.0):
        for k in range(6):
            report = verify_linrel(k)
            assert report.passed, report.summary()
        assert solve_change_of_basis(2) == [
            [Fraction(1), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(0), Fraction(0), Fraction(1)],
        ]


def test_criterion_06_construction_cross_check():
    with _Budget(6, "closed form equals triangular product for k <= 6", 120.0):
        for k in range(7):
            report = verify_equal_constructions(k)
            assert report.passed, report.summary()


def test_criterion_07_yang_baxter():
    label = "Yang-Baxter proven on the 4- and 16-point grid (ell 1, 2), at 20 seeded triples (ell 3)"
    with _Budget(7, label, 300.0):
        for ell in (1, 2, 3):
            report = ybe_trials(assemble_full(ell), trials=20, seed=7)
            assert report.passed, report.summary()


def test_criterion_08_unitarity_and_identity_at_zero():
    with _Budget(8, "unitarity per block (k <= 6) and R(0) = Id (ell <= 3)", 300.0):
        for k in range(7):
            report = verify_unitarity_block(k)
            assert report.passed, report.summary()
        for ell in (1, 2, 3):
            report = verify_identity_at_zero(assemble_full(ell))
            assert report.passed, report.summary()


def test_criterion_09_counting_and_dimensions():
    with _Budget(9, "fixed-point counting and dimension formulas", 60.0):
        for n in range(1, 5):
            for ell in range(1, 5):
                for k in range(n * ell + 1):
                    pts = fixed_points(k, n, ell)
                    assert len(pts) == weight_space_dim(k, n, ell)
                    brute = sum(
                        1
                        for seq in itertools.product(range(ell + 1), repeat=n)
                        if sum(seq) == k
                    )
                    assert len(pts) == brute
                    images = sorted(duality_involution(p).seq for p in pts)
                    assert images == sorted(
                        p.seq for p in fixed_points(n * ell - k, n, ell)
                    )
        for ell in range(1, 7):
            for k in range(2 * ell + 1):
                assert dim_M1(k, 2, ell) == 2 * min(k, 2 * ell - k)
                assert dim_M1(k, 2, ell) == dim_M1(2 * ell - k, 2, ell)


def test_criterion_10_geometry_to_formula():
    with _Budget(10, "weight tables reproduce class coefficients (k <= 5)", 60.0):
        for k in range(6):
            for jp in range(k + 1):
                for j in range(jp + 1):
                    geom = complete_intersection_coeff(patch_weights(k, j, jp, "Zbar"))
                    assert geom.expand() == zbar_coeff(k, j, jp).expand()
                    geom = complete_intersection_coeff(patch_weights(k, j, jp, "Stab"))
                    assert geom.expand() == stable_coeff(k, j, jp).expand()


def test_criterion_11_oracle_equivariance_and_spectrum():
    with _Budget(11, "coproduct equivariance and exact spectral form (ell <= 3)", 300.0):
        for ell in (1, 2, 3):
            full = assemble_full(ell)
            report = verify_sl2_commutation(full)
            assert report.passed, report.summary()
            gauge = report.details["gauge"]  # the sign gauge is recorded
            rhos = spectral_decompose(full)  # reconstruction asserted inside
            projs = casimir_projectors(ell)
            dim = full.dim
            for u in range(dim):
                for v in range(dim):
                    acc = None
                    for s, p in enumerate(projs):
                        term = rhos[s].scale(p[u][v])
                        acc = term if acc is None else acc + term
                    # sigma R sigma, with sigma = diag(gauge)
                    assert acc.value_eq(full.matrix.entries[u][v].scale(gauge[u] * gauge[v]))
            for rho in rhos:
                assert (rho * rho.flip_z()).value_eq(1)
                assert rho.eval_rational({"z": Fraction(0)}) == 1
