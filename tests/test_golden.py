"""Failure witnesses of the golden suite and of the linear relations, and Report.summary."""

from fractions import Fraction

from spinr import golden, rmatrix, stablebasis
from spinr.exactalg import ratfun_to_str
from spinr.fracmat import SymMatrix
from spinr.golden import spin_half_block


def test_golden_block_mismatch_names_every_differing_entry(monkeypatch):
    # a block scaled by 2 differs from the pinned spin-1/2 block in every entry
    block = rmatrix.rblock_closed(1)
    scaled = SymMatrix([[entry.scale(2) for entry in row] for row in block.entries])
    monkeypatch.setattr(golden, "rblock_closed", lambda k: scaled)
    report = golden.golden_spin_half_block()
    pinned = spin_half_block()
    assert report.failures == [
        {"i": i, "j": j, "computed": str(x), "expected": str(y)}
        for i, (row, pinned_row) in enumerate(zip(scaled.entries, pinned.entries))
        for j, (x, y) in enumerate(zip(row, pinned_row))
    ]


def test_golden_attracting_matrix_reports_each_branch(monkeypatch):
    # a scaled attracting coefficient fails its entry; a wrong change of
    # basis fails the solve; each branch leaves the other alone
    zbar = stablebasis.zbar_coeff
    monkeypatch.setattr(golden, "zbar_coeff", lambda k, j, jp: zbar(k, j, jp).scale(2))
    report = golden.golden_attracting_matrix_k2()
    assert report.failures == [
        {"j": j, "j_prime": jp, "computed": str(zbar(2, j, jp).scale(2).expand())}
        for jp in range(3)
        for j in range(jp + 1)
    ]
    monkeypatch.setattr(golden, "zbar_coeff", zbar)
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    monkeypatch.setattr(golden, "solve_change_of_basis", lambda k: identity)
    report = golden.golden_attracting_matrix_k2()
    assert report.failures == [
        {
            "reason": "change-of-basis solve differs from pinned matrix",
            "solved": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
    ]


def test_linrel_reports_each_branch(monkeypatch):
    # stable coefficients scaled by 2 break every relation, and the witness
    # prints the factored coefficient; a wrong change of basis fails the
    # solve alone.  S is memoized per k, so it is expanded anew under the
    # patch, and the scaled S is dropped after it.
    k, coeff = 2, stablebasis.stable_coeff
    monkeypatch.setattr(stablebasis, "stable_coeff", lambda k, j, jp: coeff(k, j, jp).scale(2))
    stablebasis.S_matrix.cache_clear()
    try:
        report = stablebasis.verify_linrel(k)
    finally:
        monkeypatch.setattr(stablebasis, "stable_coeff", coeff)
        stablebasis.S_matrix.cache_clear()
    assert report.failures == [
        {
            "j": j,
            "j_prime": jp,
            "lhs": str(coeff(k, j, jp).scale(2)),
            "rhs": ratfun_to_str(coeff(k, j, jp).expand()),
        }
        for jp in range(k + 1)
        for j in range(jp + 1)
    ]
    assert report.details == {"change_of_basis": [[1, 1, 1], [0, 1, 2], [0, 0, 1]]}
    wrong = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    monkeypatch.setattr(stablebasis, "solve_change_of_basis", lambda k: wrong)
    report = stablebasis.verify_linrel(1)
    assert report.failures == [
        {
            "reason": "change-of-basis solve disagrees with binomial matrix",
            "solved": [["1", "2"], ["0", "1"]],
        }
    ]
    assert report.details == {}


def test_summary_names_the_check_and_its_first_witness(monkeypatch):
    # the message of a failed acceptance criterion
    assert golden.golden_spin_half_block().summary() == "golden_spin_half_block(k=1): pass"
    block = rmatrix.rblock_closed(1)
    monkeypatch.setattr(golden, "rblock_closed", lambda k: SymMatrix(block.entries[::-1]))
    report = golden.golden_spin_half_block()
    assert len(report.failures) == 4
    assert report.summary() == (
        "golden_spin_half_block(k=1): FAIL  witness: "
        "{'i': 0, 'j': 0, 'computed': '-z/(-eps + z)', 'expected': 'eps/(eps - z)'}"
    )
