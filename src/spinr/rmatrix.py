"""Construction and verification of the spin-ell/2 R-matrix.

Each total-weight sector k carries a (k+1) x (k+1) block in the generic
variables (z, phi, eps), a ``fracmat.SymMatrix``.  The closed form
(``rblock_closed``) is the product S^-1 J S(-z) of the stable basis (J the
index reversal) written as one factored sum: summand j of entry (i, j') is
sinv_entry(k, i, j) times stable_coeff(k, k-j, j') at -z, and
``exactalg.factored_sum`` sums the summands over their lcm.
``_entry_summands`` transcribes those summands apart from the ``stablebasis``
tables, and ``summand_mismatches`` decides, once per k and per transcription,
that they are the product terms exactly, as (scalar, runs) rows: the scalars
multiplied and the runs concatenated, those of S at -z with c_z negated.
``factored_runs`` reads equal rows as equal terms, and equal terms have equal
sums, so that premise decides the equality of the two constructions with
neither block built.  Only when it fails are the triangular product
(``rblock_triangular``, the expanded entries multiplied through
``exactalg.ratfun_dot``) and the closed block formed and compared by value.

Each summand of the closed form is an int scalar and at most seven runs of
consecutive linear forms, read in two ways: ``rblock_closed`` merges the
runs' memoized factors, and ``specialize_block`` maps them to the spin line
eps = -ell*phi, phi = 1, where a form is an int constant or +-(z + c).  So
``assemble_full`` builds each block entry it needs on int coefficient lists
in z: the summands are summed over their lcm, multiplied by the one
denominator D(z) = (z+1)...(z+ell) of the fusion spectrum and divided exactly
(``exactalg.times_roots`` and ``exactalg.divide_root``); no generic block is
expanded and nothing is substituted.  The entry coupling source (a, b) to
target (a', b') with a + b = a' + b' = k is block entry (b', b); everything
else is zero.  So ``FullR`` stores only the pair-sector blocks of
``specialize_block``, each numerator over D as its int coefficients, which
every check reads directly; an entry between different weights cannot be
written down.
``over_spin_denominator`` is the one reduction to lowest terms over D's known
roots, for the printed matrix and the oracle's spectrum.

Verifications: unitarity R(z) R(-z) = Id (symbolically per block, and for a
``FullR`` per weight sector on int polynomials), equality of the two
constructions, and the Yang-Baxter equation at exact rational points.  Each
check of the spin line takes the ``FullR`` it checks and assembles none.  The
lower/upper factorization of the index-reversed block needs no check of its
own: it is the triangular form S^-1 J S(-z) with its indices reversed, so
equal constructions and the triangularity of S and S^-1 imply it.  For the
Yang-Baxter check, a pair operator acting on slots 12 or 23 of the triple
tensor power is, on each total-weight sector, block-diagonal: one block per
digit of the spectator slot, each the pair-weight block of R (at most ell+1
square).  The sector products apply those blocks to the rows of the
intermediate matrix, and each row is one packed int (``verify_ybe``), so
no operator is ever formed as a matrix, dense or embedded.

The grid argument.  The Yang-Baxter check is a proof when it may evaluate
(2*ell)^2 points (``ybe_trials`` with that many trials or more) and
R(0) = Id (N_0 = ell! Id, ``FullR.identity_at_zero``).  Set u = z1 - z2 and
v = z2 - z3, so z1 - z3 = u + v.  ``verify_ybe`` compares two int matrices,
each a product of N(u), N(u+v) and N(v) in some order (N the numerator over
D), and ``FullR`` refuses an entry of degree above ell, so every entry of
their difference Delta(u, v) has degree <= 2*ell in u and in v.  As
N_0 = ell! Id, both sides are ell! B12(N(v)) B23(N(v)) at u = 0 and
ell! B23(N(u)) B12(N(u)) at v = 0 (B12, B23 the pair operator embedded on
slots 12, 23), so u*v divides every entry of Delta, and the quotient has
degree <= 2*ell - 1 in each variable.  If Delta vanishes on the grid
u, v in {1..2*ell}, so does the quotient, which is then zero (Alon,
Combinatorial Nullstellensatz, Combin. Probab. Comput. 8, 1999, Lemma 2.1).
So the grid route is a proof: it checks the integer triples (u+v, v, 0),
where every difference is at least 1 and none is a pole, and its witnesses
are the failing grid triples, each of which replays with
``verify --suite ybe -l L --trials (2L)^2`` under any seed.  Below that many
trials, or when the premise fails, the check is a screen at seeded random
rational triples.  The next two arguments let the grid route decide the
equation on the corner u <= v, u + v <= 3*ell of the grid first (17 of 36
points at ell = 3); only when that pass fails, or its premise does, are all
(2*ell)^2 grid triples checked, so the witnesses stay the failing grid
triples in grid order.

The swap argument.  Let P swap the two factors of V (x) V and P13 slots 1
and 3 of V (x) V (x) V, so P13 B12(X) P13 = B23(P X P).  P reverses each
pair sector, so P N_e P = N_e for every power e reads
blocks[w][~r][~c] == blocks[w][r][c] (``FullR.swap_symmetric``, decided on
first read).  When it holds, conjugating by P13 maps the left side at (u, v)
to the right side at (v, u) and back, so Delta(v, u) = -P13 Delta(u, v) P13:
Delta vanishes at (u, v) exactly when it vanishes at (v, u).

The corner argument.  Each entry of a side is a sum of products of one
entry each of N(v), N(u+v) and N(u), each of degree <= ell, so the quotient
Q = Delta/(u v) has total degree <= 3*ell - 2 and degree <= 2*ell - 1 in
each variable: its monomials u^a v^b lie in the lower set
L = {a, b <= 2*ell - 1, a + b <= 3*ell - 2}.  A polynomial supported on a
lower set L that vanishes at the points (a+1, b+1), (a, b) in L, is zero.
By induction on the largest a in L: at u = 1 it is a polynomial in v of
degree <= 2*ell - 1 (at most the largest b) with the roots 1..2*ell, so each
coefficient of v^b vanishes at u = 1, u - 1 divides the polynomial, and the
quotient, shifted by u -> u + 1, is supported on {(a, b): (a+1, b) in L} and
vanishes at its points.  Those points of L are the grid triples with
u + v <= 3*ell, and by the swap argument the ones with u <= v decide them.

The mirror argument.  Both checks on the assembled matrix read half of the
weight sectors.  R(z) intertwines sl2 modules, so it commutes with the Weyl
element w (x) w, which maps weight a to ell - a.  In the code's basis the
symmetry reads (M (x) M) R(z) = R(z) (M (x) M) with
M: e_a -> a!/(ell-a)! e_(ell-a), an int identity on the stored coefficients
that ``FullR.mirror_symmetric`` decides once per matrix object and only when
first read.  When it holds, M (x) M commutes with R(z) R(-z) and maps pair
sector w onto 2*ell - w by a monomial matrix (a permutation times nonzero
scales), and M (x) M (x) M commutes with R12, R13 and R23 and maps triple
sector W onto 3*ell - W.  So the defect of unitarity (of the YBE) on the
mirrored sector is a monomial conjugate of the defect on sector w (W), and
one is zero exactly when the other is: sectors w <= ell (W <= 3*ell // 2)
decide the identity, and the check stays a proof.  On a failure the other
sectors are checked too, so the witnesses are the same whether or not the
premise holds.

Block unitarity by composition.  Two premises prove it.  The first is
S S^-1 = Id (``stablebasis.inverse_mismatches``): z -> -z is a ring
automorphism, so it gives S(-z) S^-1(-z) = Id, and over the field of
rational functions it gives S^-1 S = Id.  The second is the summand premise:
every summand of the closed form is the product term of S^-1 J S(-z), and
equal terms summed by ``factored_sum`` and by ``ratfun_dot`` give equal
values, so the closed form is S^-1 J S(-z).  With J^2 = Id,
R(z) R(-z) = S^-1(z) J [S(-z) S^-1(-z)] J S(z) = S^-1(z) S(z) = Id.  The
first premise is decided once per pair of S and S^-1 objects (``SymMatrix``
hashes by identity), the second once per k and per transcription, so a
verdict is reused only for the very objects and tables it was decided on.
When either fails, the closed block is built and the product R(z) R(-z)
formed directly, and a failure report lists its entries that differ from Id.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .exactalg import (
    MPoly,
    PoleSpecializationError,
    RatFun,
    Run,
    Scalar,
    divide_root,
    factored_runs,
    factored_sum,
    limit_at_z_infinity,
    ratfun_to_str,
    times_roots,
)
from .fracmat import FracMat, SymMatrix
from .report import Report
from .stablebasis import (
    S_inverse,
    S_matrix,
    binom,
    inverse_mismatches,
    sinv_runs,
    stable_runs,
)

Block = tuple[tuple[tuple[int, ...], ...], ...]  # a square of int coefficient tuples


def _entry_summands(k: int, i: int, j_prime: int) -> Iterator[tuple[int, tuple[Run, ...]]]:
    """The closed-form block entry (i, j') as summands (scalar, runs of linear forms)."""
    for j in range(max(i, k - j_prime), k + 1):
        scalar = binom(j, i) * binom(j_prime, k - j)
        if scalar:
            yield scalar, (
                (0, 1, i, j - 1, 1),
                (1, 1, 0, k - j - 1, 1),
                (1, 0, k + 1 - j - i, k - j, 1),
                (0, 1, k - j, j_prime - 1, 1),
                (-1, 1, 0, j - 1, -1),
                (-1, 0, 2 * j - k + 1, j, -1),
                (1, 0, k - 2 * j + 1, j_prime - j, -1),
            )


def rblock_closed(k: int) -> SymMatrix:
    """The sector-k block from the closed-form single sum, built on each call.

    Entry (i, j') is the factored (S^-1 J S(-z))_(i, j'): ``factored_sum`` of
    its ``_entry_summands``.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")

    def entry(i: int, jp: int) -> RatFun:
        return factored_sum(factored_runs(s, runs) for s, runs in _entry_summands(k, i, jp))

    return SymMatrix([[entry(i, jp) for jp in range(k + 1)] for i in range(k + 1)])


def rblock_triangular(k: int) -> SymMatrix:
    """The triangular product S^-1 * J * S(-z) (J the index reversal), formed on each call."""
    return S_inverse(k).mul(SymMatrix(S_matrix(k).flip_z().entries[::-1]))


def summand_mismatches(k: int) -> tuple[tuple[int, int], ...]:
    """The entries (i, j') of sector k whose closed-form summands are not those of S^-1 J S(-z).

    Summand j of entry (i, j') must be the row (s1 * s2, r1 + flip(r2)) of
    (s1, r1) = sinv_runs(k, i, j) and (s2, r2) = stable_runs(k, k-j, j'),
    flip(r2) being r2 with each run's c_z negated, that is r2 at -z: the
    summands of ``_entry_summands``, in order, against those rows with
    s1 * s2 != 0, j ascending.  ``factored_runs`` maps a product of rows to
    the concatenated runs and a flip to the negated c_z, so equal rows are
    equal ``FactoredRat`` terms, which have equal sums; a row written another
    way (a run split in two) fails here and is decided by value.  Decided
    once per k and per the three tables as bound in this module at the call,
    so a verdict is never reused for a replaced one.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return _summand_mismatches(k, _entry_summands, sinv_runs, stable_runs)


@functools.lru_cache(maxsize=None)
def _summand_mismatches(
    k: int, summands: Callable, sinv: Callable, stable: Callable
) -> tuple[tuple[int, int], ...]:
    rows = [[sinv(k, i, j) for j in range(k + 1)] for i in range(k + 1)]
    cols = [[stable(k, k - j, jp) for j in range(k + 1)] for jp in range(k + 1)]
    cols = [[(s, tuple((-c_z, *rest) for c_z, *rest in r)) for s, r in col] for col in cols]
    return tuple(
        (i, jp)
        for i, row in enumerate(rows)
        for jp, col in enumerate(cols)
        if list(summands(k, i, jp))
        != [(s1 * s2, r1 + r2) for (s1, r1), (s2, r2) in zip(row, col) if s1 * s2]
    )


def verify_equal_constructions(k: int) -> Report:
    """Equality of the closed-form block and the triangular product S^-1 J S(-z).

    Equal terms have equal sums, so when the summand premise holds
    (``summand_mismatches``) neither block is built.  Otherwise both are
    formed and compared by value, and the witnesses are the entries that
    differ: summands that differ but sum to the same values pass.
    """
    report = Report("equal_constructions", {"k": k})
    if summand_mismatches(k):
        closed, tri = rblock_closed(k), rblock_triangular(k)
        for i, j in closed.mismatches(tri):
            report.fail(
                i=i,
                j_prime=j,
                closed=ratfun_to_str(closed.entries[i][j]),
                triangular=ratfun_to_str(tri.entries[i][j]),
            )
    return report


# ---------------------------------------------------------------------------
# spin specialization and assembly
# ---------------------------------------------------------------------------


def spin_denominator(ell: int) -> MPoly:
    """D(z) = (z+1)(z+2)...(z+ell), the common denominator of the spin-ell/2 matrix."""
    return z_poly(times_roots([1], range(1, ell + 1)))


def z_poly(coeffs: Sequence[Scalar]) -> MPoly:
    """The polynomial sum_e coeffs[e] z^e."""
    return MPoly({(e, 0, 0): c for e, c in enumerate(coeffs)})


def over_spin_denominator(coeffs: Sequence[Scalar], ell: int) -> RatFun:
    """N/D in lowest terms, for N(z) = sum_e coeffs[e] z^e over D(z) = (z+1)...(z+ell).

    D is squarefree with known roots, so N is divided by each (z+j) at whose
    root -j it vanishes (the remainder of the synthetic division is N(-j)),
    and the other factors make the monic denominator.  Zero comes back as 0/1.
    """
    if not any(coeffs):
        return RatFun.zero()
    num, rest = list(coeffs), []
    for j in range(1, ell + 1):
        quotient, value = divide_root(num, j)
        if value:
            rest.append(j)
        else:
            num = quotient
    return RatFun(z_poly(num), z_poly(times_roots([1], rest)))


@functools.lru_cache(maxsize=None)
def pair_sectors(ell: int) -> tuple[tuple[int, ...], ...]:
    """For each pair weight w = 0..2*ell, the indices a*(ell+1) + b with a + b = w.

    They come in ascending a, which is ascending index; built once per ell.
    """
    d = ell + 1
    return tuple(
        tuple(a * d + w - a for a in range(max(0, w - ell), min(w, ell) + 1))
        for w in range(2 * ell + 1)
    )


def contravariant_form(ell: int) -> list[int]:
    """f(a) = a! ell!/(ell-a)! = <e_a, e_a>, a = 0..ell, the form making E adjoint to F.

    <E e_a, e_(a-1)> = <e_a, F e_(a-1)> reads f(a) = a(ell-a+1) f(a-1), f(0) = 1;
    f is also ell!^2 times the scale of M (x) M (``FullR.mirror_symmetric``).
    """
    return [math.factorial(a) * math.perm(ell, a) for a in range(ell + 1)]


def _spin_summand(
    scalar: int, runs: Sequence[Run], ell: int
) -> tuple[int, dict[int, int]] | None:
    """scalar * prod runs at eps = -ell*phi, phi = 1, as (int, {c: exponent of z + c}).

    A form is the constant m = r - ell*c_eps when c_z = 0, and otherwise, with
    c_z = +-1, c_z * (z + c_z*m).  None when a numerator constant is zero.  The
    denominator runs of ``_entry_summands`` are all +-(z + c), so the constant
    is an int, and a constant run with a negative exponent raises ValueError.
    """
    roots: dict[int, int] = {}
    for c_z, c_eps, lo, hi, exp in runs:
        shift = -ell * c_eps
        if c_z == 0:
            if exp < 0:
                raise ValueError(f"constant run {lo + shift}..{hi + shift} in a denominator")
            value = math.prod(range(lo + shift, hi + shift + 1)) ** exp
            if value == 0:
                return None
            scalar *= value
            continue
        if c_z < 0 and exp * (hi - lo + 1) % 2:
            scalar = -scalar
        for r in range(lo, hi + 1):
            roots[c_z * (r + shift)] = roots.get(c_z * (r + shift), 0) + exp
    return scalar, roots


def specialize_block(k: int, ell: int) -> Block:
    """The coefficients N_0, N_1, ... over D(z) of pair sector k at spin ell/2.

    Rows and columns follow ``pair_sectors(ell)[k]``; the entry from (a, b)
    to (a', b') is closed-form entry (b', b), built on int coefficient lists
    in z: ``_spin_summand`` maps each summand's runs to a constant times
    powers of (z + c), and drops a summand whose numerator gains a zero
    constant.  The summands are put over the lcm of their denominators,
    multiplied by D(z) = (z+1)...(z+ell) and divided by the lcm one root at a
    time (a root of both cancels first).  That every division is exact
    proves that D clears the entry; ``FullR`` checks that deg <= ell.
    """
    order = range(min(k, ell), max(0, k - ell) - 1, -1)  # b = k - a, a ascending

    def entry(bp: int, b: int) -> tuple[int, ...]:
        summands = [t for s, rs in _entry_summands(k, bp, b) if (t := _spin_summand(s, rs, ell))]
        lcm: dict[int, int] = {}
        for _, roots in summands:
            for c, e in roots.items():
                lcm[c] = max(lcm.get(c, 0), -e)
        acc: list[int] = []
        for scalar, roots in summands:
            power = dict(lcm)  # the numerator times the cofactor, as powers of (z + c)
            for c, e in roots.items():
                power[c] = power.get(c, 0) + e
            poly = times_roots([scalar], [c for c, e in power.items() for _ in range(e)])
            acc = [x + y for x, y in itertools.zip_longest(acc, poly, fillvalue=0)]
        for c in range(1, ell + 1):
            if lcm.get(c):
                lcm[c] -= 1
            else:
                acc = times_roots(acc, (c,))
        for c in [c for c, e in lcm.items() for _ in range(e)]:
            acc, remainder = divide_root(acc, c)
            if remainder:
                raise AssertionError(f"sector {k} entry ({bp}, {b}): z + {c} does not divide D*sum")
        while acc and not acc[-1]:
            acc.pop()
        return tuple(acc)

    return tuple(tuple(entry(bp, b) for b in order) for bp in order)


class FullR:
    """The assembled R-matrix on the tensor square, rational in z alone.

    Entry (i, j) is N(z)/D(z) over D(z) = (z+1)...(z+ell), N held as its int
    coefficients N_0, N_1, ..., trailing zeros trimmed (a zero entry is
    ``()``).  R conserves the weight a + b, so only ``blocks[w]``, the block
    of pair sector w in ``pair_sectors(ell)[w]`` order (``specialize_block``),
    is stored.  As deg N <= ell, the poles are the roots of D.  ``evaluate``
    reads R at a point, for ``at_z``, ``identity_at_zero`` and the YBE.
    ``matrix`` is the ``SymMatrix`` of ``RatFun(N, D)``, ``lowest_terms``
    the reduced one; they and ``at_z`` are the only dense squares.
    ``mirror_symmetric`` and ``swap_symmetric`` are symmetries of the stored
    coefficients that the checks read as premises, each decided on first read.
    Basis: pairs (a, b) with a, b in 0..ell in lexicographic order, the pair
    (a, b) being row/column (ell+1)*a + b and its label.  Construction
    refuses (ValueError) ell < 1, blocks of other shapes and a numerator of
    degree above ell.  Immutable, and compared by identity like ``SymMatrix``.
    """

    def __init__(self, ell: int, blocks: tuple[Block, ...]) -> None:
        if ell < 1:
            raise ValueError(f"need ell >= 1, got {ell}")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "blocks", blocks)
        sectors = pair_sectors(ell)
        if [[len(row) for row in b] for b in blocks] != [[len(s)] * len(s) for s in sectors]:
            raise ValueError(f"blocks must be the {len(sectors)} pair sectors for ell = {ell}")
        for sector, block in zip(sectors, blocks):
            for i, row in zip(sector, block):
                for j, coeffs in zip(sector, row):
                    if len(coeffs) > ell + 1:
                        raise ValueError(f"entry ({i}, {j}): degree above ell = {ell}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FullR is immutable: cannot set {name}")

    @property
    def dim(self) -> int:
        return (self.ell + 1) ** 2

    @property
    def labels(self) -> list[tuple[int, int]]:
        return list(itertools.product(range(self.ell + 1), repeat=2))

    @functools.cached_property
    def identity_at_zero(self) -> bool:
        """Whether R(0) = Id, that is ``evaluate(0)`` is D(0) Id; decided once per object."""
        blocks, den = self.evaluate(Fraction(0))
        return all(
            x == den * (r == c) for b in blocks for r, row in enumerate(b) for c, x in enumerate(row)
        )

    @functools.cached_property
    def swap_symmetric(self) -> bool:
        """Whether P N_e P = N_e for every power e, P swapping the two factors.

        P maps (a, b) to (b, a), which reverses each pair sector, so entrywise
        that is blocks[w][~r][~c] == blocks[w][r][c].  Decided on first read,
        never on construction.  Why the YBE grid may then read only its
        points with u <= v: the swap argument of the module docstring.
        """
        return all(
            block[~r][~c] == coeffs
            for block in self.blocks
            for r, row in enumerate(block)
            for c, coeffs in enumerate(row)
        )

    @functools.cached_property
    def mirror_symmetric(self) -> bool:
        """Whether M (x) M commutes with R(z), for M: e_a -> a!/(ell-a)! e_(ell-a).

        Entrywise that is N[m(i)][m(j)] T(j) == N[i][j] T(i) coefficient by
        coefficient, with m(i) the index of (ell-a, ell-b) for i = (a, b), and
        T(a, b) = f(a) f(b) with f = ``contravariant_form`` (the scale of
        M (x) M at (a, b) times ell!^2, so every factor is an int).  m maps
        sector w onto 2*ell - w reversed, position r to position ~r, and of
        each mirror pair of sectors one is read, since the identity for (i, j)
        is that for (m(i), m(j)).  Decided on first read, never on construction.
        Why it halves unitarity and the YBE: the mirror argument of the module
        docstring.
        """
        ell, blocks, f = self.ell, self.blocks, contravariant_form(self.ell)
        t = [f[a] * f[b] for a, b in self.labels]
        return all(
            [x * t[j] for x in blocks[2 * ell - w][~r][~c]] == [x * t[i] for x in blocks[w][r][c]]
            for w, sector in enumerate(pair_sectors(ell)[: ell + 1])
            for r, i in enumerate(sector)
            for c, j in enumerate(sector)
        )

    def _dense(self, blocks: Sequence, entry: Callable, zero: object) -> list[list]:
        """The dense square of entry(x) on the sector blocks, ``zero`` between different weights."""
        dense = [[zero] * self.dim for _ in range(self.dim)]
        for sector, block in zip(pair_sectors(self.ell), blocks):
            for i, row in zip(sector, block):
                for j, x in zip(sector, row):
                    dense[i][j] = entry(x)
        return dense

    @functools.cached_property
    def matrix(self) -> SymMatrix:
        """The entries as ``RatFun(N, D)``, all over one shared D; read-only."""
        den = spin_denominator(self.ell)
        dense = self._dense(self.blocks, lambda c: RatFun(z_poly(c), den), RatFun(MPoly(), den))
        return SymMatrix(dense)

    def evaluate(self, value: Fraction) -> tuple[tuple[list[list[int]], ...], int]:
        """(the pair-sector blocks of q^ell * N(p/q) as ints, and q^ell * D(p/q)) at z = p/q.

        An entry is the dot product of its coefficients with the table
        p^e * q^(ell-e), e = 0..ell, which suffices because construction
        refuses a numerator of degree above ell = deg D.  A pole (the int
        D-value is 0) raises PoleSpecializationError naming the vanishing
        factor of D.
        """
        p, q, ell = value.numerator, value.denominator, self.ell
        den = math.prod(p + j * q for j in range(1, ell + 1))
        if den == 0:
            raise PoleSpecializationError(
                f"z = {value} lies on the pole set of the assembled matrix "
                f"(factor (z + {-value}) of D)"
            )
        table = [p**e * q ** (ell - e) for e in range(ell + 1)]
        rows = ([[sum(map(operator.mul, c, table)) for c in row] for row in b] for b in self.blocks)
        return tuple(rows), den

    def at_z(self, value: Fraction) -> FracMat:
        """Exact numeric matrix at a rational z: each entry q^ell N(p/q) / (q^ell D(p/q))."""
        blocks, den = self.evaluate(value)
        return self._dense(blocks, lambda x: Fraction(x, den), Fraction(0))

    def lowest_terms(self) -> SymMatrix:
        """The matrix with each entry reduced to lowest terms (monic denominator)."""
        reduce = functools.partial(over_spin_denominator, ell=self.ell)
        return SymMatrix(self._dense(self.blocks, reduce, reduce(())))


@functools.lru_cache(maxsize=None)
def assemble_full(ell: int) -> FullR:
    """Assemble the spin-ell/2 R-matrix from the sector entries on the spin line.

    ``specialize_block`` gives each entry's numerator coefficients over D(z)
    directly; no generic block is expanded and nothing is substituted.
    """
    return FullR(ell, tuple(specialize_block(k, ell) for k in range(2 * ell + 1)))


# ---------------------------------------------------------------------------
# verifications
# ---------------------------------------------------------------------------


def verify_unitarity_block(k: int) -> Report:
    """R(z) R(-z) == Id symbolically in (z, phi, eps) for the sector-k block.

    Proven by composition (the argument is in the module docstring) from the
    inverse premise (``inverse_mismatches``, on the memoized S and S^-1) and
    the summand premise (``summand_mismatches``), verdicts shared with the
    inverse and constructions cases.  When either fails, ``rblock_closed(k)``
    is built and R(z) R(-z) formed directly, and its entries that differ
    from Id are the witnesses.
    """
    report = Report("unitarity_block", {"k": k})
    if inverse_mismatches(S_inverse(k), S_matrix(k)) or summand_mismatches(k):
        block = rblock_closed(k)
        product = block.mul(block.flip_z())
        for i, j in product.mismatches(SymMatrix.identity(k + 1)):
            report.fail(i=i, j=j, entry=ratfun_to_str(product.entries[i][j]))
    return report


def verify_unitarity_full(full: FullR) -> Report:
    """R(z) R(-z) == Id symbolically in z for ``full``.

    R = N/D over the one denominator D, and R couples only equal total
    weights, so the identity is N(z) N(-z) = D(z) D(-z) Id on each weight
    sector: an identity of int polynomials in z, read from ``FullR.blocks``.
    A witness is the entry of R(z) R(-z) over D(z) D(-z).

    When ``FullR.mirror_symmetric`` holds, sectors w <= ell decide it (the
    mirror argument of the module docstring).  Once a sector fails, every
    sector is checked, so the witnesses do not depend on the premise.
    """
    ell, labels = full.ell, full.labels
    report = Report("unitarity_full", {"ell": ell})
    # D(z) D(-z) = (-1)^ell prod_{j=1..ell} (z + j)(z - j)
    target = times_roots([(-1) ** ell], [*range(1, ell + 1), *range(-ell, 0)])
    bad: dict[tuple[int, int], RatFun] = {}
    for w, (sector, block) in enumerate(zip(pair_sectors(ell), full.blocks)):
        if w > ell and not bad and full.mirror_symmetric:
            break
        for i, row in zip(sector, block):
            for c, j in enumerate(sector):
                acc = [0] * (2 * ell + 1)
                for left, right in zip(row, block):
                    for e, x in enumerate(left):
                        for f, y in enumerate(right[c]):
                            acc[e + f] += -x * y if f % 2 else x * y
                if acc != (target if i == j else [0] * len(acc)):
                    bad[i, j] = RatFun(z_poly(acc), z_poly(target)) if any(acc) else RatFun.zero()
    for i, j in sorted(bad):
        report.fail(row=labels[i], col=labels[j], entry=ratfun_to_str(bad[i, j]))
    return report


def verify_identity_at_zero(full: FullR) -> Report:
    """R(0) == Id for ``full``: N_0 == ell! Id (``FullR.identity_at_zero``)."""
    report = Report("identity_at_zero", {"ell": full.ell})
    if not full.identity_at_zero:
        report.fail(reason="R(0) is not the identity")
    return report


@functools.lru_cache(maxsize=None)
def _ybe_layout(ell: int) -> tuple[tuple[list[int], list, list], ...]:
    """Per total weight W of the triple tensor power, its indices and pair-operator blocks.

    For each W: the global indices of sector W in ascending order, then the
    blocks of an embedded pair operator on slots 12 and on slots 23, each as
    (pair weight w, local positions).  A block's positions follow
    ``pair_sectors(ell)[w]``, and they ascend, since the global index grows
    with the first digit of the pair.
    """
    d = ell + 1
    sectors = pair_sectors(ell)
    layout = []
    for weight in range(3 * ell + 1):
        indices = [i for i in range(d**3) if i // (d * d) + i // d % d + i % d == weight]
        local = {i: n for n, i in enumerate(indices)}
        slot12, slot23 = [], []
        for spectator in range(max(0, weight - 2 * ell), min(weight, ell) + 1):
            w = weight - spectator
            slot12.append((w, [local[pair * d + spectator] for pair in sectors[w]]))
            slot23.append((w, [local[spectator * d * d + pair] for pair in sectors[w]]))
        layout.append((indices, slot12, slot23))
    return tuple(layout)


def _apply(blocks: list, pair_blocks: list[list[list[int]]], rows: list[int]) -> list[int]:
    """The embedded pair operator times the matrix whose packed rows are given.

    Each row of the product is a combination of at most ell+1 packed rows
    with small int coefficients, one block row of R.
    """
    out = [0] * len(rows)
    for w, positions in blocks:
        sources = [rows[p] for p in positions]
        for p, coeffs in zip(positions, pair_blocks[w]):
            out[p] = sum(map(operator.mul, coeffs, sources))
    return out


def _sides(
    slot12: list, slot23: list, r12: list, r13: list, r23: list, left: list[int], right: list[int]
) -> tuple[list[int], list[int]]:
    """The packed rows of B12(r23) B23(r13) B12(r12) and B23(r12) B12(r13) B23(r23) on a sector.

    ``left`` and ``right`` are the first products, B12(r12) and B23(r23)
    applied to the unit rows, which the caller forms: each depends on one
    difference only.
    """
    return (
        _apply(slot12, r23, _apply(slot23, r13, left)),
        _apply(slot23, r12, _apply(slot12, r13, right)),
    )


def _balanced_digits(x: int, s: int, n: int) -> list[int]:
    """The n digits of x = sum_q x_q 2^(s*q) with every x_q in [-2^(s-1), 2^(s-1))."""
    half, mask, out = 1 << (s - 1), (1 << s) - 1, []
    for _ in range(n):
        digit = x & mask
        if digit >= half:
            digit -= 1 << s
        out.append(digit)
        x = (x - digit) >> s
    return out


def verify_ybe(full: FullR, z1: Fraction, z2: Fraction, z3: Fraction) -> Report:
    """Exact Yang-Baxter check at one rational triple, on integer matrices.

    R(z1-z2), R(z1-z3) and R(z2-z3) are taken as the integer blocks
    q^ell * N(p/q) of ``FullR.evaluate``, with integer scales d12, d13, d23
    (the values q^ell * D(p/q)).  Each side is a product of one of each, so
    both sides carry the same factor d12*d13*d23 and agree exactly when the
    integer products agree.  A witness is divided back by that factor, so it
    reports the rational entry.

    The operators conserve total weight (``FullR`` stores only the pair
    sectors), so both sides are formed per total-weight sector W of the
    triple tensor power, in which each embedded pair operator is
    block-diagonal with pair-weight blocks of R.  Each row of a sector matrix
    is held as one int, sum_q x_q 2^(s*q), starting from the unit rows
    2^(s*q); applying an operator combines packed rows, and packing is
    linear, so a side's packed row is exact whatever the size of the
    intermediate entries.  The bound is measured on the evaluated blocks: a
    row of an embedded operator has at most ell+1 nonzero entries, so an
    entry of a side is a sum of at most (ell+1)^2 products of one entry of
    each operator, and it is at most B = (ell+1)^2 times the product of the
    three largest absolute entries.  With s = B.bit_length() + 1 every digit
    lies in (-2^(s-1), 2^(s-1)), where balanced base-2^s digits are unique,
    so two packed rows are equal exactly when all their entries are.

    When ``FullR.mirror_symmetric`` holds, sectors W <= 3*ell // 2 decide
    the relation (the mirror argument of the module docstring).  Once a
    sector fails, every sector is checked, so the witnesses do not depend on
    the premise.
    """
    return _ybe_at(full, (z1, z2, z3), [_evaluated(full, dz) for dz in (z1 - z2, z1 - z3, z2 - z3)])


def _evaluated(full: FullR, dz: Fraction) -> tuple[tuple[list[list[int]], ...], int, int]:
    """``full.evaluate(dz)`` and the largest absolute entry of its blocks."""
    blocks, den = full.evaluate(dz)
    return blocks, den, max(abs(x) for block in blocks for row in block for x in row)


def _ybe_at(full: FullR, zs: Sequence[Fraction], ops: Sequence[tuple]) -> Report:
    """``verify_ybe`` at zs, given ``_evaluated`` at z1 - z2, z1 - z3 and z2 - z3."""
    report = Report("ybe", {"ell": full.ell, "z": [str(z) for z in zs]})
    ell = full.ell
    (r12, d12, m12), (r13, d13, m13), (r23, d23, m23) = ops
    scale, bound = d12 * d13 * d23, (ell + 1) ** 2 * m12 * m13 * m23
    s = bound.bit_length() + 1
    for weight, (indices, slot12, slot23) in enumerate(_ybe_layout(ell)):
        if weight > 3 * ell // 2 and report.passed and full.mirror_symmetric:
            break
        n = len(indices)
        unit = [1 << (s * q) for q in range(n)]
        first = _apply(slot12, r12, unit), _apply(slot23, r23, unit)
        lhs, rhs = _sides(slot12, slot23, r12, r13, r23, *first)
        for r, (x, y) in enumerate(zip(lhs, rhs)):
            if x == y:
                continue
            for c, (u, v) in enumerate(zip(_balanced_digits(x, s, n), _balanced_digits(y, s, n))):
                if u != v:
                    report.fail(
                        row=indices[r],
                        col=indices[c],
                        lhs=str(Fraction(u, scale)),
                        rhs=str(Fraction(v, scale)),
                    )
    return report


def sample_spectral_triples(
    ell: int, trials: int, seed: int
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Seeded rational triples whose pairwise differences avoid the pole set.

    Numerators are drawn from [-50, 50], denominators from [1, 20]; a draw is
    rejected when any pairwise difference hits a pole -1..-ell of the
    assembled matrix.
    """
    poles = {Fraction(-j) for j in range(1, ell + 1)}
    rng = random.Random(seed)
    out: list[tuple[Fraction, Fraction, Fraction]] = []
    while len(out) < trials:
        zs = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(3))
        diffs = (zs[0] - zs[1], zs[0] - zs[2], zs[1] - zs[2])
        if any(dz in poles for dz in diffs):
            continue
        out.append(zs)
    return out


def _corner_holds(full: FullR, evaluated: Callable) -> bool:
    """Whether both sides agree at the grid triples (u+v, v, 0) with u <= v and u + v <= 3*ell.

    One pass: the differences 1..3*ell are read through ``evaluated``, and
    one digit width s serves every point, from B = (ell+1)^2 m(u) m(u+v) m(v)
    (m the largest absolute entry) at the point where it is largest, so
    every digit of every point lies in (-2^(s-1), 2^(s-1)) as in
    ``verify_ybe``.  The unit rows are then the same at every point, so per
    sector the first product B12(N(u)) is formed once per u and B23(N(v))
    once per v.  When ``FullR.mirror_symmetric`` holds, sectors
    W <= 3*ell // 2 are read.  Stops at the first point that differs.
    """
    ell = full.ell
    corner = [(u, range(u, min(2 * ell, 3 * ell - u) + 1)) for u in range(1, 3 * ell // 2 + 1)]
    ops = {d: evaluated(Fraction(d)) for d in range(1, 3 * ell + 1)}
    bound = max(ops[u][2] * ops[u + v][2] * ops[v][2] for u, vs in corner for v in vs)
    s = ((ell + 1) ** 2 * bound).bit_length() + 1
    n = {d: blocks for d, (blocks, _, _) in ops.items()}
    for weight, (indices, slot12, slot23) in enumerate(_ybe_layout(ell)):
        if weight > 3 * ell // 2 and full.mirror_symmetric:
            break
        unit = [1 << (s * q) for q in range(len(indices))]
        right = {v: _apply(slot23, n[v], unit) for v in range(1, 2 * ell + 1)}
        for u, vs in corner:
            left = _apply(slot12, n[u], unit)
            for v in vs:
                lhs, rhs = _sides(slot12, slot23, n[u], n[u + v], n[v], left, right[v])
                if lhs != rhs:
                    return False
    return True


def ybe_trials(full: FullR, trials: int, seed: int) -> Report:
    """Yang-Baxter for ``full`` at ``trials`` seeded rational triples, or by proof on a grid.

    When trials >= (2*ell)^2 and N_0 = ell! Id, the grid triples
    (u+v, v, 0), u and v in 1..2*ell, decide the equation for every triple
    off the poles (the grid argument of the module docstring).  When
    ``FullR.swap_symmetric`` holds too, ``_corner_holds`` decides it first
    on the corner u <= v, u + v <= 3*ell of the grid (the swap and corner
    arguments), and a pass there is the verdict.  Otherwise, or when that
    pass fails, the triples are all grid triples, v fastest; below
    (2*ell)^2 trials, or without N_0 = ell! Id, they are
    ``sample_spectral_triples``.  Each failing triple is one witness
    {"z", "first"}, with the first ``verify_ybe`` witness there.  Every
    triple is decided by ``_ybe_at``, the body of ``verify_ybe``, on the
    differences z1 - z2, z1 - z3 and z2 - z3 evaluated with their largest
    absolute entries (``_evaluated``) through a cache of the last 4*ell
    values, which the corner pass reads too: the grid's differences are the
    4*ell integers 1..4*ell, so each is evaluated once per call, and a
    sample holds at most 4*ell at a time.
    """
    ell = full.ell
    report = Report("ybe_trials", {"ell": ell, "trials": trials, "seed": seed})
    evaluated = functools.lru_cache(maxsize=4 * ell)(functools.partial(_evaluated, full))
    n = range(1, 2 * ell + 1)
    if trials >= (2 * ell) ** 2 and full.identity_at_zero:
        if full.swap_symmetric and _corner_holds(full, evaluated):
            return report
        triples = [(Fraction(u + v), Fraction(v), Fraction(0)) for u in n for v in n]
    else:
        triples = sample_spectral_triples(ell, trials, seed)
    for zs in triples:
        z1, z2, z3 = zs
        sub = _ybe_at(full, zs, [evaluated(dz) for dz in (z1 - z2, z1 - z3, z2 - z3)])
        if not sub.passed:
            report.fail(z=[str(z) for z in zs], first=sub.failures[0])
    return report


def verify_block_limit(k: int) -> Report:
    """Every block entry stays bounded as z -> infinity (degree check).

    The limit matrix is the signed index reversal (-1)^k P: at the other end
    of the spectral line the operator degenerates to the sector's permutation,
    with the sign alternating between sectors.  (The identity sits at z = 0.)
    """
    report = Report("block_limit_at_infinity", {"k": k})
    block = rblock_closed(k)
    sign = -1 if k % 2 else 1
    for i in range(k + 1):
        for j in range(k + 1):
            limit = limit_at_z_infinity(block.entries[i][j])
            expected = sign if i == k - j else 0
            if limit is None or not limit.value_eq(expected):
                report.fail(
                    i=i,
                    j_prime=j,
                    expected=expected,
                    limit="divergent" if limit is None else ratfun_to_str(limit),
                )
    return report
