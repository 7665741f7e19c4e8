"""Dense exact matrices: the one matrix module of spinr.

Two kinds of matrix live here.

* ``FracMat`` -- a plain list of lists whose entries are ``int`` or
  ``Fraction``: numeric values such as R(z) at a rational point, the sl2
  blocks between weight sectors and the Casimir projectors.  ``mat_mul``
  multiplies two of them, and an integer product stays integer; no src
  check calls it (the tests' dense reference routes do).  No Kronecker
  product is formed: every tensor-power operator of spinr acts block by
  block on weight sectors.
* ``SymMatrix`` -- a matrix of rational functions in (z, phi, eps): the
  stable-basis change S, the sector blocks and the assembled R(z).  It has
  no basis labels; ``to_json`` takes them (``FullR.labels`` for R(z)).  Its
  ``mismatches`` is the one entrywise comparison every symbolic check uses,
  and ``mul`` sums each entry over one factored denominator
  (``exactalg.ratfun_dot``).

Everything here is exact; sizes stay small (at most a few dozen rows), so
naive algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactalg import RatFun, ratfun_dot, ratfun_to_latex, ratfun_to_str

FracMat = list[list[int | Fraction]]


def mat_mul(a: FracMat, b: FracMat) -> FracMat:
    """The product a*b; accumulators start at int 0, so int inputs give an int result."""
    n, m = len(a), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        oi = out[i]
        for c, bk in zip(a[i], b):
            if not c:
                continue
            for j, x in enumerate(bk):
                if x:
                    oi[j] += c * x
    return out


class SymMatrix:
    """Dense rectangular matrix of rational functions, rows and columns numbered from 0.

    ``==`` and ``hash`` are those of ``object``, by identity: values are
    compared with ``mismatches``, and the memoized verdict
    ``stablebasis.inverse_mismatches`` is keyed on the matrix objects.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[RatFun]]):
        self.entries: tuple[tuple[RatFun, ...], ...] = tuple(tuple(row) for row in entries)
        cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != cols for row in self.entries):
            raise ValueError("ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> SymMatrix:
        grid = [
            [RatFun.one() if i == j else RatFun.zero() for j in range(n)] for i in range(n)
        ]
        return cls(grid)

    def flip_z(self) -> SymMatrix:
        return SymMatrix([[e.flip_z() for e in row] for row in self.entries])

    def mul(self, other: SymMatrix) -> SymMatrix:
        """The product self*other; each entry is one ``exactalg.ratfun_dot``."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        columns = list(zip(*other.entries))
        out = [[ratfun_dot(row, col) for col in columns] for row in self.entries]
        return SymMatrix(out)

    def mismatches(self, other: SymMatrix) -> list[tuple[int, int]]:
        """The positions (i, j), row by row, where the entries differ in value."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix comparison")
        return [
            (i, j)
            for i in range(self.rows)
            for j in range(self.cols)
            if not self.entries[i][j].value_eq(other.entries[i][j])
        ]

    def to_json(self, labels: Sequence[object] | None = None) -> dict:
        """The matrix as JSON, its rows and columns labelled by labels (default 0, 1, ...)."""
        return {
            "shape": [self.rows, self.cols],
            "row_labels": [str(l) for l in labels or range(self.rows)],
            "col_labels": [str(l) for l in labels or range(self.cols)],
            "entries": [[ratfun_to_str(e) for e in row] for row in self.entries],
        }

    def to_latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(ratfun_to_latex(e) for e in row) for row in self.entries
        )
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"

    def __repr__(self) -> str:
        return f"SymMatrix({self.rows}x{self.cols})"
