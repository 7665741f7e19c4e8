"""Dense exact linear algebra over the rationals: the small-matrix toolkit.

Matrices are plain lists of lists whose entries are ``int`` or ``Fraction``
(an integer matrix stays integer under ``mat_mul``, ``mat_add`` and
``mat_sub``).  Everything here is exact; sizes stay small (at most a few dozen
rows), so naive algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction

FracMat = list[list[int | Fraction]]


def zeros(rows: int, cols: int) -> FracMat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> FracMat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


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


def mat_add(a: FracMat, b: FracMat) -> FracMat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: FracMat, b: FracMat) -> FracMat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: FracMat, c: Fraction) -> FracMat:
    return [[x * c for x in row] for row in a]


def kron(a: FracMat, b: FracMat) -> FracMat:
    na, nb = len(a), len(b)
    ma, mb = len(a[0]), len(b[0])
    out = zeros(na * nb, ma * mb)
    for i in range(na):
        for j in range(ma):
            c = a[i][j]
            if not c:
                continue
            for p in range(nb):
                for q in range(mb):
                    if b[p][q]:
                        out[i * nb + p][j * mb + q] = c * b[p][q]
    return out


def is_zero_mat(a: FracMat) -> bool:
    return all(not x for row in a for x in row)


def rank(a: FracMat) -> int:
    """Rank over the rationals by Gaussian elimination."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r
