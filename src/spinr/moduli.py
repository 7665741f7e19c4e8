"""Combinatorial data of the varieties: fixed points, dimensions, patch weights.

Torus-fixed points are labelled by integer sequences (k_1, ..., k_n) with
0 <= k_i <= ell and sum k_i = k.  At n = 2 the point with k_2 = j is referred
to everywhere by the index j, and all matrices in the stable-basis and
R-matrix modules are indexed that way.

``patch_weights`` tabulates, for each of the three families of local patches
(the projective core P, the closed attracting sets, and the stable
subschemes), the torus weights of the patch coordinates and of its defining
equations; the patches are complete intersections, so the localization
coefficient is the ratio of the two weight products.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .exactalg import ExactAlgError, FactoredRat, LinForm


class DomainError(ValueError):
    """Raised when arguments leave the defined parameter domain."""


class DegeneratePatchError(ExactAlgError):
    """Raised when a patch has a variable of weight zero."""


class FixedPoint(NamedTuple("FixedPoint", [("seq", tuple[int, ...]), ("ell", int)])):
    """A torus-fixed point, labelled by Jordan block sizes along the chain."""

    __slots__ = ()

    def __new__(cls, seq: tuple[int, ...], ell: int) -> FixedPoint:
        if ell < 1:
            raise DomainError(f"ell must be >= 1, got {ell}")
        if not all(0 <= s <= ell for s in seq):
            raise DomainError(f"entries of {seq} must lie in 0..{ell}")
        return super().__new__(cls, seq, ell)

    def to_json(self) -> list[int]:
        return list(self.seq)

    def __str__(self) -> str:
        return "p_{" + ",".join(map(str, self.seq)) + "}"


def fixed_points(k: int, n: int, ell: int) -> list[FixedPoint]:
    """All fixed points for given (k, n, ell), first coordinate decreasing.

    At n = 2 this lists p_{k,0}, p_{k-1,1}, ..., i.e. index j = k_2 increasing.
    Empty when k > n*ell.
    """
    if k < 0 or n < 1 or ell < 1:
        raise DomainError(f"need k >= 0, n >= 1, ell >= 1, got ({k}, {n}, {ell})")
    out: list[FixedPoint] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(FixedPoint(prefix, ell))
            return
        lo = max(0, remaining - (slots - 1) * ell)
        hi = min(ell, remaining)
        for v in range(hi, lo - 1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), k, n)
    return out


def weight_space_dim(k: int, n: int, ell: int) -> int:
    """Coefficient of q^k in (1 + q + ... + q^ell)^n."""
    if k < 0 or n < 1 or ell < 1:
        raise DomainError(f"need k >= 0, n >= 1, ell >= 1, got ({k}, {n}, {ell})")
    coeffs = [1]
    block = [1] * (ell + 1)
    for _ in range(n):
        out = [0] * (len(coeffs) + ell)
        for i, c in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += c * b
        coeffs = out
    return coeffs[k] if k < len(coeffs) else 0


def dim_M1(k: int, n: int, ell: int) -> int:
    """Dimension 2(kn - ell*q^2 - r(2q+1)) where k = q*ell + r, 0 <= r < ell.

    Defined only when the stable set is nonempty, i.e. the number of Jordan
    blocks q + (1 if r > 0) does not exceed n.
    """
    if k < 0 or n < 1 or ell < 1:
        raise DomainError(f"need k >= 0, n >= 1, ell >= 1, got ({k}, {n}, {ell})")
    q, r = divmod(k, ell)
    blocks = q + (1 if r else 0)
    if blocks > n:
        raise DomainError(f"empty stable set: {blocks} Jordan blocks exceed n = {n}")
    return 2 * (k * n - ell * q * q - r * (2 * q + 1))


class WeightedVar(NamedTuple):
    """A patch coordinate: its torus weight plus the coordinate it names."""

    form: LinForm
    tag: str


class WeightTable(NamedTuple):
    """Variable and equation weights of one complete-intersection patch."""

    variables: tuple[WeightedVar, ...]
    equations: tuple[LinForm, ...]


Variant = Literal["P", "Zbar", "Stab"]


def patch_weights(k: int, j: int, j_prime: int, variant: Variant) -> WeightTable:
    """Weight table of the patch around fixed point j (n = 2).

    variant "P": the projective core; j_prime is ignored.
    variant "Zbar": the closed attracting set of fixed point j_prime.
    variant "Stab": the stable subscheme attached to fixed point j_prime.
    """
    if variant == "P":
        if not 0 <= j <= k:
            raise DomainError(f"need 0 <= j <= k, got j={j}, k={k}")
        j_prime = k  # x-variable ranges of the core match j' = k
    elif variant in ("Zbar", "Stab"):
        if not 0 <= j <= j_prime <= k:
            raise DomainError(f"need 0 <= j <= j' <= k, got j={j}, j'={j_prime}, k={k}")
    else:
        raise DomainError(f"unknown patch variant {variant!r}")

    variables: list[WeightedVar] = []
    for i in range(k - j_prime, k - j):
        variables.append(
            WeightedVar(LinForm(0, k - j - i, 0), f"x[({k - j},1)+s-({i},1)]/x[s]")
        )
    for i in range(0, j):
        variables.append(
            WeightedVar(LinForm(1, k - j - i, 0), f"x[({k - j},1)+s-({i},2)]/x[s]")
        )
    for i in range(k - j_prime, k - j):
        variables.append(
            WeightedVar(LinForm(-1, j - i, 0), f"x[({j},2)+s-({i},1)]/x[s]")
        )
    for i in range(0, j):
        variables.append(
            WeightedVar(LinForm(0, j - i, 0), f"x[({j},2)+s-({i},2)]/x[s]")
        )

    if variant == "P":
        equations = tuple(LinForm(0, i, 0) for i in range(1, k + 1))
        return WeightTable(tuple(variables), equations)

    u_top = (k - j_prime) if variant == "Zbar" else (k - j)
    for i in range(0, u_top):
        variables.append(WeightedVar(LinForm(1, i, 1), f"u[{i},1,2]"))

    equations = [LinForm(0, i, 0) for i in range(1, j_prime + 1)]
    if variant == "Stab":
        equations += [LinForm(0, i, 1) for i in range(j, j_prime)]
    return WeightTable(tuple(variables), tuple(equations))


def complete_intersection_coeff(table: WeightTable) -> FactoredRat:
    """Localization coefficient of a complete-intersection patch.

    The product of the equation weights divided by the product of the variable
    weights.  A zero variable weight means the patch is degenerate.
    """
    pairs: list[tuple[LinForm, int]] = []
    for v in table.variables:
        if v.form.is_zero:
            raise DegeneratePatchError(f"variable {v.tag} has zero weight")
        pairs.append((v.form, -1))
    for e in table.equations:
        if e.is_zero:
            raise DegeneratePatchError("equation with zero weight")
        pairs.append((e, 1))
    return FactoredRat(1, pairs)


def duality_involution(p: FixedPoint) -> FixedPoint:
    """Complement map (k_1, ..., k_n) -> (ell - k_1, ..., ell - k_n).

    An involution between the fixed-point sets at k and n*ell - k; exposed as a
    combinatorial check only.
    """
    return FixedPoint(tuple(p.ell - s for s in p.seq), p.ell)
