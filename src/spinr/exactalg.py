"""Exact arithmetic kernel: sparse polynomials and rational functions in z, phi, eps.

Everything is computed over arbitrary-precision rationals; there is no floating
point anywhere.  A polynomial coefficient is a Python ``int`` when it is
integral and a ``fractions.Fraction`` otherwise, never a float: the paper's
blocks are built from integer linear forms, so almost every coefficient is an
integer, and an ``int`` product costs no gcd and no allocation of a Fraction.
``int == Fraction`` compares by value and ``str(Fraction(n)) == str(n)``, so
the representation never shows in output.  The building blocks are:

* ``MPoly``      -- sparse polynomial, a map from exponent triples (e_z, e_phi, e_eps)
                    to nonzero rational coefficients.  The zero polynomial is the
                    empty map.
* ``LinForm``    -- integer linear form c_z*z + c_phi*phi + c_eps*eps.  All
                    equivariant weights have this shape.
* ``FactoredRat``-- scalar times a product of linear forms with integer exponents.
                    This is the construction-side representation: every localization
                    coefficient is born factored.
* ``RatFun``     -- quotient num/den of two polynomials.  No reduction to lowest
                    terms is ever performed; ``==`` is value equality, decided
                    by cross multiplication.  When the denominator's
                    factorization into linear forms is known it is cached,
                    which keeps degrees small when summing many terms over a
                    common denominator.

Substitution acts on polynomials only (``MPoly.substitute``); there is no
general specialization of rational functions.  Linear factors (z - c) at known
candidate roots are stripped by trial division (``residue_at``,
``cancel_common_z_roots``), and spin specialization lives in
``rmatrix.specialize_block``.

Monomials are ordered lexicographically on (e_z, e_phi, e_eps); serialization and
iteration always follow that order, so output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

Rational = Fraction

VARS = ("z", "phi", "eps")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Monomial = tuple[int, int, int]
_ZERO_MONO: Monomial = (0, 0, 0)

Scalar = Union[int, Fraction]


def _coeff(c: Scalar) -> Scalar:
    """The canonical coefficient for c: its int value when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class ExactAlgError(Exception):
    """Base class for failures of the exact-arithmetic kernel."""


class ExactDivisionError(ExactAlgError):
    """Raised when a polynomial division is not exact."""


class PoleSpecializationError(ExactAlgError):
    """Raised when a denominator vanishes at an evaluation point."""


class UnsupportedPoleOrderError(ExactAlgError):
    """Raised when a residue is requested at a pole of order two or more."""


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class MPoly:
    """Sparse polynomial in z, phi, eps with exact rational coefficients.

    A coefficient is an ``int`` when it is integral and a ``Fraction``
    otherwise.  Every entry point where a non-integral value can come in
    (construction, ``scale``, the quotient in ``mpoly_exact_div``) normalizes
    it with ``_coeff``; ``+``, ``-``, ``*`` and ``flip_z`` keep int
    coefficients int on their own, and ``+`` and ``*`` turn a Fraction result
    that comes out integral back into an int.

    Immutable by convention: the internal term map is never mutated after
    construction, so values can be shared freely (including across processes).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _coeff(coeff)
                if c:
                    cleaned[mono] = c
        self._terms = cleaned

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def one(cls) -> MPoly:
        return cls({_ZERO_MONO: 1})

    @classmethod
    def const(cls, c: Scalar) -> MPoly:
        return cls({_ZERO_MONO: c})

    @classmethod
    def var(cls, name: str) -> MPoly:
        exps = [0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Scalar = 1) -> MPoly:
        return cls({mono: coeff})

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        return self._terms

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == MPoly.const(other)._terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        i = _VAR_INDEX[name]
        return max(m[i] for m in self._terms)

    def leading_in_z(self) -> tuple[int, MPoly]:
        """(d, c) with c the coefficient of z**d, d the z-degree.  Zero poly gives (-1, 0)."""
        d = self.degree_in("z")
        if d < 0:
            return -1, MPoly.zero()
        coeff = {
            (0, m[1], m[2]): c for m, c in self._terms.items() if m[0] == d
        }
        return d, MPoly(coeff)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: MPoly) -> MPoly:
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s if type(s) is int else _coeff(s)
            else:
                out.pop(mono, None)
        res = MPoly.__new__(MPoly)
        res._terms = out
        return res

    def __neg__(self) -> MPoly:
        res = MPoly.__new__(MPoly)
        res._terms = {m: -c for m, c in self._terms.items()}
        return res

    def __sub__(self, other: MPoly) -> MPoly:
        return self + (-other)

    def __mul__(self, other: MPoly) -> MPoly:
        if not self._terms or not other._terms:
            return MPoly.zero()
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Scalar] = {}
        for (x1, y1, w1), c1 in a.items():
            for (x2, y2, w2), c2 in b.items():
                mono = (x1 + x2, y1 + y2, w1 + w2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        for mono, c in out.items():
            if type(c) is not int:
                out[mono] = _coeff(c)
        res = MPoly.__new__(MPoly)
        res._terms = out
        return res

    def scale(self, c: Scalar) -> MPoly:
        c = _coeff(c)
        if not c:
            return MPoly.zero()
        res = MPoly.__new__(MPoly)
        res._terms = {m: _coeff(v * c) for m, v in self._terms.items()}
        return res

    def __pow__(self, n: int) -> MPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def flip_z(self) -> MPoly:
        """Substitute z -> -z."""
        res = MPoly.__new__(MPoly)
        res._terms = {m: (-c if m[0] % 2 else c) for m, c in self._terms.items()}
        return res

    # -- substitution ---------------------------------------------------------

    def substitute(self, bindings: Mapping[str, MPoly]) -> MPoly:
        """Simultaneous substitution of polynomials for variables."""
        if not self._terms:
            return MPoly.zero()
        values = [bindings.get(name, MPoly.var(name)) for name in VARS]
        powers: list[list[MPoly]] = []
        for i, val in enumerate(values):
            top = max(m[i] for m in self._terms)
            cache = [MPoly.one()]
            for _ in range(top):
                cache.append(cache[-1] * val)
            powers.append(cache)
        out = MPoly.zero()
        for mono, coeff in self._terms.items():
            term = MPoly.const(coeff)
            for i, e in enumerate(mono):
                if e:
                    term = term * powers[i][e]
            out = out + term
        return out

    def eval_rational(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a fully rational point (every variable present must be bound).

        With x = p/q and top degree D in x, x**e == p**e * q**(D - e) / q**D:
        every term is an integer power product over the common denominator
        q_z**D_z * q_phi**D_phi * q_eps**D_eps, and one Fraction is built at
        the end.
        """
        if not self._terms:
            return Fraction(0)
        den = 1
        tables = []
        for i, name in enumerate(VARS):
            top = max(m[i] for m in self._terms)
            if name in point:
                val = Fraction(point[name])
                p, q = val.numerator, val.denominator
            elif top:
                raise ExactAlgError(f"variable {name} unbound in rational evaluation")
            else:
                p, q = 0, 1
            p_pows, q_pows = [1], [1]
            for _ in range(top):
                p_pows.append(p_pows[-1] * p)
                q_pows.append(q_pows[-1] * q)
            tables.append([p_pows[e] * q_pows[top - e] for e in range(top + 1)])
            den *= q_pows[top]
        tz, tphi, teps = tables
        total = 0
        for (a, b, c), coeff in self._terms.items():
            total += coeff * tz[a] * tphi[b] * teps[c]
        return Fraction(total, den)

    def as_rational(self) -> Fraction:
        """The value of a constant polynomial, always as a Fraction."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {_ZERO_MONO}:
            raise ExactAlgError("polynomial is not constant")
        return Fraction(self._terms[_ZERO_MONO])

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        return mpoly_to_str(self)

    def __repr__(self) -> str:
        return f"MPoly({mpoly_to_str(self)})"


def mpoly_exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Quotient q with q*b == a; raises ExactDivisionError when b does not divide a."""
    if b.is_zero:
        raise ExactDivisionError("division by the zero polynomial")
    if a.is_zero:
        return MPoly.zero()
    lead_b = max(b.terms)
    cb = b.terms[lead_b]
    quotient: dict[Monomial, Scalar] = {}
    rest = a
    while not rest.is_zero:
        lead_r = max(rest.terms)
        mono = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(e < 0 for e in mono):
            raise ExactDivisionError("non-exact polynomial division")
        coeff = _coeff(Fraction(rest.terms[lead_r], cb))
        quotient[mono] = coeff  # lex-leading monomials never repeat
        rest = rest - b * MPoly.monomial(mono, coeff)
    return MPoly(quotient)


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------


class LinForm(NamedTuple):
    """The integer linear form c_z*z + c_phi*phi + c_eps*eps."""

    c_z: int
    c_phi: int
    c_eps: int

    @property
    def is_zero(self) -> bool:
        return self.c_z == 0 and self.c_phi == 0 and self.c_eps == 0

    def canonical(self) -> tuple[int, LinForm]:
        """(scale, form) with form primitive and its first nonzero coefficient positive.

        The integer content (including sign) moves into the scale, so that
        e.g. (-z) and (z) share a key, as do (2*phi) and (phi).
        """
        import math as _math

        g = _math.gcd(_math.gcd(abs(self.c_z), abs(self.c_phi)), abs(self.c_eps))
        if g == 0:
            return 1, self
        for c in self:
            if c:
                if c < 0:
                    g = -g
                break
        return g, LinForm(self.c_z // g, self.c_phi // g, self.c_eps // g)

    def to_mpoly(self) -> MPoly:
        terms: dict[Monomial, Scalar] = {}
        if self.c_z:
            terms[(1, 0, 0)] = self.c_z
        if self.c_phi:
            terms[(0, 1, 0)] = self.c_phi
        if self.c_eps:
            terms[(0, 0, 1)] = self.c_eps
        return MPoly(terms)

    def flip_z(self) -> LinForm:
        return LinForm(-self.c_z, self.c_phi, self.c_eps)

    def bind_eps(self, mult: int) -> LinForm:
        """Substitute eps -> mult*phi."""
        return LinForm(self.c_z, self.c_phi + mult * self.c_eps, 0)

    def __str__(self) -> str:
        return mpoly_to_str(self.to_mpoly())


FactorItems = tuple[tuple[LinForm, int], ...]


def _canonical_factor_items(
    scalar: Fraction, pairs: Iterable[tuple[LinForm, int]]
) -> tuple[Fraction, FactorItems]:
    merged: dict[LinForm, int] = {}
    for form, exp in pairs:
        if exp == 0:
            continue
        if form.is_zero:
            raise ExactAlgError("zero linear form used as a factor")
        scale, canon = form.canonical()
        if scale != 1:
            scalar *= Fraction(scale) ** exp
        merged[canon] = merged.get(canon, 0) + exp
    items = tuple(sorted((f, e) for f, e in merged.items() if e))
    return scalar, items


def _expand_factor_product(items: Iterable[tuple[LinForm, int]]) -> MPoly:
    out = MPoly.one()
    for form, exp in items:
        out = out * form.to_mpoly() ** exp
    return out


class FactoredRat:
    """A scalar times a product of canonical linear forms with integer exponents."""

    __slots__ = ("scalar", "factors")

    def __init__(self, scalar: Scalar, pairs: Iterable[tuple[LinForm, int]] = ()):
        s = Fraction(scalar)
        if s == 0:
            self.scalar = Fraction(0)
            self.factors: FactorItems = ()
            return
        self.scalar, self.factors = _canonical_factor_items(s, pairs)

    @classmethod
    def one(cls) -> FactoredRat:
        return cls(1)

    @classmethod
    def zero(cls) -> FactoredRat:
        return cls(0)

    @property
    def is_zero(self) -> bool:
        return self.scalar == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRat):
            return NotImplemented
        return self.scalar == other.scalar and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.scalar, self.factors))

    def __mul__(self, other: FactoredRat) -> FactoredRat:
        if self.is_zero or other.is_zero:
            return FactoredRat.zero()
        out = FactoredRat.__new__(FactoredRat)
        out.scalar, out.factors = _canonical_factor_items(
            self.scalar * other.scalar, (*self.factors, *other.factors)
        )
        return out

    def __neg__(self) -> FactoredRat:
        out = FactoredRat.__new__(FactoredRat)
        out.scalar, out.factors = -self.scalar, self.factors
        return out

    def scale(self, c: Scalar) -> FactoredRat:
        c = Fraction(c)
        if c == 0 or self.is_zero:
            return FactoredRat.zero()
        out = FactoredRat.__new__(FactoredRat)
        out.scalar, out.factors = self.scalar * c, self.factors
        return out

    def inverse(self) -> FactoredRat:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        out = FactoredRat.__new__(FactoredRat)
        out.scalar = 1 / self.scalar
        out.factors = tuple((f, -e) for f, e in self.factors)
        return out

    def flip_z(self) -> FactoredRat:
        return FactoredRat(self.scalar, ((f.flip_z(), e) for f, e in self.factors))

    def den_items(self) -> FactorItems:
        """The denominator part: factors with negative exponent, as positive powers."""
        return tuple((f, -e) for f, e in self.factors if e < 0)

    def num_items(self) -> FactorItems:
        return tuple((f, e) for f, e in self.factors if e > 0)

    def expand(self) -> RatFun:
        """Expand to a RatFun: positive factors and the scalar go to the numerator."""
        if self.is_zero:
            return RatFun.zero()
        num = _expand_factor_product(self.num_items()).scale(self.scalar)
        den_items = self.den_items()
        den = _expand_factor_product(den_items)
        return RatFun(num, den, den_items)

    def __str__(self) -> str:
        parts = [str(self.scalar)]
        parts += [f"({form})^{exp}" for form, exp in self.factors]
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"FactoredRat({self})"


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFun:
    """Quotient of two polynomials; never reduced, compared by cross multiplication.

    ``den_factors`` optionally records the factorization of den into canonical
    linear forms (all exponents positive, product exactly equal to den).  It is
    an internal accelerator for sums over common denominators; the empty tuple
    means den == 1, None means unknown.
    """

    __slots__ = ("num", "den", "den_factors")

    def __init__(self, num: MPoly, den: MPoly | None = None, den_factors: FactorItems | None = None):
        if den is None:
            den = MPoly.one()
            den_factors = ()
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den
        self.den_factors = den_factors

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> RatFun:
        return cls(MPoly.zero())

    @classmethod
    def one(cls) -> RatFun:
        return cls(MPoly.one())

    @classmethod
    def const(cls, c: Scalar) -> RatFun:
        return cls(MPoly.const(c))

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def value_eq(self, other: RatFun | Scalar) -> bool:
        if not isinstance(other, RatFun):
            other = RatFun.const(other)
        return self.num * other.den == other.num * self.den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RatFun, int, Fraction)):
            return self.value_eq(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: RatFun) -> RatFun:
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        if self.den == other.den:
            factors = self.den_factors if self.den_factors is not None else other.den_factors
            return RatFun(self.num + other.num, self.den, factors)
        if self.den_factors is not None and other.den_factors is not None:
            fa, fb = dict(self.den_factors), dict(other.den_factors)
            lcm = {f: max(fa.get(f, 0), fb.get(f, 0)) for f in fa.keys() | fb.keys()}
            cof_a = _expand_factor_product(
                (f, e - fa.get(f, 0)) for f, e in lcm.items() if e > fa.get(f, 0)
            )
            cof_b = _expand_factor_product(
                (f, e - fb.get(f, 0)) for f, e in lcm.items() if e > fb.get(f, 0)
            )
            den = self.den * cof_a
            return RatFun(self.num * cof_a + other.num * cof_b, den, tuple(sorted(lcm.items())))
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den, None)

    def __neg__(self) -> RatFun:
        return RatFun(-self.num, self.den, self.den_factors)

    def __sub__(self, other: RatFun) -> RatFun:
        return self + (-other)

    def __mul__(self, other: RatFun) -> RatFun:
        if self.num.is_zero or other.num.is_zero:
            return RatFun.zero()
        factors: FactorItems | None = None
        if self.den_factors is not None and other.den_factors is not None:
            merged: dict[LinForm, int] = dict(self.den_factors)
            for f, e in other.den_factors:
                merged[f] = merged.get(f, 0) + e
            factors = tuple(sorted(merged.items()))
        return RatFun(self.num * other.num, self.den * other.den, factors)

    def scale(self, c: Scalar) -> RatFun:
        c = Fraction(c)
        if not c:
            return RatFun.zero()
        return RatFun(self.num.scale(c), self.den, self.den_factors)

    def __truediv__(self, other: RatFun) -> RatFun:
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num, None)

    def flip_z(self) -> RatFun:
        factors = None
        num, den = self.num.flip_z(), self.den.flip_z()
        if self.den_factors is not None:
            sign = 1
            flipped = []
            for f, e in self.den_factors:
                s, canon = f.flip_z().canonical()
                if s < 0 and e % 2:
                    sign = -sign
                flipped.append((canon, e))
            factors = tuple(sorted(flipped))
            if sign < 0:
                num, den = -num, -den
        return RatFun(num, den, factors)

    # -- evaluation -----------------------------------------------------------

    def eval_rational(self, point: Mapping[str, Scalar]) -> Fraction:
        den_val = self.den.eval_rational(point)
        if den_val == 0:
            raise PoleSpecializationError(f"denominator {self.den} vanishes at {dict(point)}")
        return self.num.eval_rational(point) / den_val

    def as_rational(self) -> Fraction:
        return self.num.as_rational() / self.den.as_rational()

    def __str__(self) -> str:
        return ratfun_to_str(self)

    def __repr__(self) -> str:
        return f"RatFun({ratfun_to_str(self)})"


def factored_sum(terms: Iterable[FactoredRat]) -> RatFun:
    """Sum of factored terms over their least common factored denominator.

    Keeps the resulting numerator and denominator degrees at the scale of a
    single term instead of the product of all denominators.
    """
    live = [t for t in terms if not t.is_zero]
    if not live:
        return RatFun.zero()
    den_maps = [dict(t.den_items()) for t in live]
    lcm: dict[LinForm, int] = {}
    for dm in den_maps:
        for f, e in dm.items():
            if e > lcm.get(f, 0):
                lcm[f] = e
    num = MPoly.zero()
    for t, dm in zip(live, den_maps):
        part = _expand_factor_product(t.num_items()).scale(t.scalar)
        cof = _expand_factor_product((f, e - dm.get(f, 0)) for f, e in lcm.items() if e > dm.get(f, 0))
        num = num + part * cof
    den_items = tuple(sorted(lcm.items()))
    return RatFun(num, _expand_factor_product(den_items), den_items)


# ---------------------------------------------------------------------------
# root stripping, residues and limits
# ---------------------------------------------------------------------------


def _strip_z_root(
    root: MPoly, *polys: MPoly, cap: int | None = None
) -> tuple[int, tuple[MPoly, ...]]:
    """Divide every poly by (z - root) while all of them vanish at z = root.

    root must be free of z.  Then (z - root) is monic in z, so vanishing at
    z = root proves divisibility and every division is exact.  A zero poly is
    never stripped.  Returns (number of divisions, quotients); cap bounds the
    number of divisions.
    """
    factor = MPoly({(1, 0, 0): 1, **(-root).terms})
    at_root = {"z": root}
    count = 0
    while (cap is None or count < cap) and all(
        not p.is_zero and p.substitute(at_root).is_zero for p in polys
    ):
        polys = tuple(mpoly_exact_div(p, factor) for p in polys)
        count += 1
    return count, polys


def residue_at(f: RatFun, n: int) -> RatFun:
    """Residue of f at the simple pole z = -n*phi.

    Returns zero when f has no pole there; raises UnsupportedPoleOrderError for
    a pole of order two or more.
    """
    pole = MPoly.monomial((0, 1, 0), -n)
    m_den, (den_red,) = _strip_z_root(pole, f.den)
    if m_den == 0:
        return RatFun.zero()
    m_num, (num_red,) = _strip_z_root(pole, f.num, cap=m_den)
    order = m_den - m_num
    if order <= 0:
        return RatFun.zero()
    if order >= 2:
        raise UnsupportedPoleOrderError(
            f"pole of order {order} at z = {-n}*phi (only simple poles are supported)"
        )
    at_pole = {"z": pole}
    return RatFun(num_red.substitute(at_pole), den_red.substitute(at_pole))


def limit_at_z_infinity(f: RatFun) -> RatFun | None:
    """Limit of f as z -> infinity by z-degree comparison; None when divergent."""
    dn, lead_num = f.num.leading_in_z()
    dd, lead_den = f.den.leading_in_z()
    if f.num.is_zero or dn < dd:
        return RatFun.zero()
    if dn > dd:
        return None
    return RatFun(lead_num) / RatFun(lead_den)


def cancel_common_z_roots(
    num: MPoly, den: MPoly, roots: Iterable[Scalar]
) -> tuple[MPoly, MPoly]:
    """Strip factors (z - root) common to num and den, for the listed roots only.

    Divisibility is detected by substitution (a monic-in-z linear form divides
    a polynomial iff the polynomial vanishes there); no factorization beyond
    the supplied trial set is attempted.
    """
    for root in roots:
        _, (num, den) = _strip_z_root(MPoly.const(root), num, den)
    return num, den


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def _monomial_str(mono: Monomial, coeff: Scalar) -> str:
    parts = []
    for name, e in zip(VARS, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    mag = abs(coeff)
    if not parts:
        return str(mag)
    if mag != 1:
        parts.insert(0, str(mag))
    return "*".join(parts)


def mpoly_to_str(p: MPoly) -> str:
    """Canonical text form: terms in lexicographic monomial order, coefficients p/q."""
    if p.is_zero:
        return "0"
    pieces = []
    for i, (mono, coeff) in enumerate(p.sorted_terms()):
        body = _monomial_str(mono, coeff)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


def ratfun_to_str(f: RatFun) -> str:
    """Canonical text form "num/den"; the "/den" is omitted when den == 1."""
    num_s = mpoly_to_str(f.num)
    if f.den == MPoly.one():
        return num_s
    if len(f.num.terms) > 1:
        num_s = f"({num_s})"
    den_s = mpoly_to_str(f.den)
    if len(f.den.terms) > 1 or "*" in den_s or den_s.startswith("-"):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


_LATEX_NAMES = {"z": "z", "phi": r"\varphi", "eps": r"\varepsilon"}


def _mpoly_to_latex(p: MPoly) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for i, (mono, coeff) in enumerate(p.sorted_terms()):
        parts = []
        for name, e in zip(VARS, mono):
            v = _LATEX_NAMES[name]
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{{{e}}}")
        mag = abs(coeff)
        if not parts:
            body = str(mag)
        else:
            body = ("" if mag == 1 else f"{mag}\\,") + " ".join(parts)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


def ratfun_to_latex(f: RatFun) -> str:
    if f.den == MPoly.one():
        return _mpoly_to_latex(f.num)
    if f.den_factors:
        # a known factorization reads far better than the expanded denominator
        parts = []
        for form, exp in f.den_factors:
            body = f"\\left({_mpoly_to_latex(form.to_mpoly())}\\right)"
            parts.append(body if exp == 1 else f"{body}^{{{exp}}}")
        den_s = " ".join(parts)
    else:
        den_s = _mpoly_to_latex(f.den)
    return f"\\frac{{{_mpoly_to_latex(f.num)}}}{{{den_s}}}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" strings; decimals are rejected."""
    text = text.strip()
    body = text[1:] if text[:1] in "+-" else text
    if body and all(part.isdigit() and part for part in body.split("/", 1)) and body.count("/") <= 1:
        return Fraction(text)
    raise ValueError(f"not an integer or p/q rational: {text!r}")
