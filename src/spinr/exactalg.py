"""Exact arithmetic kernel: sparse polynomials and rational functions in z, phi, eps.

Everything is computed over arbitrary-precision rationals; there is no floating
point anywhere.  A ``Scalar`` (a polynomial coefficient or the scalar of a
``FactoredRat``) is a Python ``int`` when it is integral and a
``fractions.Fraction`` otherwise (``_coeff`` normalizes it), never a float:
the paper's blocks are built from integer linear forms, so almost every
scalar is an integer, and an ``int`` product costs no gcd and no allocation
of a Fraction.
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
                    terms is ever performed; ``==`` is value equality.  When
                    the denominator's factorization into linear forms is
                    known it is cached, which keeps degrees small when
                    summing many terms over a common denominator:
                    ``factored_sum`` and ``ratfun_dot`` (the entry of a matrix
                    product) sum over the lcm, and ``value_eq`` compares two
                    factored sides over theirs (cross multiplication
                    otherwise).

The paper's coefficients come from equivariant localization, so the same
products of weights recur across summands, entries, sectors and checks.
``_expand_factor_product`` expands each distinct product once per process
(``functools.cache``); every sum and comparison over factored denominators
(``factored_sum``, ``FactoredRat.expand``, ``RatFun.__add__``/``value_eq``,
``ratfun_dot``) reads it.  ``_canonical`` memoizes each linear form's canonical
form the same way and ``_run_factors`` each run's, which ``factored_runs``
merges into a summand; products merge canonical lists as they are
(``_merge_factor_items``).  ``factored_sum`` and ``ratfun_dot`` sum over the
lcm in one fused loop (``_sum_of_products``), building no product MPoly.
Every weight is a linear form, so every polynomial of a generic block is
homogeneous; the fused loop therefore keeps one flat int-indexed list per
total degree of the sum, where the slot of a product term is the sum of its
factors' slots, instead of hashing an exponent triple per term pair.

Substitution acts on polynomials only (``MPoly.substitute``); there is no
general specialization of rational functions.  Spin specialization lives in
``rmatrix.specialize_block`` and builds no ``MPoly``: on the spin line every
linear form is an int constant or +-(z + c), so the closed form is summed on
int coefficient lists in z, lowest power first.  On such lists (ints, or the
z-free ``MPoly``s of ``MPoly.z_coeffs``) ``times_roots`` multiplies by
factors (z + c) and ``divide_root`` is the one trial division: synthetic
division, whose remainder is the value at z = -c.  ``residue_at`` strips
(z + n*phi) with it.  ``cancel_common_z_roots`` divides by substitution and
``mpoly_exact_div`` instead: no computation calls it, since it is the
independent reference the tests hold ``rmatrix.over_spin_denominator`` against.

Monomials are ordered lexicographically on (e_z, e_phi, e_eps); serialization and
iteration always follow that order, so output is deterministic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

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
    construction, so values can be shared freely.
    The expanded factor products of ``_expand_factor_product`` rely on this:
    its cached values are shared by every caller in the process.
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

    def z_coeffs(self) -> list[MPoly]:
        """[c_0, c_1, ...] with self = sum_e c_e z^e and every c_e free of z; [] for zero."""
        coeffs: list[dict[Monomial, Scalar]] = [{} for _ in range(self.degree_in("z") + 1)]
        for (e, y, w), c in self._terms.items():
            coeffs[e][0, y, w] = c
        return [MPoly(c) for c in coeffs]

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

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        return mpoly_to_str(self)

    def __repr__(self) -> str:
        return f"MPoly({mpoly_to_str(self)})"


def _by_degree(terms: Mapping[Monomial, Scalar]) -> dict[int, list[tuple[int, int, Scalar]]]:
    """The terms (e_z, e_phi, c) of a term map, grouped by total degree."""
    out: dict[int, list[tuple[int, int, Scalar]]] = {}
    for (x, y, w), c in terms.items():
        d = x + y + w
        group = out.get(d)
        if group is None:
            out[d] = [(x, y, c)]
        else:
            group.append((x, y, c))
    return out


def _sum_of_products(pairs: Iterable[tuple[MPoly, MPoly]]) -> MPoly:
    """The sum of a*b over the pairs, accumulated per total degree in flat lists.

    Every weight is a linear form in (z, phi, eps), so the polynomials of a
    generic block are homogeneous, and a product of terms of degrees d1 and d2
    lands in degree d = d1 + d2.  Degree d of the sum is one list of (d+1)**2
    coefficients: e_z, e_phi sit in slot e_z*(d+1) + e_phi, and e_eps is
    d - e_z - e_phi.  In that base a product's slot is the sum of its factors'
    slots (e_phi1 + e_phi2 <= d never carries), so the inner loop adds into a
    list slot with no monomial tuple and no hashing.  An operand that is not
    homogeneous just fills several lists.  The nonzero slots become the term
    map once at the end.
    """
    accs: dict[int, list[Scalar]] = {}
    for a, b in pairs:
        a, b = a._terms, b._terms
        if len(a) > len(b):
            a, b = b, a
        graded_b = _by_degree(b)
        for da, terms_a in _by_degree(a).items():
            for db, terms_b in graded_b.items():
                d = da + db
                n = d + 1
                acc = accs.get(d)
                if acc is None:
                    acc = accs[d] = [0] * (n * n)
                slots_b = [(x * n + y, c) for x, y, c in terms_b]
                for x, y, c1 in terms_a:
                    k1 = x * n + y
                    for k2, c2 in slots_b:
                        acc[k1 + k2] += c1 * c2
    out: dict[Monomial, Scalar] = {}
    for d, acc in accs.items():
        n = d + 1
        for k, c in enumerate(acc):
            if c:
                x, y = divmod(k, n)
                out[(x, y, d - x - y)] = c if type(c) is int else _coeff(c)
    res = MPoly.__new__(MPoly)
    res._terms = out
    return res


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
        rest = rest - b * MPoly({mono: coeff})
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
        e.g. (-z) and (z) share a key, as do (2*phi) and (phi).  The zero
        form has no canonical form: it is refused as a factor.
        """
        g = math.gcd(self.c_z, self.c_phi, self.c_eps)
        if g == 0:
            raise ExactAlgError("zero linear form used as a factor")
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

    def __str__(self) -> str:
        return mpoly_to_str(self.to_mpoly())


FactorItems = tuple[tuple[LinForm, int], ...]

# ``LinForm.canonical`` of every form of the process, unbounded like ``_expand_factor_product``;
# a zero form raises on every call, since exceptions are not cached.
_canonical = functools.cache(LinForm.canonical)


def _merge_factor_items(first: FactorItems = (), *rest: FactorItems) -> FactorItems:
    """The product of factor lists of canonical forms: exponents added, zeros dropped, sorted.

    A canonical form is its own canonical form with scale 1, so none is looked
    up again.  ``first`` is read as a dict: it must not repeat a form, the others may.
    """
    merged = dict(first)
    for items in rest:
        for form, exp in items:
            merged[form] = merged.get(form, 0) + exp
    return tuple(sorted(item for item in merged.items() if item[1]))


def _canonical_factor_items(
    scalar: Scalar, pairs: Iterable[tuple[LinForm, int]]
) -> tuple[Scalar, FactorItems]:
    """The scalar times the forms' int contents, and the merged canonical factors.

    The contents of the forms with positive and negative exponents are
    accumulated as the ints ``up`` and ``down`` and applied to the scalar once;
    the scalar comes back normalized by ``_coeff``.
    """
    canon = []
    up = down = 1
    for form, exp in pairs:
        if exp == 0:
            continue
        scale, form = _canonical(form)
        if scale != 1:
            if exp > 0:
                up *= scale**exp
            else:
                down *= scale ** (-exp)
        canon.append((form, exp))
    scalar = _coeff(scalar * up if down == 1 else Fraction(scalar * up, down))
    return scalar, _merge_factor_items((), canon)


@functools.cache
def _expand_factor_product(items: FactorItems) -> MPoly:
    """The product of form**exp over items, expanded once per process.

    items is a sorted canonical factor tuple (``FactoredRat.factors`` and its
    parts, a ``den_factors``, an lcm or a cofactor), so equal products share
    one key.  The product is the expanded items[:-1] times the power
    items[-1:], both read through the memo, so every power and every leading
    partial product is expanded once as well.  The memo is unbounded, like
    that of ``S_matrix``.  Callers share the returned MPoly, which is safe
    only because an MPoly is never mutated after construction.
    """
    if not items:
        return MPoly.one()
    if len(items) == 1:
        ((form, exp),) = items
        return form.to_mpoly() ** exp
    return _expand_factor_product(items[:-1]) * _expand_factor_product(items[-1:])


def _lcm_cofactors(
    den_maps: Sequence[Mapping[LinForm, int]],
) -> tuple[FactorItems, list[MPoly]]:
    """The lcm of factored denominators and the expanded cofactor lcm/den of each.

    A denominator maps canonical linear forms to positive exponents; the lcm
    takes each form's largest exponent.  Every sum over a common factored
    denominator (``RatFun.__add__``, ``factored_sum``, ``ratfun_dot``) finds
    it here.  The cofactors come from the process-wide memo of
    ``_expand_factor_product``.
    """
    lcm: dict[LinForm, int] = {}
    for dm in den_maps:
        for f, e in dm.items():
            if e > lcm.get(f, 0):
                lcm[f] = e
    items = tuple(sorted(lcm.items()))
    cofactors = [
        _expand_factor_product(
            tuple((f, e - dm.get(f, 0)) for f, e in items if e > dm.get(f, 0))
        )
        for dm in den_maps
    ]
    return items, cofactors


# A run (c_z, c_eps, lo, hi, exp) is the factor prod_{r=lo..hi} (c_z*z + r*phi + c_eps*eps)^exp.
Run = tuple[int, int, int, int, int]


def run_pairs(runs: Sequence[Run]) -> list[tuple[LinForm, int]]:
    """The runs as (linear form, exponent) pairs, one per form; a run with hi < lo is empty."""
    return [
        (LinForm(c_z, r, c_eps), exp) for c_z, c_eps, lo, hi, exp in runs for r in range(lo, hi + 1)
    ]


@functools.cache
def _run_factors(run: Run) -> FactoredRat:
    """One run's canonical factors, and its content as the scalar; built once per process."""
    return FactoredRat(1, run_pairs((run,)))


def factored_runs(scalar: Scalar, runs: Sequence[Run]) -> FactoredRat:
    """``FactoredRat(scalar, run_pairs(runs))``, from the memoized runs (``_run_factors``)."""
    if scalar == 0:
        return FactoredRat.zero()
    pieces = [_run_factors(run) for run in runs]
    out = FactoredRat.__new__(FactoredRat)
    out.scalar = _coeff(math.prod((piece.scalar for piece in pieces), start=scalar))
    out.factors = _merge_factor_items(*(piece.factors for piece in pieces))
    return out


class FactoredRat:
    """A scalar times a product of canonical linear forms with integer exponents."""

    __slots__ = ("scalar", "factors")

    def __init__(self, scalar: Scalar, pairs: Iterable[tuple[LinForm, int]] = ()):
        if scalar == 0:
            self.scalar: Scalar = 0
            self.factors: FactorItems = ()
            return
        self.scalar, self.factors = _canonical_factor_items(scalar, pairs)

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

    def __mul__(self, other: FactoredRat) -> FactoredRat:
        if self.is_zero or other.is_zero:
            return FactoredRat.zero()
        out = FactoredRat.__new__(FactoredRat)
        out.scalar = _coeff(self.scalar * other.scalar)
        out.factors = _merge_factor_items(self.factors, other.factors)
        return out

    def scale(self, c: Scalar) -> FactoredRat:
        if c == 0 or self.is_zero:
            return FactoredRat.zero()
        out = FactoredRat.__new__(FactoredRat)
        out.scalar, out.factors = _coeff(self.scalar * c), self.factors
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
    """Quotient of two polynomials; never reduced, compared by value (``value_eq``).

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
        """Value equality, over the smallest denominator the known factors give.

        Equal ``den_factors`` mean equal denominators, so the numerators are
        compared.  When both sides know a nonempty factorization, each
        numerator is brought over the lcm of the two (num times its cofactor).
        Otherwise the two sides are cross-multiplied.
        """
        if not isinstance(other, RatFun):
            other = RatFun.const(other)
        mine, theirs = self.den_factors, other.den_factors
        if mine is not None and mine == theirs:
            return self.num == other.num
        if mine and theirs:
            _, (cof_a, cof_b) = _lcm_cofactors([dict(mine), dict(theirs)])
            return self.num * cof_a == other.num * cof_b
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
            lcm, (cof_a, cof_b) = _lcm_cofactors(
                [dict(self.den_factors), dict(other.den_factors)]
            )
            return RatFun(self.num * cof_a + other.num * cof_b, _expand_factor_product(lcm), lcm)
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
            factors = _merge_factor_items(self.den_factors, other.den_factors)
        return RatFun(self.num * other.num, self.den * other.den, factors)

    def scale(self, c: Scalar) -> RatFun:
        if not c:
            return RatFun.zero()
        return RatFun(self.num.scale(c), self.den, self.den_factors)

    def flip_z(self) -> RatFun:
        factors = None
        num, den = self.num.flip_z(), self.den.flip_z()
        if self.den_factors is not None:
            sign, factors = _canonical_factor_items(
                1, ((f.flip_z(), e) for f, e in self.den_factors)
            )
            if sign < 0:
                num, den = -num, -den
        return RatFun(num, den, factors)

    # -- evaluation -----------------------------------------------------------

    def eval_rational(self, point: Mapping[str, Scalar]) -> Fraction:
        den_val = self.den.eval_rational(point)
        if den_val == 0:
            raise PoleSpecializationError(f"denominator {self.den} vanishes at {dict(point)}")
        return self.num.eval_rational(point) / den_val

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
    lcm, cofactors = _lcm_cofactors([dict(t.den_items()) for t in live])
    num = _sum_of_products(
        (_expand_factor_product(t.num_items()).scale(t.scalar), cof)
        for t, cof in zip(live, cofactors)
    )
    return RatFun(num, _expand_factor_product(lcm), lcm)


def ratfun_dot(left: Sequence[RatFun], right: Sequence[RatFun]) -> RatFun:
    """The sum of the products a*b over the pairs of left and right.

    When every nonzero operand knows its ``den_factors``, a pair's denominator
    is the sum of the two factorizations, and the whole sum goes over the lcm
    of the pairs' denominators: each pair contributes a.num*b.num times its
    cofactor.  The lcm and the cofactors come from the process-wide memo of
    ``_expand_factor_product``.  Otherwise the products are accumulated with
    ``+``.
    """
    pairs = [(a, b) for a, b in zip(left, right) if not a.num.is_zero and not b.num.is_zero]
    if any(a.den_factors is None or b.den_factors is None for a, b in pairs):
        acc = RatFun.zero()
        for a, b in pairs:
            acc = acc + a * b
        return acc
    den_maps = []
    for a, b in pairs:
        dm = dict(a.den_factors)
        for f, e in b.den_factors:
            dm[f] = dm.get(f, 0) + e
        den_maps.append(dm)
    lcm, cofactors = _lcm_cofactors(den_maps)
    num = _sum_of_products((a.num * b.num, cof) for (a, b), cof in zip(pairs, cofactors))
    return RatFun(num, _expand_factor_product(lcm), lcm)


# ---------------------------------------------------------------------------
# polynomials in z: synthetic division, residues and limits
# ---------------------------------------------------------------------------


def times_roots(poly: list[Scalar], roots: Iterable[int]) -> list[Scalar]:
    """poly times (z + c) for every c in roots, on coefficient lists, lowest power first."""
    for c in roots:
        poly = [c * x + y for x, y in zip(poly + [0], [0] + poly)]
    return poly


def divide_root(poly: list, c: Scalar | MPoly) -> tuple[list, Scalar | MPoly]:
    """(q, r) with poly = (z + c) * q + r, by synthetic division; r is poly at z = -c.

    poly lists coefficients lowest power first; they and c are all scalars
    or all z-free ``MPoly``s.
    """
    quotient, carry = [0] * (len(poly) - 1), poly[-1]
    for e in range(len(poly) - 2, -1, -1):
        quotient[e], carry = carry, poly[e] - c * carry
    return quotient, carry


def residue_at(f: RatFun, n: int) -> RatFun:
    """Residue of f at the simple pole z = -n*phi.

    Returns zero when f is zero or has no pole there; raises
    UnsupportedPoleOrderError for a pole of order two or more.  Both sides
    are divided by (z + n*phi) while the remainder, their value at the pole,
    is zero; a simple pole's residue is then the ratio of the two remainders.
    """
    if f.num.is_zero:
        return RatFun.zero()
    root = MPoly({(0, 1, 0): n})

    def strip(coeffs: list[MPoly]) -> tuple[int, MPoly]:
        count, (quotient, value) = 0, divide_root(coeffs, root)
        while not value:
            count, (quotient, value) = count + 1, divide_root(quotient, root)
        return count, value

    m_den, den_value = strip(f.den.z_coeffs())
    m_num, num_value = strip(f.num.z_coeffs())
    order = m_den - m_num
    if order <= 0:
        return RatFun.zero()
    if order >= 2:
        raise UnsupportedPoleOrderError(
            f"pole of order {order} at z = {-n}*phi (only simple poles are supported)"
        )
    return RatFun(num_value, den_value)


def limit_at_z_infinity(f: RatFun) -> RatFun | None:
    """Limit of f as z -> infinity by z-degree comparison; None when divergent."""
    num, den = f.num.z_coeffs(), f.den.z_coeffs()
    if len(num) < len(den):
        return RatFun.zero()
    if len(num) > len(den):
        return None
    return RatFun(num[-1], den[-1])


def cancel_common_z_roots(
    num: MPoly, den: MPoly, roots: Iterable[Scalar]
) -> tuple[MPoly, MPoly]:
    """Strip factors (z - root) common to num and den, for the listed roots only.

    Divisibility is detected by substitution (a monic-in-z linear form divides
    a polynomial iff the polynomial vanishes there); no factorization beyond
    the supplied trial set is attempted.
    """
    for root in roots:
        factor, at_root = MPoly({(1, 0, 0): 1, _ZERO_MONO: -root}), {"z": MPoly.const(root)}
        while all(not p.is_zero and p.substitute(at_root).is_zero for p in (num, den)):
            num, den = mpoly_exact_div(num, factor), mpoly_exact_div(den, factor)
    return num, den


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def _render(
    p: MPoly, names: Sequence[str], power: str, coeff_sep: str, var_sep: str
) -> str:
    """The terms of p in lexicographic monomial order, joined by their signs.

    ``names`` spells the variables in ``VARS`` order and ``power`` (a format
    string taking the name and the exponent) spells a power; a coefficient of
    magnitude other than 1 goes before ``coeff_sep``, variables are joined by
    ``var_sep``.
    """
    if p.is_zero:
        return "0"
    pieces = []
    for i, (mono, coeff) in enumerate(p.sorted_terms()):
        parts = [v if e == 1 else power.format(v, e) for v, e in zip(names, mono) if e]
        mag = abs(coeff)
        if not parts:
            body = str(mag)
        else:
            body = ("" if mag == 1 else f"{mag}{coeff_sep}") + var_sep.join(parts)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


def mpoly_to_str(p: MPoly) -> str:
    """Canonical text form: terms in lexicographic monomial order, coefficients p/q."""
    return _render(p, VARS, "{}^{}", "*", "*")


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


_LATEX_NAMES = ("z", r"\varphi", r"\varepsilon")


def _mpoly_to_latex(p: MPoly) -> str:
    return _render(p, _LATEX_NAMES, "{}^{{{}}}", r"\,", " ")


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
    """Parse "p" or "p/q" strings; decimals and a zero q are rejected."""
    text = text.strip()
    body = text[1:] if text[:1] in "+-" else text
    if body and all(part.isdecimal() for part in body.split("/", 1)) and body.count("/") <= 1:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational: {text!r}") from None
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise ValueError(f"rational of {len(body)} characters is too long to parse") from None
    raise ValueError(f"not an integer or p/q rational: {text!r}")
