"""The field K = Q(x) of univariate rational functions, exactly.

Elements are kept in canonical form: numerator and denominator coprime, the
denominator monic, zero as 0/1.  Equality is therefore structural.  Both parts
are dense tuples of Fractions (index = power of x), trailing zeros trimmed.

Every result is brought to that form by _canonical.  Its gcd splits off the
power of x first, gcd(x^i·p, x^j·q) = x^min(i,j)·gcd(p, q) with p, q prime to
x, and cancels x^min(i,j) by slicing.  Euclid runs only when both p and q have
degree ≥ 1; localization never gets there, since its denominators are c·x^k,
but linear algebra over an arbitrary Q(x) may.  A constant denominator needs
no gcd at all.  The public constructor accepts ints, lists, tuples and
Polynomials; the arithmetic builds its results through _new, which takes
canonical Fraction tuples as they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ParseError
from .rings import Polynomial, VariableTable, format_polynomial, parse_polynomial

UPoly = tuple  # tuple[Fraction, ...], trailing zeros trimmed, () is zero

_X_TABLE = VariableTable(["x"])
_ZERO = Fraction(0)
_ONE = (Fraction(1),)


def _trim(cs: list) -> UPoly:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def upoly(*coeffs) -> UPoly:
    """Build a univariate polynomial from low-to-high coefficients."""
    return _trim([Fraction(c) for c in coeffs])


def _uadd(a: UPoly, b: UPoly) -> UPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        if c:
            cur = out[i]
            out[i] = cur + c if cur else c
    return _trim(out)


def _uneg(a: UPoly) -> UPoly:
    return tuple(-c for c in a)


def _umul(a: UPoly, b: UPoly) -> UPoly:
    """a·b; the top coefficient is a product of nonzero ones, so nothing to trim."""
    if not a or not b:
        return ()
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        return a if b == _ONE else _uscale(a, b[0])
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    cur = out[i + j]
                    out[i + j] = cur + ca * cb if cur else ca * cb
    return tuple(out)


def _uscale(a: UPoly, s: Fraction) -> UPoly:
    if not s:
        return ()
    return tuple(c * s if c else c for c in a)


def _udivmod(a: UPoly, b: UPoly) -> tuple:
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / lead
        if c:
            quo[i] = c
            for j, cb in enumerate(b):
                rem[i + j] -= c * cb
    return _trim(quo), _trim(rem)


def _xval(a: UPoly) -> int:
    """The power of x dividing the nonzero a."""
    i = 0
    while not a[i]:
        i += 1
    return i


def _ugcd(a: UPoly, b: UPoly) -> tuple:
    """gcd of nonzero a, b as (v, g): x^v times g, with g monic and prime to x."""
    i, j = _xval(a), _xval(b)
    p, q = a[i:], b[j:]
    if len(p) == 1 or len(q) == 1:
        return min(i, j), _ONE
    while q:
        p, q = q, _udivmod(p, q)[1]
        if q:
            q = _uscale(q, 1 / q[-1])  # keep intermediate results monic
    return min(i, j), _uscale(p, 1 / p[-1])


def _canonical(num: UPoly, den: UPoly) -> tuple:
    """num/den as (num, den) in lowest terms with den monic; zero is 0/1."""
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return (), _ONE
    if len(den) > 1:
        v, g = _ugcd(num, den)
        if v:
            num, den = num[v:], den[v:]
        if len(g) > 1:
            num = _udivmod(num, g)[0]
            den = _udivmod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        s = 1 / lead
        num, den = _uscale(num, s), _uscale(den, s)
    return num, den


class RationalFunction:
    """Element of Q(x) in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        num, den = _canonical(_as_upoly(num), _as_upoly(den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _new(cls, num: UPoly, den: UPoly) -> "RationalFunction":
        """The element num/den of a canonical pair of Fraction tuples, as given."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._new((), _ONE)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._new(_ONE, _ONE)

    @classmethod
    def x(cls) -> "RationalFunction":
        return cls._new((_ZERO, Fraction(1)), _ONE)

    @classmethod
    def from_polynomial(cls, p: Polynomial, xname: str = "x") -> "RationalFunction":
        """Restrict a multivariate polynomial supported only on powers of x."""
        xi = p.table.index(xname)
        coeffs: list = []
        for exps, coef in p.terms:
            if any(e and i != xi for i, e in enumerate(exps)):
                raise ValueError(f"{p} involves variables besides {xname}")
            k = exps[xi]
            if len(coeffs) <= k:
                coeffs.extend([Fraction(0)] * (k + 1 - len(coeffs)))
            coeffs[k] += coef
        return cls(_trim(coeffs))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def polynomial_coeffs(self) -> UPoly:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a polynomial in x")
        return self.num

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction._new((Fraction(other),) if other else (), _ONE)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction._new(*_canonical(
            _uadd(_umul(self.num, o.den), _umul(o.num, self.den)),
            _umul(self.den, o.den),
        ))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._new(_uneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction._new(*_canonical(_umul(self.num, o.num), _umul(self.den, o.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction._new(*_canonical(_umul(self.num, o.den), _umul(self.den, o.num)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        return format_rational_function(self)

    def __repr__(self) -> str:
        return f"<{self}>"


ScalarLike = Union[RationalFunction, Fraction, int]


def _as_upoly(value) -> UPoly:
    if isinstance(value, tuple):
        return _trim([Fraction(c) for c in value])
    if isinstance(value, list):
        return _trim([Fraction(c) for c in value])
    if isinstance(value, (int, Fraction)):
        return (Fraction(value),) if value else ()
    if isinstance(value, Polynomial):
        return RationalFunction.from_polynomial(value).num
    raise TypeError(f"cannot interpret {value!r} as a univariate polynomial")


def _upoly_to_poly(cs: UPoly) -> Polynomial:
    return Polynomial(_X_TABLE, [((k,), c) for k, c in enumerate(cs) if c])


def format_rational_function(r: RationalFunction) -> str:
    """Canonical text: `num` when the denominator is 1, else `(num)/(den)`."""
    num = format_polynomial(_upoly_to_poly(r.num))
    if r.is_polynomial():
        return num
    den = format_polynomial(_upoly_to_poly(r.den))
    return f"({num})/({den})"


def parse_rational_function(text: str) -> RationalFunction:
    s = text.strip()
    if s.startswith("(") and ")/(" in s:
        if not s.endswith(")"):
            raise ParseError(f"malformed rational function {text!r}")
        left, right = s.split(")/(", 1)
        num = parse_polynomial(_X_TABLE, left[1:])
        den = parse_polynomial(_X_TABLE, right[:-1])
        if den.is_zero():
            raise ParseError(f"zero denominator in {text!r}")
        return RationalFunction(
            RationalFunction.from_polynomial(num).num,
            RationalFunction.from_polynomial(den).num,
        )
    p = parse_polynomial(_X_TABLE, s)
    return RationalFunction.from_polynomial(p)
