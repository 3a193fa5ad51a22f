"""Exact multivariate polynomial arithmetic over Q with graded variables.

Every variable carries a positive even cohomological degree (default 2); the
algebraic weight used by monomial orders is half that.  Degrees reported by the
public API are always the doubled, cohomological ones.

Monomial orders are additive: each order maps an exponent vector to a key tuple
with key(m1*m2) = key(m1) + key(m2) componentwise, and comparison is
lexicographic on keys.  That one property is what the Groebner engine and the
elimination arguments rely on, so new orders only need to supply a key.

A Polynomial stores what the reduction kernel (`_kernel.pure`) works on: integer
(-key, packed monomial, coefficient) triples in descending grevlex order and one
Fraction scale.  Keys and packed monomials add under multiplication, so the
arithmetic is integer work on the triples (Monagan & Pearce, CASC 2007), and the
Groebner engine passes them to the kernel as they are.  Exponents past EXP_MAX
(32767) raise OverflowError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from ._kernel.pure import _check, _exponent_error, _layout, _pack, _packer, _unpack
from .errors import InexactDivisionError, ParseError

Exponents = tuple  # tuple[int, ...], one slot per table variable
Coefficient = Union[Fraction, int]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional sign; reduced, positive denominator."""
    s = text.strip()
    m = re.fullmatch(r"([+-]?\d+)(?:\s*/\s*(\d+))?", s)
    if not m:
        raise ParseError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


class VariableTable:
    """Immutable ordered list of named variables with even cohomological degrees;
    `spec` names its grevlex order for the kernel, `guard_mask` its guard bits."""

    __slots__ = ("names", "degrees", "_index", "weights", "_hash", "spec", "guard_mask", "_key",
                 "_variables")

    def __init__(self, names: Sequence[str], degrees: Sequence[int] | None = None):
        names = tuple(names)
        if degrees is None:
            degrees = tuple(2 for _ in names)
        else:
            degrees = tuple(int(d) for d in degrees)
        if len(names) != len(degrees):
            raise ValueError("names and degrees differ in length")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for n in names:
            if not _NAME_RE.match(n):
                raise ValueError(f"bad variable name {n!r}")
        for d in degrees:
            if d <= 0 or d % 2 != 0:
                raise ValueError(f"degrees must be positive even integers, got {d}")
        self.names = names
        self.degrees = degrees
        self.weights = tuple(d // 2 for d in degrees)
        self._index = {n: i for i, n in enumerate(names)}
        self._hash = hash((names, degrees))
        self.spec = ("grevlex", self.weights)
        self.guard_mask = _packer(len(names))[1]
        self._key = _layout(self.spec)
        self._variables: dict = {}  # name -> its Polynomial, built on first use

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no variable {name!r} in table {self.names}") from None

    def degree(self, name: str) -> int:
        return self.degrees[self.index(name)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VariableTable)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"VariableTable({parts})"

    def weighted_degree(self, exps: Exponents) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def prepend(self, name: str, degree: int = 2) -> "VariableTable":
        return VariableTable((name,) + self.names, (degree,) + self.degrees)

    def append(self, name: str, degree: int = 2) -> "VariableTable":
        return VariableTable(self.names + (name,), self.degrees + (degree,))

    def unit_exponents(self, name: str) -> Exponents:
        e = [0] * len(self.names)
        e[self.index(name)] = 1
        return tuple(e)

    def pack(self, exps: Sequence[int]) -> int:
        """The exponent vector as one packed int; OverflowError past EXP_MAX."""
        _check(exps)
        return _pack(exps)

    def unpack(self, packed: int) -> Exponents:
        return _unpack(packed, len(self.names))

    def packed_monomial(self, exps: Sequence[int]) -> tuple:
        """(-grevlex key, packed int) of an exponent vector."""
        return -sum(map(mul, exps, self._key)), self.pack(exps)


class MonomialOrder:
    """Base class: subclasses supply an additive key for one variable table."""

    table: VariableTable

    def key(self, exps: Exponents) -> tuple:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.table == other.table
            and self.descriptor() == other.descriptor()
        )

    def __hash__(self) -> int:
        return hash((self.table, tuple(sorted(self.descriptor().items()))))


def _grevlex_key(exps: Sequence[int], weights: Sequence[int]) -> tuple:
    wdeg = sum(e * w for e, w in zip(exps, weights))
    return (wdeg,) + tuple(-e for e in reversed(exps))


class GrevlexOrder(MonomialOrder):
    """Weighted degree reverse lexicographic order."""

    def __init__(self, table: VariableTable):
        self.table = table

    def key(self, exps: Exponents) -> tuple:
        return _grevlex_key(exps, self.table.weights)

    def descriptor(self) -> dict:
        return {"type": "grevlex"}


class LexOrder(MonomialOrder):
    """Pure lexicographic order, first table variable most significant."""

    def __init__(self, table: VariableTable):
        self.table = table

    def key(self, exps: Exponents) -> tuple:
        return tuple(exps)

    def descriptor(self) -> dict:
        return {"type": "lex"}


class BlockOrder(MonomialOrder):
    """Elimination order: grevlex on the first `front` variables, then grevlex
    on the rest.  Any monomial meeting the front block beats every front-free
    monomial, so front-free Groebner elements generate the eliminated ideal."""

    def __init__(self, table: VariableTable, front: int):
        if not 0 < front < len(table):
            raise ValueError(f"front block size {front} out of range for {table!r}")
        self.table = table
        self.front = front

    def key(self, exps: Exponents) -> tuple:
        k = self.front
        w = self.table.weights
        return _grevlex_key(exps[:k], w[:k]) + _grevlex_key(exps[k:], w[k:])

    def descriptor(self) -> dict:
        return {"type": "block", "front": self.front}


def order_from_descriptor(table: VariableTable, desc: Mapping) -> MonomialOrder:
    kind = desc.get("type")
    if kind == "grevlex":
        return GrevlexOrder(table)
    if kind == "lex":
        return LexOrder(table)
    if kind == "block":
        return BlockOrder(table, int(desc["front"]))
    raise ParseError(f"unknown order descriptor {desc!r}")


_CONSTANT_TERMS = ((0, 0, 1),)
_ZERO = Fraction(0)
_set = object.__setattr__


def _make(table: VariableTable, packed: tuple, scale: Fraction) -> "Polynomial":
    """A Polynomial from terms already in canonical form."""
    p = object.__new__(Polynomial)
    _set(p, "table", table)
    _set(p, "packed", packed)
    _set(p, "scale", scale)
    return p


def _canonical(table: VariableTable, terms: list, scale: Fraction) -> "Polynomial":
    """scale * terms, sorted triples with nonzero coefficients, made canonical."""
    if not terms:
        return _make(table, (), _ZERO)
    g = gcd(*[c for _, _, c in terms])
    if terms[0][2] < 0:
        g = -g
    if g != 1:
        terms = [(k, m, c // g) for k, m, c in terms]
        scale = scale * g
    return _make(table, tuple(terms), scale)


def _collect(table: VariableTable, blocks, scale: Fraction) -> "Polynomial":
    """scale * Σ f·x^dm·terms over (dk, dm, f, terms) blocks, where terms are
    (-key, packed, int) triples in any order and dk is the -key of x^dm."""
    acc: dict = {}
    monos: dict = {}
    mask = table.guard_mask
    for dk, dm, f, terms in blocks:
        for k, m, c in terms:
            k += dk
            v = acc.get(k)
            if v is None:
                m += dm
                if m & mask:
                    raise _exponent_error("a result term")
                acc[k] = c * f
                monos[k] = m
            else:
                acc[k] = v + c * f
    return _canonical(table, [(k, monos[k], v) for k, v in sorted(acc.items()) if v], scale)


def _dot(table: VariableTable, parts) -> "Polynomial":
    """Σ s·f·g over (Fraction s, f terms, g terms) parts in one _collect:
    every s is an integer multiple of one common Fraction, and each term of
    f contributes a block over the terms of g."""
    parts = [part for part in parts if part[0]]
    g = gcd(*[s.numerator for s, _, _ in parts])
    den = lcm(*[s.denominator for s, _, _ in parts])
    blocks = []
    for s, f, h in parts:
        r = s.numerator // g * (den // s.denominator)
        blocks += [(dk, dm, r * c, h) for dk, dm, c in f]
    return _collect(table, blocks, Fraction(g, den))


class Polynomial:
    """Immutable polynomial: scale * Σ c·x^m with integer c.

    `packed` holds (-key, packed monomial, int coef) triples in descending
    grevlex order, the layout of a kernel tail; its coefficients have
    content 1 and a positive head, and `scale` is one nonzero Fraction
    (zero is `()` with scale 0).  That form is canonical, so equality and
    hash are structural.  `terms` is the (exponents, Fraction) view.
    """

    __slots__ = ("table", "packed", "scale")

    def __new__(cls, table: VariableTable, terms: Iterable[tuple]):
        acc: dict = {}
        for exps, coef in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(table):
                raise ValueError(f"exponent vector {exps} does not fit {table!r}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            acc[exps] = acc.get(exps, 0) + Fraction(coef)
        den = lcm(*[c.denominator for c in acc.values()])
        return _collect(table, [(0, 0, 1, [
            table.packed_monomial(e) + (c.numerator * (den // c.denominator),)
            for e, c in acc.items()
        ])], Fraction(1, den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VariableTable) -> "Polynomial":
        return _make(table, (), _ZERO)

    @classmethod
    def one(cls, table: VariableTable) -> "Polynomial":
        return cls.constant(table, 1)

    @classmethod
    def constant(cls, table: VariableTable, value: Coefficient) -> "Polynomial":
        q = Fraction(value)
        return _make(table, _CONSTANT_TERMS if q else (), q)

    @classmethod
    def variable(cls, table: VariableTable, name: str) -> "Polynomial":
        v = table._variables.get(name)
        if v is None:
            v = table._variables[name] = _make(
                table, (table.packed_monomial(table.unit_exponents(name)) + (1,),), Fraction(1))
        return v

    @classmethod
    def dot(cls, table: VariableTable, pairs: Iterable[tuple]) -> "Polynomial":
        """Σ f·g over (f, g) pairs of polynomials on `table`, expanded in one
        pass: one dict and one sort for the whole sum, however many pairs."""
        parts = []
        for f, g in pairs:
            if f.table != table or g.table != table:
                raise ValueError("polynomials from different tables")
            parts.append((f.scale * g.scale, f.packed, g.packed))
        return _dot(table, parts)

    @classmethod
    def from_packed(cls, table: VariableTable, terms, scale: Coefficient = 1) -> "Polynomial":
        """scale * terms from (-key, packed, int coef) triples strictly
        ascending in the table's grevlex -key, of any content and sign."""
        return _canonical(table, list(terms), Fraction(scale))

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """(exponents, Fraction) pairs in descending grevlex order, built on
        each access."""
        unpack = self.table.unpack
        return tuple((unpack(m), self.scale * c) for _, m, c in self.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def _weight(self, packed_mono: int) -> int:
        return self.table.weighted_degree(self.table.unpack(packed_mono))

    def weighted_degree(self) -> int | None:
        """Algebraic (weight) degree, None for the zero polynomial."""
        # grevlex compares weighted degree first, so the head has the largest
        return self._weight(self.packed[0][1]) if self.packed else None

    def degree(self) -> int | None:
        """Cohomological degree: twice the weight degree."""
        w = self.weighted_degree()
        return None if w is None else 2 * w

    def is_homogeneous(self) -> bool:
        t = self.packed
        return not t or self._weight(t[0][1]) == self._weight(t[-1][1])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.table != self.table:
                raise ValueError("polynomials from different tables")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.table, other)
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return _dot(self.table, ((self.scale, _CONSTANT_TERMS, self.packed),
                                 (p.scale, _CONSTANT_TERMS, p.packed)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.table, self.packed, -self.scale)

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return _dot(self.table, ((self.scale, _CONSTANT_TERMS, self.packed),
                                 (-p.scale, _CONSTANT_TERMS, p.packed)))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.table, self.packed, self.scale * other) if other and self else (
                Polynomial.zero(self.table))
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return _dot(self.table, ((self.scale * p.scale, p.packed, self.packed),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.table)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return _make(self.table, self.packed, self.scale / other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.table, other)
        return (
            isinstance(other, Polynomial)
            and self.table == other.table
            and self.scale == other.scale
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((self.table, self.packed, self.scale))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __bool__(self) -> bool:
        return bool(self.packed)

    # -- homomorphisms -----------------------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial | Coefficient"],
                   table: VariableTable | None = None) -> "Polynomial":
        """Apply the ring homomorphism sending each variable to its image.

        Unmapped variables go to the same-named variable of the target table;
        the target defaults to the table of any polynomial image, else to the
        source table.
        """
        if table is None:
            for img in images.values():
                if isinstance(img, Polynomial):
                    table = img.table
                    break
            else:
                table = self.table
        full: list[Polynomial] = []
        for name in self.table.names:
            img = images.get(name)
            if img is None:
                full.append(Polynomial.variable(table, name))
            elif isinstance(img, Polynomial):
                if img.table != table:
                    raise ValueError("images from mixed tables")
                full.append(img)
            else:
                full.append(Polynomial.constant(table, img))
        parts = []
        powers: dict = {}
        for _, m, c in self.packed:
            term = Polynomial.one(table)
            for i, e in enumerate(self.table.unpack(m)):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = full[i] ** e
                    term = term * powers[i, e]
            parts.append((self.scale * term.scale * c, _CONSTANT_TERMS, term.packed))
        return _dot(table, parts)

    def map_monomials(self, table: VariableTable, fn) -> "Polynomial":
        """Σ c·x^fn(e) over `table`, terms with coinciding images merged."""
        unpack = self.table.unpack
        return _collect(table, [(0, 0, 1, [
            table.packed_monomial(fn(unpack(m))) + (c,) for _, m, c in self.packed
        ])], self.scale)

    def reindex(self, table: VariableTable,
                rename: Mapping[str, str] | None = None) -> "Polynomial":
        """Move to another table, mapping variables by name (or via `rename`);
        the exponents of variables sent to one name add up."""
        rename = rename or {}
        targets = [table.index(rename.get(n, n)) for n in self.table.names]

        def move(exps: Exponents) -> list:
            out = [0] * len(table)
            for j, e in zip(targets, exps):
                out[j] += e
            return out

        return self.map_monomials(table, move)

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial":
        """Return self / divisor, raising InexactDivisionError on any remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dk, dm, dc = divisor.packed[0]
        quotient = Polynomial.zero(self.table)
        remainder = self
        while remainder:
            k, m, c = remainder.packed[0]
            if (m - dm) & self.table.guard_mask:
                raise InexactDivisionError(f"{divisor} does not divide {self} exactly")
            q = _make(self.table, ((k - dk, m - dm, 1),), remainder.scale * c / (divisor.scale * dc))
            quotient = quotient + q
            remainder = remainder - q * divisor
        return quotient

    # -- textual format ----------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)}>"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: terms in descending grevlex, `coef*var^e*...` pieces."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for i, (exps, coef) in enumerate(p.terms):
        factors = []
        for name, e in zip(p.table.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coef)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        if i == 0:
            chunks.append(body if coef > 0 else "-" + body)
        else:
            chunks.append((" + " if coef > 0 else " - ") + body)
    return "".join(chunks)


_FACTOR_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s*\^\s*(?P<exp>\d+))?)\s*\Z"
)
_SIGN_RE = re.compile(r"(?<=[^\s*^/+-])\s*([+-])")


def parse_polynomial(table: VariableTable, text: str) -> Polynomial:
    """Inverse of format_polynomial; also accepts extra whitespace and signs."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    # a leading sign, then signs that split terms: those not after an
    # operator (so '3/-2' stays an error rather than splitting)
    pieces = _SIGN_RE.split(s[1:] if s[0] in "+-" else s)
    signs = [s[0] if s[0] in "+-" else "+"] + pieces[1::2]
    result_terms = []
    for sgn, body in zip(signs, pieces[0::2]):
        body = body.strip()
        if not body:
            raise ParseError(f"empty term in {text!r}")
        coef = Fraction(-1 if sgn == "-" else 1)
        exps = [0] * len(table)
        for factor in body.split("*"):
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            if m.group("num") is not None:
                coef *= parse_rational(m.group("num"))
            else:
                name = m.group("var")
                if name not in table:
                    raise ParseError(f"unknown variable {name!r} in {text!r}")
                e = int(m.group("exp")) if m.group("exp") else 1
                exps[table.index(name)] += e
        result_terms.append((tuple(exps), coef))
    return Polynomial(table, result_terms)
