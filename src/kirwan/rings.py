"""Exact multivariate polynomial arithmetic over Q with graded variables.

Every variable carries a positive even cohomological degree (default 2); the
algebraic weight used by monomial orders is half that.  Degrees reported by the
public API are always the doubled, cohomological ones.

Monomial orders are additive: each order maps an exponent vector to a key tuple
with key(m1*m2) = key(m1) + key(m2) componentwise, and comparison is
lexicographic on keys.  That one property is what the Groebner engine and the
elimination arguments rely on, so new orders only need to supply a key.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

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


def format_rational(q: Fraction) -> str:
    return str(q)


class VariableTable:
    """Immutable ordered list of named variables with even cohomological degrees."""

    __slots__ = ("names", "degrees", "_index", "weights", "_hash")

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

    def drop(self, name: str) -> "VariableTable":
        i = self.index(name)
        return VariableTable(
            self.names[:i] + self.names[i + 1 :], self.degrees[:i] + self.degrees[i + 1 :]
        )

    def unit_exponents(self, name: str) -> Exponents:
        e = [0] * len(self.names)
        e[self.index(name)] = 1
        return tuple(e)


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


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable polynomial: canonical term tuple sorted by grevlex, descending.

    Terms are (exponents, Fraction) pairs with nonzero coefficients; equality
    and hash follow from the canonical form.  All arithmetic is exact.
    """

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: VariableTable, terms: Iterable[tuple]):
        acc: dict = {}
        nvars = len(table)
        for exps, coef in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not fit {table!r}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = acc.get(exps, 0) + Fraction(coef)
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        weights = table.weights
        object.__setattr__(self, "table", table)
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(acc.items(), key=lambda t: _grevlex_key(t[0], weights), reverse=True)),
        )
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VariableTable) -> "Polynomial":
        return cls(table, ())

    @classmethod
    def one(cls, table: VariableTable) -> "Polynomial":
        return cls.constant(table, 1)

    @classmethod
    def constant(cls, table: VariableTable, value: Coefficient) -> "Polynomial":
        return cls(table, [((0,) * len(table), Fraction(value))])

    @classmethod
    def variable(cls, table: VariableTable, name: str) -> "Polynomial":
        return cls(table, [(table.unit_exponents(name), Fraction(1))])

    @classmethod
    def variables(cls, table: VariableTable) -> "tuple[Polynomial, ...]":
        return tuple(cls.variable(table, n) for n in table.names)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e, _ in self.terms)

    def coefficient(self, exps: Exponents) -> Fraction:
        for e, c in self.terms:
            if e == tuple(exps):
                return c
        return Fraction(0)

    def monomials(self) -> "tuple[Exponents, ...]":
        return tuple(e for e, _ in self.terms)

    def weighted_degree(self) -> int | None:
        """Algebraic (weight) degree, None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.table.weighted_degree(e) for e, _ in self.terms)

    def degree(self) -> int | None:
        """Cohomological degree: twice the weight degree."""
        w = self.weighted_degree()
        return None if w is None else 2 * w

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {self.table.weighted_degree(e) for e, _ in self.terms}
        return len(degs) == 1

    def homogeneous_component(self, degree: int) -> "Polynomial":
        """Terms of the given cohomological degree."""
        if degree % 2:
            return Polynomial.zero(self.table)
        w = degree // 2
        return Polynomial(
            self.table,
            [(e, c) for e, c in self.terms if self.table.weighted_degree(e) == w],
        )

    def leading_term(self, order: MonomialOrder) -> tuple:
        """(exponents, coefficient) maximal under the order; zero poly raises."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=lambda t: order.key(t[0]))

    def leading_monomial(self, order: MonomialOrder) -> Exponents:
        return self.leading_term(order)[0]

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
        return Polynomial(self.table, list(self.terms) + list(p.terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.table, [(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return Polynomial(self.table, list(self.terms) + [(e, -c) for e, c in p.terms])

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Polynomial.zero(self.table)
            return Polynomial(self.table, [(e, c * q) for e, c in self.terms])
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in p.terms:
                m = mono_mul(e1, e2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.table, acc.items())

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
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / q)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.table, other)
        return (
            isinstance(other, Polynomial)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.table, self.terms)))
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        acc: dict = {}
        power_cache: list[dict[int, Polynomial]] = [{} for _ in full]
        for exps, coef in self.terms:
            term = Polynomial.constant(table, coef)
            for i, e in enumerate(exps):
                if e:
                    cache = power_cache[i]
                    if e not in cache:
                        cache[e] = full[i] ** e
                    term = term * cache[e]
            for m, c in term.terms:
                acc[m] = acc.get(m, 0) + c
        return Polynomial(table, acc.items())

    def reindex(self, table: VariableTable,
                rename: Mapping[str, str] | None = None) -> "Polynomial":
        """Move to another table, mapping variables by name (or via `rename`)."""
        rename = rename or {}
        cols = [table.index(rename.get(n, n)) for n in self.table.names]
        nvars = len(table)
        out = []
        for exps, coef in self.terms:
            e = [0] * nvars
            for src, dst in enumerate(cols):
                e[dst] += exps[src]
            out.append((tuple(e), coef))
        return Polynomial(table, out)

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial":
        """Return self / divisor, raising InexactDivisionError on any remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        order = GrevlexOrder(self.table)
        quotient = Polynomial.zero(self.table)
        remainder = self
        d_exps, d_coef = divisor.leading_term(order)
        while not remainder.is_zero():
            r_exps, r_coef = remainder.leading_term(order)
            if not mono_divides(d_exps, r_exps):
                raise InexactDivisionError(
                    f"{divisor} does not divide {self} exactly"
                )
            q_term = Polynomial(self.table, [(mono_div(r_exps, d_exps), r_coef / d_coef)])
            quotient = quotient + q_term
            remainder = remainder - q_term * divisor
        return quotient

    def divides(self, other: "Polynomial") -> bool:
        try:
            other.exact_divide(self)
            return True
        except InexactDivisionError:
            return False

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
            body = format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = format_rational(mag) + "*" + "*".join(factors)
        if i == 0:
            chunks.append(body if coef > 0 else "-" + body)
        else:
            chunks.append((" + " if coef > 0 else " - ") + body)
    return "".join(chunks)


_FACTOR_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s*\^\s*(?P<exp>\d+))?)\s*\Z"
)


def parse_polynomial(table: VariableTable, text: str) -> Polynomial:
    """Inverse of format_polynomial; also accepts extra whitespace and signs."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    # split into signed terms: a leading sign plus signs not directly after
    # an operator (so '3/-2' stays an error rather than splitting)
    terms: list[tuple[int, str]] = []
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    current = []
    i = pos
    prev_nonspace = ""
    while i < len(s):
        ch = s[i]
        if ch in "+-" and prev_nonspace not in "*^/+-" and prev_nonspace != "":
            terms.append((sign, "".join(current)))
            current = []
            sign = -1 if ch == "-" else 1
        else:
            current.append(ch)
            if not ch.isspace():
                prev_nonspace = ch
        i += 1
    terms.append((sign, "".join(current)))

    result_terms = []
    nvars = len(table)
    for sgn, body in terms:
        body = body.strip()
        if not body:
            raise ParseError(f"empty term in {text!r}")
        coef = Fraction(sgn)
        exps = [0] * nvars
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
