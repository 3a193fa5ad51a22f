"""Groebner engine: reduced bases, normal forms, intersections, colon ideals,
and the graded bookkeeping (standard monomials, Hilbert series, localized
rank) that every ring presentation here is built on.

Buchberger runs the normal pair-selection strategy (minimal weighted lcm
degree, then lcm order key, then indices) with the product and chain
criteria.  Every cached basis is re-verified against the S-criterion at cache
fill; resource budgets raise hard errors rather than truncating.  An ideal
also keeps the colon ideals and sums derived from it, so each is computed
(and certified) once however many callers ask for it.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from . import _kernel as K
from .errors import BudgetExceeded, ParseError, VerificationError
from .rings import (
    BlockOrder,
    GrevlexOrder,
    MonomialOrder,
    Polynomial,
    VariableTable,
    mono_divides,
    order_from_descriptor,
    parse_polynomial,
)


@dataclass(frozen=True)
class Budgets:
    """Hard resource limits for a Groebner run (degrees are cohomological)."""

    max_basis: int = 4000
    max_degree: int = 160

    def __post_init__(self):
        if self.max_basis <= 0 or self.max_degree <= 0:
            raise ValueError("budgets must be positive")

    @classmethod
    def from_env(cls) -> "Budgets":
        """The defaults, overridden by KIRWAN_MAX_BASIS and KIRWAN_MAX_DEGREE.

        A set variable that is not a positive integer raises ValueError
        naming it.
        """
        values = {}
        for field, var in (("max_basis", "KIRWAN_MAX_BASIS"), ("max_degree", "KIRWAN_MAX_DEGREE")):
            text = os.environ.get(var)
            if text is None:
                continue
            try:
                value = int(text)
            except ValueError:
                value = 0
            if value <= 0:
                raise ValueError(f"{var} must be a positive integer, not {text!r}")
            values[field] = value
        return cls(**values)


def _default_budgets() -> Budgets:
    # importing the package never fails on the environment; the CLI reports
    # a malformed variable as a usage error before it computes anything
    try:
        return Budgets.from_env()
    except ValueError:
        return Budgets()


DEFAULT_BUDGETS = _default_budgets()


def _order_spec(order: MonomialOrder) -> tuple:
    desc = order.descriptor()
    table = order.table
    if desc["type"] == "grevlex":
        return ("grevlex", table.weights)
    if desc["type"] == "lex":
        return ("lex", len(table))
    return ("block", desc["front"], table.weights)


def _primitive(p: Polynomial) -> tuple:
    """(scale, iterms): p = scale * iterms with iterms integer, content 1."""
    den = 1
    for _, c in p.terms:
        den = lcm(den, c.denominator)
    nums = [(m, int(c * den)) for m, c in p.terms]
    g = 0
    for _, v in nums:
        g = gcd(g, v)
    if g == 0:
        return Fraction(0), []
    return Fraction(g, den), [(m, v // g) for m, v in nums]


def _to_polynomial(table: VariableTable, scale: Fraction, iterms) -> Polynomial:
    return Polynomial(table, [(m, scale * c) for m, c in iterms])


@dataclass(frozen=True)
class GBData:
    polys: tuple
    kps: tuple
    spec: tuple
    lts: tuple  # leading monomials, ascending


def _buchberger(generators: Sequence[Polynomial], order: MonomialOrder,
                budgets: Budgets) -> GBData:
    table = order.table
    spec = _order_spec(order)
    weights = table.weights
    wcap = budgets.max_degree // 2

    basis: list = []
    for g in generators:
        if g.is_zero():
            continue
        _, iterms = _primitive(g)
        kp = K.kp_make(iterms, spec)
        if kp is not None:
            basis.append(kp)

    def wdeg(mono) -> int:
        return sum(e * w for e, w in zip(mono, weights))

    for kp in basis:
        if wdeg(kp[1]) > wcap:
            raise BudgetExceeded(
                f"generator degree {2 * wdeg(kp[1])} exceeds budget {budgets.max_degree}",
                kind="degree", limit=budgets.max_degree, observed=2 * wdeg(kp[1]),
            )

    pairs: list = []
    done: set = set()

    def push_pairs(j: int):
        for i in range(j):
            lcm_m = tuple(max(a, b) for a, b in zip(basis[i][1], basis[j][1]))
            heapq.heappush(pairs, (wdeg(lcm_m), K.key_of(spec, lcm_m), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if (i, j) in done:
            continue
        done.add((i, j))
        fi, fj = basis[i], basis[j]
        lcm_m = tuple(max(a, b) for a, b in zip(fi[1], fj[1]))
        # product criterion: coprime leading monomials reduce to zero for free
        if all(a == 0 or b == 0 for a, b in zip(fi[1], fj[1])):
            continue
        # chain criterion: a third element divides the lcm and both its pairs
        # with i and j are already settled
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(basis[k][1], lcm_m):
                ik = (min(i, k), max(i, k))
                jk = (min(j, k), max(j, k))
                if ik in done and jk in done:
                    skip = True
                    break
        if skip:
            continue
        s = K.kp_spoly(fi, fj, spec)
        if s is None:
            continue
        _, _, nf = K.kp_normal_form(s, basis, spec)
        if not nf:
            continue
        kp = K.kp_make(nf, spec)
        d = wdeg(kp[1])
        if d > wcap:
            raise BudgetExceeded(
                f"basis element of degree {2 * d} exceeds budget {budgets.max_degree}",
                kind="degree", limit=budgets.max_degree, observed=2 * d,
            )
        if len(basis) >= budgets.max_basis:
            raise BudgetExceeded(
                f"basis size {len(basis) + 1} exceeds budget {budgets.max_basis}",
                kind="basis", limit=budgets.max_basis, observed=len(basis) + 1,
            )
        basis.append(kp)
        push_pairs(len(basis) - 1)

    # minimalize: ascending leading terms, drop anything an earlier one divides
    minimal: list = []
    for kp in sorted(basis, key=lambda t: t[0]):
        if not any(mono_divides(h[1], kp[1]) for h in minimal):
            minimal.append(kp)

    # tail-reduce sequentially; leading terms are pairwise non-divisible so
    # they survive and the outcome is the unique reduced basis
    for idx in range(len(minimal)):
        others = minimal[:idx] + minimal[idx + 1 :]
        if not others:
            continue
        _, _, nf = K.kp_normal_form(minimal[idx], others, spec)
        kp = K.kp_make(nf, spec)
        if kp[1] != minimal[idx][1]:
            raise VerificationError("tail reduction disturbed a leading term")
        minimal[idx] = kp

    polys = tuple(
        Polynomial(table, [(m, Fraction(c, kp[2])) for m, c in K.kp_iterms(kp)])
        for kp in minimal
    )
    return GBData(polys=polys, kps=tuple(minimal), spec=spec,
                  lts=tuple(kp[1] for kp in minimal))


def _verify_s_criterion(data: GBData) -> None:
    """Assert that every S-polynomial of the basis reduces to zero.

    The product-criterion skip is unconditionally sound (coprime leading
    terms), so it is the only shortcut allowed here.
    """
    kps = data.kps
    for i in range(len(kps)):
        for j in range(i + 1, len(kps)):
            if all(a == 0 or b == 0 for a, b in zip(kps[i][1], kps[j][1])):
                continue
            s = K.kp_spoly(kps[i], kps[j], data.spec)
            _, _, nf = K.kp_normal_form(s, list(kps), data.spec)
            if nf:
                raise VerificationError(
                    f"S-polynomial of basis elements {i}, {j} does not reduce to zero"
                )


class Ideal:
    """An ideal with a preferred order and verified reduced-basis caching."""

    def __init__(self, table: VariableTable, generators: Iterable[Polynomial],
                 order: MonomialOrder | None = None):
        self.table = table
        self.order = order or GrevlexOrder(table)
        if self.order.table != table:
            raise ValueError("order is for a different table")
        gens = []
        for g in generators:
            if g.table != table:
                raise ValueError("generator from a different table")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._cache: dict = {}
        # like the bases in _cache, derived ideals are kept regardless of the
        # budgets they were computed under
        self._colons: dict = {}
        self._sums: dict = {}

    def __repr__(self) -> str:
        return f"Ideal({len(self.generators)} gens over {self.table!r})"

    def _order_key(self, order: MonomialOrder) -> tuple:
        return tuple(sorted(order.descriptor().items()))

    def _fill(self, order: MonomialOrder, data: GBData) -> GBData:
        _verify_s_criterion(data)
        self._cache[self._order_key(order)] = data
        return data

    def _gb(self, order: MonomialOrder | None = None,
            budgets: Budgets | None = None) -> GBData:
        order = order or self.order
        key = self._order_key(order)
        if key not in self._cache:
            data = _buchberger(self.generators, order, budgets or DEFAULT_BUDGETS)
            self._fill(order, data)
        return self._cache[key]

    def groebner_basis(self, order: MonomialOrder | None = None,
                       budgets: Budgets | None = None) -> tuple:
        """The reduced Groebner basis: monic, inter-reduced, ascending."""
        return self._gb(order, budgets).polys

    def normal_form(self, p: Polynomial, order: MonomialOrder | None = None,
                    budgets: Budgets | None = None) -> Polynomial:
        if p.table != self.table:
            raise ValueError("polynomial from a different table")
        data = self._gb(order, budgets)
        scale, iterms = _primitive(p)
        kp = K.kp_make(iterms, data.spec)
        if kp is not None:
            # kp_make normalizes to a positive head; recover the stripped sign
            if dict(iterms).get(kp[1], 0) < 0:
                scale = -scale
        sn, sd, nf = K.kp_normal_form(kp, list(data.kps), data.spec)
        return _to_polynomial(self.table, scale * Fraction(sn, sd), nf)

    def contains(self, p: Polynomial, budgets: Budgets | None = None) -> bool:
        return self.normal_form(p, budgets=budgets).is_zero()

    def contains_ideal(self, other: "Ideal", budgets: Budgets | None = None) -> bool:
        return all(self.contains(g, budgets=budgets) for g in other.generators)

    def equals(self, other: "Ideal", budgets: Budgets | None = None) -> bool:
        """Mutual containment, checked generator by generator."""
        return self.contains_ideal(other, budgets) and other.contains_ideal(self, budgets)

    def sum_with(self, extra: Iterable[Polynomial]) -> "Ideal":
        """I + ⟨extra⟩, memoized per tuple of extra generators."""
        extra = tuple(extra)
        if extra not in self._sums:
            self._sums[extra] = Ideal(self.table, self.generators + extra, self.order)
        return self._sums[extra]

    # -- elimination-based operations --------------------------------------

    def _fresh_tag(self) -> str:
        name = "t"
        while name in self.table:
            name += "t"
        return name

    def intersect(self, other: "Ideal", budgets: Budgets | None = None) -> "Ideal":
        """I ∩ J by tag elimination: the t-free part of ⟨t·I, (1−t)·J⟩.

        The elimination order restricts to this ideal's own grevlex on the
        t-free monomials, so the filtered reduced basis is cached directly as
        the intersection's reduced basis.
        """
        if other.table != self.table:
            raise ValueError("ideals over different tables")
        tag = self._fresh_tag()
        ext = self.table.prepend(tag, 2)
        t = Polynomial.variable(ext, tag)
        one = Polynomial.one(ext)
        gens = [t * g.reindex(ext) for g in self.generators]
        gens += [(one - t) * g.reindex(ext) for g in other.generators]
        data = _buchberger(gens, BlockOrder(ext, 1), budgets or DEFAULT_BUDGETS)
        # a t-free leading term forces the whole element t-free under the
        # block order, and the restriction of the reduced extended basis is
        # the reduced basis of the intersection for this table's grevlex
        kept = [
            Polynomial(self.table, [(m[1:], c) for m, c in g.terms])
            for g in data.polys
            if g.leading_monomial(BlockOrder(ext, 1))[0] == 0
        ]
        result = Ideal(self.table, kept, GrevlexOrder(self.table))
        spec = _order_spec(result.order)
        kps = []
        for g in kept:
            _, iterms = _primitive(g)
            kps.append(K.kp_make(iterms, spec))
        rdata = GBData(polys=tuple(kept), kps=tuple(kps), spec=spec,
                       lts=tuple(kp[1] for kp in kps))
        result._fill(result.order, rdata)
        return result

    def colon(self, f: Polynomial, budgets: Budgets | None = None) -> "Ideal":
        """(I : f) via intersect(I, ⟨f⟩) followed by exact division by f.

        Inexact division signals a bug, never bad input.  The result is
        certified before it is memoized per divisor: every generator times f
        reduces to zero modulo I, and I is contained in the result.
        """
        if f.is_zero():
            raise ZeroDivisionError("colon by the zero polynomial")
        if f in self._colons:
            return self._colons[f]
        inter = self.intersect(Ideal(self.table, [f], self.order), budgets)
        quots = [g.exact_divide(f) for g in inter.groebner_basis(budgets=budgets)]
        result = Ideal(self.table, quots, self.order)
        for q in quots:
            if not self.contains(q * f, budgets=budgets):
                raise VerificationError("colon generator times f is not in the ideal")
        if not result.contains_ideal(self, budgets):
            raise VerificationError("colon result does not contain the ideal")
        self._colons[f] = result
        return result

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "variables": [[n, d] for n, d in zip(self.table.names, self.table.degrees)],
            "order": self.order.descriptor(),
            "generators": [str(g) for g in self.generators],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Ideal":
        try:
            table = VariableTable(
                [v[0] for v in payload["variables"]],
                [int(v[1]) for v in payload["variables"]],
            )
            order = order_from_descriptor(table, payload["order"])
            gens = [parse_polynomial(table, s) for s in payload["generators"]]
        except (KeyError, IndexError, TypeError) as exc:
            raise ParseError(f"malformed ideal payload: {exc}") from exc
        return cls(table, gens, order)


@dataclass(frozen=True)
class HilbertSeries:
    """Graded dimensions by cohomological degree (all odd degrees are zero).

    dims[k] is the dimension in cohomological degree 2k.  exact means the
    leading-term ideal is cofinite and the top standard monomial lies within
    max_degree, so the series is the complete polynomial.
    """

    dims: tuple
    max_degree: int
    exact: bool

    def dimension(self, degree: int) -> int:
        if degree < 0 or degree % 2 == 1:
            return 0
        k = degree // 2
        if k < len(self.dims):
            return self.dims[k]
        if self.exact:
            return 0
        raise ValueError(f"degree {degree} beyond computed bound {self.max_degree}")

    def total(self) -> int:
        if not self.exact:
            raise ValueError("series is truncated; total dimension unknown")
        return sum(self.dims)


def _std_monomials_of_weight(lts: Sequence, weights: Sequence[int], w: int) -> list:
    """Standard monomials (not divisible by any lt) of exact weight w."""
    n = len(weights)
    if any(not any(m) for m in lts):
        return []  # unit ideal
    by_last: list = [[] for _ in range(n)]
    for m in lts:
        last = max(i for i, e in enumerate(m) if e)
        by_last[last].append(m)
    out: list = []
    e = [0] * n

    def rec(i: int, rem: int):
        if i == n:
            if rem == 0:
                out.append(tuple(e))
            return
        for ei in range(rem // weights[i] + 1):
            e[i] = ei
            if all(
                any(m[j] > e[j] for j in range(i + 1)) for m in by_last[i]
            ):
                rec(i + 1, rem - ei * weights[i])
        e[i] = 0

    rec(0, w)
    return out


class QuotientRing:
    """A presented graded quotient with lazy standard-monomial bookkeeping."""

    def __init__(self, ideal: Ideal, budgets: Budgets | None = None):
        self.ideal = ideal
        self.table = ideal.table
        self.budgets = budgets or DEFAULT_BUDGETS
        self._std: dict = {}

    def __repr__(self) -> str:
        return f"QuotientRing({self.table!r} / {len(self.ideal.generators)} gens)"

    def _lts(self) -> tuple:
        return self.ideal._gb(budgets=self.budgets).lts

    def normal_form(self, p: Polynomial) -> Polynomial:
        return self.ideal.normal_form(p, budgets=self.budgets)

    def contains(self, p: Polynomial) -> bool:
        return self.ideal.contains(p, budgets=self.budgets)

    def std_monomials(self, degree: int) -> list:
        """Standard monomials of the given cohomological degree, ascending."""
        if degree < 0 or degree % 2 == 1:
            return []
        w = degree // 2
        if w not in self._std:
            monos = _std_monomials_of_weight(self._lts(), self.table.weights, w)
            order = GrevlexOrder(self.table)
            monos.sort(key=order.key)
            self._std[w] = monos
        return self._std[w]

    def graded_dimension(self, degree: int) -> int:
        return len(self.std_monomials(degree))

    def graded_basis(self, degree: int) -> list:
        return [Polynomial(self.table, [(m, Fraction(1))]) for m in self.std_monomials(degree)]

    def is_cofinite(self) -> bool:
        """True when every variable has a pure power among the leading terms."""
        lts = self._lts()
        if any(not any(m) for m in lts):
            return True  # unit ideal
        n = len(self.table)
        for i in range(n):
            if not any(m[i] and all(e == 0 for j, e in enumerate(m) if j != i) for m in lts):
                return False
        return True

    def top_degree(self) -> int:
        """Largest degree with a standard monomial (cofinite quotients only)."""
        if not self.is_cofinite():
            raise ValueError("quotient is not finite-dimensional")
        lts = self._lts()
        if any(not any(m) for m in lts):
            return -1  # zero ring: no standard monomials at all
        n = len(self.table)
        bound = 0
        for i in range(n):
            pure = min(
                m[i] for m in lts if m[i] and all(e == 0 for j, e in enumerate(m) if j != i)
            )
            bound += (pure - 1) * self.table.weights[i]
        top = -1
        for w in range(bound, -1, -1):
            if _std_monomials_of_weight(lts, self.table.weights, w):
                top = 2 * w
                break
        return top

    def total_dimension(self) -> int:
        top = self.top_degree()
        return sum(self.graded_dimension(d) for d in range(0, top + 1, 2))

    def hilbert_series(self, max_degree: int) -> HilbertSeries:
        cof = self.is_cofinite()
        exact = False
        if cof:
            top = self.top_degree()
            exact = top <= max_degree
        dims = tuple(self.graded_dimension(2 * k) for k in range(max_degree // 2 + 1))
        return HilbertSeries(dims=dims, max_degree=max_degree, exact=exact)

    def plus(self, extra: Iterable[Polynomial]) -> "QuotientRing":
        return QuotientRing(self.ideal.sum_with(extra), self.budgets)

    def localized_rank(self, xname: str = "x") -> int:
        """Dimension over Q(x) after inverting x.

        Uses a block order whose front is every variable except x (which must
        be the last table variable): the x-free parts of the leading terms
        generate the extended leading-term ideal over Q(x), so the rank is the
        count of their standard monomials.
        """
        if self.table.names[-1] != xname:
            raise ValueError(f"{xname} must be the last variable")
        n = len(self.table)
        order = BlockOrder(self.table, n - 1)
        data = self.ideal._gb(order, self.budgets)
        ylts = [m[:-1] for m in data.lts]
        minimal: list = []
        for m in sorted(ylts):
            if not any(mono_divides(h, m) for h in minimal):
                minimal.append(m)
        if any(not any(m) for m in minimal):
            return 0
        yweights = self.table.weights[:-1]
        for i in range(n - 1):
            if not any(
                m[i] and all(e == 0 for j, e in enumerate(m) if j != i) for m in minimal
            ):
                raise ValueError("localized module has infinite rank")
        bound = 0
        for i in range(n - 1):
            pure = min(
                m[i] for m in minimal if m[i] and all(e == 0 for j, e in enumerate(m) if j != i)
            )
            bound += (pure - 1) * yweights[i]
        total = 0
        for w in range(bound + 1):
            total += len(_std_monomials_of_weight(minimal, yweights, w))
        return total


def formality_check(ring: QuotientRing, xname: str = "x", slack: int = 3) -> bool:
    """Freeness over Q[x] via the series identity dim_d(R) = Σ_k dim_{d−2k}(R/x).

    Checked degreewise up to the top degree of R/⟨x⟩ plus slack steps; R/⟨x⟩
    must be finite-dimensional for the bound to exist.
    """
    x = Polynomial.variable(ring.table, xname)
    mod_x = ring.plus([x])
    if not mod_x.is_cofinite():
        raise ValueError("quotient by x is not finite-dimensional")
    top = mod_x.top_degree()
    bound = top + 2 * slack
    for d in range(0, bound + 1, 2):
        expected = sum(mod_x.graded_dimension(d - 2 * k) for k in range(d // 2 + 1))
        if ring.graded_dimension(d) != expected:
            return False
    return True
