"""Groebner engine: reduced bases, normal forms, intersections, colon ideals,
and the graded bookkeeping (standard monomials, Hilbert series, localized
rank) that every ring presentation here is built on.

Buchberger runs the normal pair-selection strategy (minimal weighted lcm
degree, then lcm order key, then indices).  One routine, _gm_update, keeps
its pairs: the Gebauer–Möller update, on packed leading monomials, as each
element joins.  _verify_s_criterion folds the same routine over a finished
basis and reduces the pairs it keeps, which decides exactly whether the basis
is a Groebner basis.  Every basis is verified before it is used: at cache
fill, and intersect's extended basis before it is restricted.  Resource
budgets raise hard errors rather than truncating.  An ideal also keeps the
colon ideals and sums derived from it, so each is computed (and certified)
once however many callers ask for it.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _kernel as K
from ._kernel.pure import _packer
from .errors import BudgetExceeded, ParseError, VerificationError
from .rings import (
    BlockOrder,
    GrevlexOrder,
    MonomialOrder,
    Polynomial,
    VariableTable,
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


def _kp(p: Polynomial, spec: tuple) -> tuple:
    """(kp, sign): p = sign * p.scale * kp, kp nonzero p's kernel form in spec.

    A polynomial's terms already are a kernel tail for its table's grevlex.
    """
    t = p.packed
    table = p.table
    if spec == table.spec:
        k, m, c = t[0]
        return (-k, table.unpack(m), c, t[1:], m), 1
    kp = K.kp_make([(table.unpack(m), c) for _, m, c in t], spec)
    return kp, (1 if (kp[4], kp[2]) in {(m, c) for _, m, c in t} else -1)


def _polynomial(table: VariableTable, terms, scale: Fraction, spec: tuple) -> Polynomial:
    """scale * terms, kernel triples descending in spec (re-keyed unless
    spec is the table's grevlex)."""
    if spec != table.spec:
        terms = sorted(table.packed_monomial(table.unpack(m)) + (c,) for _, m, c in terms)
    return Polynomial.from_packed(table, terms, scale)


@dataclass(frozen=True)
class GBData:
    kps: tuple
    spec: tuple
    lts: tuple  # leading monomials, ascending


def _gm_update(lms: list, nonzero: list, live: dict, guard: int) -> list:
    """Gebauer–Möller UPDATE as element t = len(lms) - 1 joins elements 0..t-1.

    lms holds packed leading monomials, nonzero the matching masks of nonzero
    fields (this call appends t's), live maps each pending pair (i, j), i < j,
    to its packed lcm.  Drops from live each pair (i, j) with lm(t) | lcm(i, j)
    that differs from both lcm(i, t) and lcm(j, t) (criterion B).  Of the new
    pairs (i, t) it keeps one per lcm that no other new lcm properly divides
    (criteria M and F), unless a pair with that lcm has coprime leading
    monomials (product criterion); it adds those to live and returns them as
    (lcm, i, t).  Gebauer & Möller, "On an installation of Buchberger's
    algorithm", JSC 1988.
    """
    ones = guard >> 15
    full = (guard << 1) - ones
    h = lms[-1]
    t = len(nonzero)
    hz = ((h | guard) - ones) & guard
    # fieldwise max over the kernel's 16-bit fields, guard bit on top: a
    # field's guard bit survives (a | guard) - h iff a >= h there
    with_t = []
    for a in lms[:t]:
        m = ((((a | guard) - h) & guard) >> 15) * 0xFFFF
        with_t.append((a & m) | (h & (full ^ m)))
    for pair in [p for p, lcm in live.items()
                 if not (lcm - h) & guard and with_t[p[0]] != lcm and with_t[p[1]] != lcm]:
        del live[pair]
    first: dict = {}  # lcm -> first i with it, or None once a coprime pair has it
    for i, lcm in enumerate(with_t):
        if nonzero[i] & hz:
            first.setdefault(lcm, i)
        else:
            first[lcm] = None
    nonzero.append(hz)
    # a divisor is fieldwise smaller, so also smaller as an int
    minimal: list = []
    new = []
    for lcm in sorted(first):
        if any(not (lcm - m) & guard for m in minimal):
            continue
        minimal.append(lcm)
        i = first[lcm]
        if i is not None:
            live[i, t] = lcm
            new.append((lcm, i, t))
    return new


def _buchberger(generators: Sequence[Polynomial], order: MonomialOrder,
                budgets: Budgets) -> GBData:
    table = order.table
    spec = _order_spec(order)
    weights = table.weights
    wcap = budgets.max_degree // 2
    nvars = len(table)
    mask = table.guard_mask

    def wdeg(mono) -> int:
        return sum(e * w for e, w in zip(mono, weights))

    gens = [_kp(g, spec)[0] for g in generators if not g.is_zero()]
    for kp in gens:
        if wdeg(kp[1]) > wcap:
            raise BudgetExceeded(
                f"generator degree {2 * wdeg(kp[1])} exceeds budget {budgets.max_degree}",
                kind="degree", limit=budgets.max_degree, observed=2 * wdeg(kp[1]),
            )

    basis: list = []
    lms: list = []
    nonzero: list = []
    live: dict = {}
    pairs: list = []  # heap of (lcm degree, lcm key, i, j); stale once out of live

    def join(kp):
        basis.append(kp)
        lms.append(kp[4])
        for lcm, i, j in _gm_update(lms, nonzero, live, mask):
            lcm_m = table.unpack(lcm)
            heapq.heappush(pairs, (wdeg(lcm_m), K.key_of(spec, lcm_m), i, j))

    for kp in gens:
        join(kp)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        s = K.kp_spoly(basis[i], basis[j], spec)
        if s is None:
            continue
        _, _, nf = K.kp_normal_form(s, basis, spec)
        if not nf:
            continue
        kp = K.kp_from_terms(nf, nvars)
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
        join(kp)

    # minimalize: ascending leading terms, drop anything an earlier one divides
    minimal: list = []
    for kp in sorted(basis, key=lambda t: t[0]):
        if not any(not (kp[4] - h[4]) & mask for h in minimal):
            minimal.append(kp)

    # tail-reduce sequentially; leading terms are pairwise non-divisible so
    # they survive and the outcome is the unique reduced basis
    for idx in range(len(minimal)):
        others = minimal[:idx] + minimal[idx + 1 :]
        if not others:
            continue
        _, _, nf = K.kp_normal_form(minimal[idx], others, spec)
        kp = K.kp_from_terms(nf, nvars)
        if kp[1] != minimal[idx][1]:
            raise VerificationError("tail reduction disturbed a leading term")
        minimal[idx] = kp

    return GBData(kps=tuple(minimal), spec=spec, lts=tuple(kp[1] for kp in minimal))


def _verify_s_criterion(data: GBData) -> None:
    """Raise VerificationError unless data.kps is a Groebner basis.

    Folds _gm_update over g_1, ..., g_n, then reduces the S-polynomial of each
    pair left, in that order, modulo the whole basis.  This is Buchberger's
    algorithm with Gebauer–Möller updates on an input that needs no new
    element, and it decides exactly "G is a Groebner basis":

    - G is one iff S(g_i, g_j) reduces to zero for every pair in a set whose
      syzygies σ_ij generate the syzygies of the leading terms (Cox, Little
      & O'Shea, "Ideals, Varieties, and Algorithms", Ch. 2 §10).
    - If lm(k) divides lcm(i, j), σ_ij is a monomial combination of σ_ik and
      σ_kj, whose lcms divide lcm(i, j).  Criterion M drops (i, t) for a
      (k, t) whose lcm properly divides lcm(i, t); F drops it for the one
      (k, t) kept, or a coprime one, with the same lcm; B drops (i, j) only
      when lcm(i, t) and lcm(j, t) both properly divide lcm(i, j).  By
      induction on the lcm under divisibility, then on the later index, each
      dropped σ lies in the span of the kept and the coprime pairs.
    - A coprime pair reduces to zero outright (Buchberger's first criterion).

    So a basis fails here iff some S-polynomial does not reduce to zero.
    """
    kps = data.kps
    if not kps:
        return
    guard = _packer(len(kps[0][1]))[1]
    lms: list = []
    nonzero: list = []
    live: dict = {}
    for kp in kps:
        lms.append(kp[4])
        _gm_update(lms, nonzero, live, guard)
    for i, j in live:
        s = K.kp_spoly(kps[i], kps[j], data.spec)
        _, _, nf = K.kp_normal_form(s, kps, data.spec)
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
        data = self._gb(order, budgets)
        return tuple(
            _polynomial(self.table, ((-kp[0], kp[4], kp[2]),) + kp[3], Fraction(1, kp[2]), data.spec)
            for kp in data.kps
        )

    def normal_form(self, p: Polynomial, order: MonomialOrder | None = None,
                    budgets: Budgets | None = None) -> Polynomial:
        if p.table != self.table:
            raise ValueError("polynomial from a different table")
        data = self._gb(order, budgets)
        kp, sign = _kp(p, data.spec) if p else (None, 1)
        sn, sd, nf = K.kp_normal_form(kp, data.kps, data.spec)
        return _polynomial(self.table, nf, Fraction(sign * sn, sd) * p.scale, data.spec)

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
        _verify_s_criterion(data)
        # a t-free leading term forces the whole element t-free under the
        # block order, and the restriction of the reduced extended basis is
        # the reduced basis of the intersection for this table's grevlex:
        # dropping the tag's zero field keeps each element's term order
        kept = [
            Polynomial.from_packed(self.table, [
                self.table.packed_monomial(ext.unpack(m)[1:]) + (c,)
                for _, m, c in ((-kp[0], kp[4], kp[2]),) + kp[3]
            ], Fraction(1, kp[2]))
            for kp in data.kps
            if kp[1][0] == 0
        ]
        result = Ideal(self.table, kept, GrevlexOrder(self.table))
        kps = tuple(_kp(g, self.table.spec)[0] for g in kept)
        rdata = GBData(kps=kps, spec=self.table.spec, lts=tuple(kp[1] for kp in kps))
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


def _pure_power_bound(lts: Sequence, weights: Sequence[int]) -> int | None:
    """Σ (p_i - 1)·w_i over the least pure powers x_i^p_i among lts, a bound
    on the weight of every standard monomial; None if some x_i has none."""
    pure: list = [None] * len(weights)
    for m in lts:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            pure[i] = m[i] if pure[i] is None else min(pure[i], m[i])
    if None in pure:
        return None
    return sum((p - 1) * w for p, w in zip(pure, weights))


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

    def coordinates(self, p: Polynomial, degree: int) -> list:
        """Q coordinates of p's normal form in the basis std_monomials(degree)."""
        index = {m: k for k, m in enumerate(self.std_monomials(degree))}
        row = [Fraction(0)] * len(index)
        for m, c in self.normal_form(p).terms:
            row[index[m]] = c
        return row

    def is_cofinite(self) -> bool:
        """True when every variable has a pure power among the leading terms."""
        lts = self._lts()
        # the unit ideal counts as cofinite
        return any(not any(m) for m in lts) or _pure_power_bound(lts, self.table.weights) is not None

    def top_degree(self) -> int:
        """Largest degree with a standard monomial (cofinite quotients only)."""
        if not self.is_cofinite():
            raise ValueError("quotient is not finite-dimensional")
        lts = self._lts()
        if any(not any(m) for m in lts):
            return -1  # zero ring: no standard monomials at all
        for w in range(_pure_power_bound(lts, self.table.weights), -1, -1):
            if _std_monomials_of_weight(lts, self.table.weights, w):
                return 2 * w
        return -1

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
        if any(not any(m) for m in ylts):
            return 0
        yweights = self.table.weights[:-1]
        bound = _pure_power_bound(ylts, yweights)
        if bound is None:
            raise ValueError("localized module has infinite rank")
        return sum(len(_std_monomials_of_weight(ylts, yweights, w)) for w in range(bound + 1))


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
