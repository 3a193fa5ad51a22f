"""Groebner engine: reduced bases, normal forms, intersections, colon ideals,
and the graded bookkeeping (standard monomials, exact Hilbert numerators,
localized rank) that every ring presentation here is built on.

Buchberger runs the normal pair-selection strategy (minimal weighted lcm
degree, then lcm order key, then indices).  One routine, _gm_update, keeps
its pairs: the Gebauer–Möller update, on packed leading monomials, as each
element joins.  _verify_s_criterion folds the same routine over a finished
basis and reduces the pairs it keeps, which decides exactly whether the basis
is a Groebner basis.  Every basis is verified before it is used: at cache
fill, and intersect's extended basis before it is restricted.

One loop, _complete, builds every basis.  It takes an optional seed, a basis
already known to be a Groebner basis, and queues no pair inside it: a sum
I + ⟨f⟩ is completed from I's verified reduced basis plus f, and a basis known
by construction (intersect's restriction, the lift of a colon) is installed
through it with no other generator.  The seed only saves work: the result is
verified at cache fill like every other basis.  Colon ideals
are certified by the Hilbert exact sequence, whatever proposed them, and an
ideal keeps the colons and sums derived from it, so each is computed (and
certified) once however many callers ask for it.

Resource budgets raise hard errors rather than truncating.  There is one
budget per ideal, fixed when it is built: every Groebner run on its behalf
runs under it, and every ideal derived from it (a sum, a colon, the colon
candidate elimination proposes, an intersection) inherits it.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import le
from typing import Callable, Iterable, Mapping, Sequence

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
    """The reduced Groebner basis of generators: _complete with no seed."""
    return _complete((), generators, order, budgets)


def _complete(seed: Sequence[tuple], generators: Sequence[Polynomial],
              order: MonomialOrder, budgets: Budgets) -> GBData:
    """The reduced Groebner basis of seed + generators, by Buchberger's loop.

    seed holds kernel polynomials in the order's spec that already form a
    Groebner basis.  They join first, through _gm_update as usual, but no
    pair between two of them is queued: each such S-polynomial reduces to
    zero modulo the seed.  That claim is not trusted.  Every element a seeded
    run drops as non-minimal must reduce to zero modulo the reduced basis
    (VerificationError otherwise), so the result generates the whole ideal,
    and the caller verifies the result with _verify_s_criterion before use.
    """
    table = order.table
    spec = _order_spec(order)
    weights = table.weights
    wcap = budgets.max_degree // 2
    nvars = len(table)
    mask = table.guard_mask

    def wdeg(mono) -> int:
        return sum(e * w for e, w in zip(mono, weights))

    basis: list = []
    lms: list = []
    nonzero: list = []
    live: dict = {}
    pairs: list = []  # heap of (lcm degree, lcm key, i, j); stale once out of live

    def join(kp, queue=True):
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
        lms.append(kp[4])
        new = _gm_update(lms, nonzero, live, mask)
        if not queue:
            live.clear()
            return
        for lcm, i, j in new:
            lcm_m = table.unpack(lcm)
            heapq.heappush(pairs, (wdeg(lcm_m), K.key_of(spec, lcm_m), i, j))

    for kp in seed:
        join(kp, queue=False)
    for g in generators:
        if not g.is_zero():
            join(_kp(g, spec)[0])

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        s = K.kp_spoly(basis[i], basis[j], spec)
        if s is None:
            continue
        _, _, nf = K.kp_normal_form(s, basis, spec)
        if nf:
            join(K.kp_from_terms(nf, nvars))

    # minimalize: ascending leading terms, drop anything an earlier one divides
    minimal: list = []
    dropped: list = []
    for kp in sorted(basis, key=lambda t: t[0]):
        if any(not (kp[4] - h[4]) & mask for h in minimal):
            dropped.append(kp)
        else:
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

    # without a seed the loop ends on a Groebner basis, which the dropped
    # elements reduce to zero modulo; a seed must show it
    if seed and any(K.kp_normal_form(kp, minimal, spec)[2] for kp in dropped):
        raise VerificationError("a seeded run dropped an element its reduced basis does not generate")
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


def _add_shifted(a: tuple, b: tuple, shift: int, sign: int) -> tuple:
    """a + sign·t^shift·b on integer coefficient tuples, trailing zeros dropped."""
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for k, c in enumerate(b):
        out[k + shift] += sign * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _hilbert_numerator(lts: Iterable, weights: Sequence[int]) -> tuple:
    """HN(R/M), HS(R/M) = HN / ∏(1 − t^w_i), for M = ⟨lts⟩ (exponent tuples);
    coefficients of t^0, t^1, ... by weight.

    Pivots on p = x_i^e, x_i in the most minimal generators, e its least
    exponent there: HN(M) = HN(M + ⟨p⟩) + t^(deg p)·HN(M : p), by the exact
    sequence 0 → R/(M:p)(−deg p) → R/M → R/(M+⟨p⟩) → 0, and both sides have a
    smaller exponent sum.  Pairwise coprime generators give ∏(1 − t^(deg m)).
    Bigatti, "Computation of Hilbert–Poincaré series", JPAA 1997.
    """
    gens: list = []
    # a divisor has the smaller exponent sum, so it is kept first
    for m in sorted(set(lts), key=sum):
        if not any(all(map(le, g, m)) for g in gens):
            gens.append(m)
    if gens and not any(gens[0]):
        return ()  # unit ideal
    n = len(weights)
    counts = [sum(1 for g in gens if g[i]) for i in range(n)]
    if max(counts, default=0) <= 1:
        out = (1,)
        for m in gens:
            out = _add_shifted(out, out, sum(e * w for e, w in zip(m, weights)), -1)
        return out
    i = counts.index(max(counts))
    e = min(g[i] for g in gens if g[i])
    plus = [g for g in gens if not g[i]] + [(0,) * i + (e,) + (0,) * (n - i - 1)]
    colon = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens]
    return _add_shifted(_hilbert_numerator(plus, weights),
                        _hilbert_numerator(colon, weights), e * weights[i], 1)


def _series_prefix(numerator: tuple, weights: Sequence[int], length: int) -> list:
    """The first length coefficients, by weight, of the power series
    numerator / ∏(1 − t^w_i)."""
    q = list(numerator[:length]) + [0] * max(0, length - len(numerator))
    for w in weights:
        for k in range(w, length):
            q[k] += q[k - w]
    return q


def _hilbert_series(numerator: tuple, weights: Sequence[int]) -> tuple | None:
    """HS = numerator / ∏(1 − t^w_i) as a polynomial, dimensions by weight, or
    None when the quotient is infinite-dimensional: past the numerator the
    series obeys a recurrence of order Σw_i, so it is a polynomial iff its
    last Σw_i coefficients below len(numerator) vanish."""
    q = _series_prefix(numerator, weights, len(numerator))
    top = max(len(numerator) - sum(weights), 0)
    return None if any(q[top:]) else tuple(q[:top])


class Ideal:
    """An ideal with a preferred order and verified reduced-basis caching.

    budgets (None: DEFAULT_BUDGETS) bounds every Groebner run of this ideal,
    and every ideal derived from it inherits the same budgets.
    """

    def __init__(self, table: VariableTable, generators: Iterable[Polynomial],
                 order: MonomialOrder | None = None, budgets: Budgets | None = None):
        self.table = table
        self.budgets = budgets or DEFAULT_BUDGETS
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
        self._colons: dict = {}
        self._hn: tuple | None = None
        self._sums: dict = {}
        self._base: tuple | None = None  # (ideal, extra) for a sum

    def __repr__(self) -> str:
        return f"Ideal({len(self.generators)} gens over {self.table!r})"

    def _order_key(self, order: MonomialOrder) -> tuple:
        return tuple(sorted(order.descriptor().items()))

    def _fill(self, order: MonomialOrder, data: GBData) -> GBData:
        _verify_s_criterion(data)
        self._cache[self._order_key(order)] = data
        return data

    def _gb(self, order: MonomialOrder | None = None) -> GBData:
        order = order or self.order
        key = self._order_key(order)
        if key not in self._cache:
            if self._base is None:
                data = _buchberger(self.generators, order, self.budgets)
            else:
                base, extra = self._base
                data = _complete(base._gb(order).kps, extra, order, self.budgets)
            self._fill(order, data)
        return self._cache[key]

    @classmethod
    def from_basis(cls, table: VariableTable, basis: Iterable[Polynomial],
                   order: MonomialOrder | None = None,
                   budgets: Budgets | None = None) -> "Ideal":
        """The ideal generated by basis, a Groebner basis for the order,
        installed as its basis: the seeded loop with no other generator, then
        _fill, which raises VerificationError unless it is one."""
        ideal = cls(table, basis, order, budgets)
        spec = _order_spec(ideal.order)
        seed = [_kp(g, spec)[0] for g in ideal.generators]
        ideal._fill(ideal.order, _complete(seed, (), ideal.order, ideal.budgets))
        return ideal

    def groebner_basis(self, order: MonomialOrder | None = None) -> tuple:
        """The reduced Groebner basis: monic, inter-reduced, ascending."""
        data = self._gb(order)
        return tuple(
            _polynomial(self.table, ((-kp[0], kp[4], kp[2]),) + kp[3], Fraction(1, kp[2]), data.spec)
            for kp in data.kps
        )

    def normal_form(self, p: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
        if p.table != self.table:
            raise ValueError("polynomial from a different table")
        data = self._gb(order)
        kp, sign = _kp(p, data.spec) if p else (None, 1)
        sn, sd, nf = K.kp_normal_form(kp, data.kps, data.spec)
        return _polynomial(self.table, nf, Fraction(sign * sn, sd) * p.scale, data.spec)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def equals(self, other: "Ideal") -> bool:
        """Mutual containment, checked generator by generator."""
        return self.contains_ideal(other) and other.contains_ideal(self)

    def sum_with(self, extra: Iterable[Polynomial]) -> "Ideal":
        """I + ⟨extra⟩, memoized per tuple of extra generators; its bases are
        completed from I's verified bases plus extra."""
        extra = tuple(extra)
        if extra not in self._sums:
            total = Ideal(self.table, self.generators + extra, self.order, self.budgets)
            total._base = (self, extra)
            self._sums[extra] = total
        return self._sums[extra]

    # -- elimination-based operations --------------------------------------

    def _fresh_tag(self) -> str:
        name = "t"
        while name in self.table:
            name += "t"
        return name

    def intersect(self, other: "Ideal") -> "Ideal":
        """I ∩ J by tag elimination: the t-free part of ⟨t·I, (1−t)·J⟩.

        The elimination order restricts to this ideal's own grevlex on the
        t-free monomials, so the filtered reduced basis is installed as the
        intersection's reduced basis.
        """
        if other.table != self.table:
            raise ValueError("ideals over different tables")
        tag = self._fresh_tag()
        ext = self.table.prepend(tag, 2)
        t = Polynomial.variable(ext, tag)
        one = Polynomial.one(ext)
        gens = [t * g.reindex(ext) for g in self.generators]
        gens += [(one - t) * g.reindex(ext) for g in other.generators]
        data = _buchberger(gens, BlockOrder(ext, 1), self.budgets)
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
        return Ideal.from_basis(self.table, kept, GrevlexOrder(self.table), self.budgets)

    def hilbert_numerator(self) -> tuple:
        """HN(R/I), HS(R/I) = HN / ∏(1 − t^w_i), from the verified basis's
        leading monomials, whose standard monomials are a graded basis of R/I
        for homogeneous I; a non-homogeneous generator raises ValueError."""
        if not all(g.is_homogeneous() for g in self.generators):
            raise ValueError("Hilbert numerator of a non-homogeneous ideal")
        return self._numerator()

    def _numerator(self) -> tuple:
        """HN of the verified basis's leading monomials, computed once."""
        if self._hn is None:
            self._hn = _hilbert_numerator(self._gb().lts, self.table.weights)
        return self._hn

    def colon(self, f: Polynomial, candidate: "Ideal | None" = None,
              prove: Callable[[Polynomial], None] | None = None) -> "Ideal":
        """(I : f) for homogeneous I and f, certified and memoized per divisor.

        K is the candidate, or else the exact quotients by f of the basis of
        I ∩ ⟨f⟩.  Each generator q of K has q·f in I, so K ⊆ (I : f): by
        default q·f reduces to zero modulo I; given prove, prove(q) is the
        membership proof instead, and it raises unless q·f lies in I.  The
        exact sequence 0 → R/(I:f)(−deg f) → R/I → R/(I+⟨f⟩) → 0 gives
        HN(R/I) − HN(R/(I+⟨f⟩)) = t^(deg f)·HN(R/(I:f)); when HN(R/K)
        satisfies it too, the surjection R/K → R/(I:f) is between equal
        Hilbert series, so K = (I : f).  That check runs whatever prove is.
        A failure raises VerificationError, a non-homogeneous I, f or K
        ValueError.  A certified colon is returned again unless another
        candidate is given.
        """
        if f.is_zero():
            raise ZeroDivisionError("colon by the zero polynomial")
        cached = self._colons.get(f)
        if cached is not None and (candidate is None or candidate is cached):
            return cached
        if candidate is not None and candidate.table != self.table:
            raise ValueError("candidate from a different table")
        quotient = _add_shifted(self.hilbert_numerator(),
                                self.sum_with([f]).hilbert_numerator(), 0, -1)
        if candidate is None:
            inter = self.intersect(Ideal(self.table, [f], self.order, self.budgets))
            candidate = Ideal(self.table, [g.exact_divide(f) for g in inter.groebner_basis()],
                              self.order, self.budgets)
        numerator = candidate.hilbert_numerator()
        for q in candidate.generators:
            if prove is not None:
                prove(q)
            elif not self.contains(q * f):
                raise VerificationError("colon generator times f is not in the ideal")
        if _add_shifted(quotient, numerator, f.weighted_degree(), -1):
            raise VerificationError("colon candidate breaks the Hilbert exact sequence")
        self._colons[f] = candidate
        return candidate

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

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.table = ideal.table
        self._std: dict = {}

    def __repr__(self) -> str:
        return f"QuotientRing({self.table!r} / {len(self.ideal.generators)} gens)"

    def _lts(self) -> tuple:
        return self.ideal._gb().lts

    def normal_form(self, p: Polynomial) -> Polynomial:
        return self.ideal.normal_form(p)

    def contains(self, p: Polynomial) -> bool:
        return self.ideal.contains(p)

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
        """The number of standard monomials of the given cohomological degree:
        a coefficient of HN / ∏(1 − t^w_i), read off the verified basis's
        Hilbert numerator, for finite and infinite quotients alike."""
        if degree < 0 or degree % 2 == 1:
            return 0
        w = degree // 2
        return _series_prefix(self.ideal._numerator(), self.table.weights, w + 1)[w]

    def graded_basis(self, degree: int) -> list:
        return [Polynomial(self.table, [(m, Fraction(1))]) for m in self.std_monomials(degree)]

    def coordinates(self, p: Polynomial, degree: int) -> list:
        """Q coordinates of p's normal form in the basis std_monomials(degree)."""
        index = {m: k for k, m in enumerate(self.std_monomials(degree))}
        row = [Fraction(0)] * len(index)
        for m, c in self.normal_form(p).terms:
            row[index[m]] = c
        return row

    def _series(self) -> tuple | None:
        return _hilbert_series(self.ideal._numerator(), self.table.weights)

    def dimensions(self) -> list:
        """Graded dimensions in degrees 0, 2, ... up to the top (cofinite only)."""
        series = self._series()
        if series is None:
            raise ValueError("quotient is not finite-dimensional")
        return list(series)

    def is_cofinite(self) -> bool:
        """True when the quotient is finite-dimensional."""
        return self._series() is not None

    def top_degree(self) -> int:
        """Largest degree with a standard monomial, -1 for the zero ring."""
        return max(2 * len(self.dimensions()) - 2, -1)

    def total_dimension(self) -> int:
        return sum(self.dimensions())

    def plus(self, extra: Iterable[Polynomial]) -> "QuotientRing":
        return QuotientRing(self.ideal.sum_with(extra))

    def localized_rank(self, xname: str = "x") -> int:
        """Dimension over Q(x) after inverting x, for homogeneous I with x
        the last table variable (ValueError otherwise).

        Write y for the other variables.  Since I is homogeneous, R/I with x
        inverted is a graded module over Q[x, 1/x], whose nonzero homogeneous
        elements are units, so it is free; its rank is its dimension over
        Q(x) and also that of its fibre Q[y]/I|_(x=1).  Each element g of the
        grevlex basis is homogeneous and its leading term has the least power
        of x among its terms, so after x = 1 that term keeps the largest
        weighted degree: lt(g) with x = 1 is the leading term of g with x = 1
        for grevlex on y, and those g with x = 1 are a Groebner basis of
        I|_(x=1) (Bayer & Stillman, "A criterion for detecting
        m-regularity", Invent. Math. 87, 1987).  So the rank is the count of
        standard monomials of the x-free parts of the leading terms the
        ideal's basis already has.
        """
        if self.table.names[-1] != xname:
            raise ValueError(f"{xname} must be the last variable")
        if not all(g.is_homogeneous() for g in self.ideal.generators):
            raise ValueError("localized rank of a non-homogeneous ideal")
        yweights = self.table.weights[:-1]
        series = _hilbert_series(_hilbert_numerator([m[:-1] for m in self._lts()], yweights),
                                 yweights)
        if series is None:
            raise ValueError("localized module has infinite rank")
        return sum(series)


def formality_check(ring: QuotientRing, xname: str = "x") -> bool:
    """Freeness of R over Q[x]: HN(R/⟨x⟩) = (1 − t^w_x)·HN(R), exactly.

    R/⟨x⟩ must be finite-dimensional (ValueError otherwise), so R is finitely
    generated over Q[x] and free iff (0:x) = 0; the exact sequence
    0 → (0:x)(−w_x) → R(−w_x) → R → R/⟨x⟩ → 0 adds t^w_x·HN((0:x)) to the right.
    """
    x = Polynomial.variable(ring.table, xname)
    mod_x = ring.plus([x])
    if not mod_x.is_cofinite():
        raise ValueError("quotient by x is not finite-dimensional")
    numerator = ring.ideal.hilbert_numerator()
    wx = ring.table.weights[ring.table.index(xname)]
    return mod_x.ideal.hilbert_numerator() == _add_shifted(numerator, numerator, wx, -1)
