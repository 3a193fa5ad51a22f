"""Cohomology rings of hyperpolygon spaces, with certificates.

Edge lengths pick out the short subsets; those index the generators A_S,
B_S on the torus side and C_S, D_S on the invariant side.  The equivariant
ring is the invariant ambient modulo (J : e), the annihilator of
e = a2*(x^2 - a2).  Exact Hilbert numerators and the Hilbert exact sequence
certify the predicted presentation by D-classes to be (J : e).  Every
membership e*D_S in J is certified by an explicit combination of C-classes,
the closed form the Hausel-Proudfoot induction on |S| unrolls to, and
checked once by expansion modulo the ring relations.  The torus side is
reached through the parity split A_S, B_S = (C_S +- a*E_S)/2: closed forms
g*D_S in <E_T> and identities c_i*E_S + C_S = 0, checked the same way, show
that (I : e') is the a2 -> a^2 lift of (J : e), with no P-side basis.  The
ordinary ring is recovered by killing x and compared against the
independent degree-truncation model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .abelianize import KirwanPresentation, RootDatum
from .errors import NonGenericError, VerificationError
from .ideals import Budgets, DEFAULT_BUDGETS, Ideal, QuotientRing, formality_check
from .rings import Polynomial, VariableTable, parse_polynomial


def _subsets(S: Iterable[int]):
    """Every subset of S as a frozenset, by size and then in the
    lexicographic order of the sorted tuples."""
    S = sorted(S)
    return (frozenset(T) for r in range(len(S) + 1) for T in combinations(S, r))


class EdgeLengths:
    """Positive rational lengths xi_1..xi_n, generic: no subset sums to half."""

    def __init__(self, xi: Sequence):
        vals = tuple(Fraction(v) for v in xi)
        if len(vals) < 3:
            raise ValueError("need at least three edge lengths")
        if any(v <= 0 for v in vals):
            raise ValueError("edge lengths must be positive")
        self.xi = vals
        self.n = len(vals)
        self.total = sum(vals)
        half = self.total / 2
        for S in _subsets(range(1, self.n + 1)):
            if sum(vals[i - 1] for i in S) == half:
                raise NonGenericError(
                    f"subset {sorted(S)} sums to half the total length", witness=S)

    def is_short(self, S: Iterable[int]) -> bool:
        s = sum(self.xi[i - 1] for i in S)
        return s < self.total - s

    def __repr__(self) -> str:
        return f"EdgeLengths({', '.join(str(v) for v in self.xi)})"


def _canon(S: Iterable[int]) -> tuple:
    return tuple(sorted(S))


class ShortSubsetTable:
    """All short subsets of {1..n}."""

    def __init__(self, lengths: EdgeLengths):
        self.n = lengths.n
        self.shorts = tuple(S for S in _subsets(range(1, self.n + 1)) if lengths.is_short(S))
        self._short_set = set(self.shorts)
        if len(self.shorts) != 2 ** (self.n - 1):
            raise VerificationError("short-subset count is not 2^(n-1)")
        full = frozenset(range(1, self.n + 1))
        for S in self.shorts:
            if (full - S) in self._short_set:
                raise VerificationError("a subset and its complement are both short")

    def is_short(self, S: Iterable[int]) -> bool:
        return frozenset(S) in self._short_set

    def nonempty_shorts(self) -> list:
        return [S for S in self.shorts if S]


class HyperpolygonInstance:
    """One edge-length vector with its rings, classes, and caches.

    P-side ambient: Q[c_1..c_n, a, x] with relations c_i^2 - a^2 and the
    involution a -> -a; invariant-side ambient: Q[c_1..c_n, a2, x] with a2
    of degree 4 standing for a^2, relations c_i^2 - a2.  x sits last in both
    tables, as QuotientRing.localized_rank needs.
    """

    def __init__(self, lengths: EdgeLengths, budgets: Budgets | None = None):
        self.lengths = lengths
        self.n = lengths.n
        self.table = ShortSubsetTable(lengths)
        self.budgets = budgets or DEFAULT_BUDGETS
        n = self.n
        cnames = tuple(f"c{i}" for i in range(1, n + 1))
        self.table_P = VariableTable(cnames + ("a", "x"), (2,) * (n + 2))
        self.table_Q = VariableTable(cnames + ("a2", "x"), (2,) * n + (4, 2))
        self.relations_P = tuple(
            parse_polynomial(self.table_P, f"c{i}^2 - a^2") for i in range(1, n + 1)
        )
        self.relations_Q = tuple(
            parse_polynomial(self.table_Q, f"c{i}^2 - a2") for i in range(1, n + 1)
        )
        self.euler_e = parse_polynomial(self.table_Q, "a2*x^2 - a2^2")
        self.euler_eprime = parse_polynomial(self.table_P, "a*x^2 - a^3")
        # a2 -> a^2: the invariant ambient into the P-side ambient
        self.embed = {"a2": parse_polynomial(self.table_P, "a^2")}
        self._rel_ideal_Q = Ideal(self.table_Q, list(self.relations_Q), budgets=self.budgets)
        self._prefixes: dict = {}
        self._D_cache: dict = {}
        self._J: Ideal | None = None
        self._I: Ideal | None = None
        self._Dp: Ideal | None = None
        self._bridge = False

    def _pair(self, S: frozenset) -> tuple:
        """(C_S, E_S), built once: C_S = A_S + B_S and E_S = (A_S - B_S)/a.

        A_S = prod over i in S of (x - a_i) times prod over i not in S of
        b_i, with a_i, b_i = (c_i +- a)/2, and a -> -a swaps a_i with b_i, so
        B_S is the image of A_S.  Write 2*A_S = p0 + a*p1 with p0, p1 in the
        invariant ambient (a^2 = a2): then C_S = p0 and E_S = p1.  Each
        factor is q0 - a/2, q0 = x - c_i/2 for i in S and c_i/2 otherwise, and

            (p0, p1)*(q0 - a/2) = (p0*q0 - a2*p1/2, p1*q0 - p0/2).

        The product over 1..k, from (2, 0), is kept under (k, S n {1..k}), so
        subsets that share a prefix share its partial products: each is built
        once, and none on the P side."""
        t = self.table_Q
        node = self._prefixes.get((self.n, S))
        if node is None:
            if not S <= frozenset(range(1, self.n + 1)):
                raise ValueError(f"{sorted(S)} is not a subset of 1..{self.n}")
            x, half = Polynomial.variable(t, "x"), Fraction(-1, 2)
            node = (Polynomial.constant(t, 2), Polynomial.zero(t))
            for k in range(1, self.n + 1):
                key = (k, S.intersection(range(1, k + 1)))
                if key not in self._prefixes:
                    (p0, p1), c = node, Polynomial.variable(t, f"c{k}") / 2
                    q0 = x - c if k in S else c
                    self._prefixes[key] = (
                        Polynomial.dot(t, ((p0, q0), (p1, Polynomial.variable(t, "a2") * half))),
                        Polynomial.dot(t, ((p1, q0), (p0, Polynomial.constant(t, half)))))
                node = self._prefixes[key]
        return node

    def C(self, S: Iterable[int]) -> Polynomial:
        return self._pair(frozenset(S))[0]

    def E(self, S: Iterable[int]) -> Polynomial:
        return self._pair(frozenset(S))[1]

    def D(self, S: Iterable[int]) -> Polynomial:
        S = frozenset(S)
        if S not in self._D_cache:
            if not S:
                raise ValueError("D_S needs a nonempty subset")
            full = frozenset(range(1, self.n + 1))
            if not S <= full:
                raise ValueError(f"{sorted(S)} is not a subset of 1..{self.n}")
            comp = full - S
            m = min(S)
            anchor = min(comp) if comp else None
            c = {i: Polynomial.variable(self.table_Q, f"c{i}") for i in full}
            x = Polynomial.variable(self.table_Q, "x")
            out = Polynomial.one(self.table_Q)
            for i in sorted(S):
                if i != m:
                    out = out * (c[i] - x)
            for j in sorted(comp):
                if j != anchor:
                    out = out * (c[anchor] + c[j])
            self._D_cache[S] = out
        return self._D_cache[S]


# -- the ideals -------------------------------------------------------------


def ideal_J(inst: HyperpolygonInstance) -> Ideal:
    if inst._J is None:
        gens = [inst.C(S) for S in inst.table.shorts]
        inst._J = Ideal(inst.table_Q, gens + list(inst.relations_Q), budgets=inst.budgets)
    return inst._J


def ideal_I(inst: HyperpolygonInstance) -> Ideal:
    """I = <A_S, B_S> + relations over the P-side ambient, with
    A_S, B_S = (C_S +- a*E_S)/2 lifted by a2 -> a^2.  A report builds no
    P-side ideal (see second_iso_check); the P-side route is the reference."""
    if inst._I is None:
        a = Polynomial.variable(inst.table_P, "a")
        gens: list = []
        for S in inst.table.shorts:
            C, E = (p.substitute(inst.embed, table=inst.table_P) for p in inst._pair(S))
            gens.extend([(C + a * E) / 2, (C - a * E) / 2])
        inst._I = Ideal(inst.table_P, gens + list(inst.relations_P), budgets=inst.budgets)
    return inst._I


def d_presentation_ideal(inst: HyperpolygonInstance) -> Ideal:
    if inst._Dp is None:
        gens = [inst.D(S) for S in inst.table.nonempty_shorts()]
        inst._Dp = Ideal(inst.table_Q, gens + list(inst.relations_Q), budgets=inst.budgets)
    return inst._Dp


def annihilator_ideal(inst: HyperpolygonInstance) -> Ideal:
    """(J : e): the D-presentation, certified as the colon (memoized on J)."""
    return ideal_J(inst).colon(inst.euler_e, candidate=d_presentation_ideal(inst))


def prop_hp(inst: HyperpolygonInstance) -> QuotientRing:
    """The equivariant ring: the D-presentation, certified to be (J : e)."""
    return QuotientRing(annihilator_ideal(inst))


# -- membership certificates -----------------------------------------------


@dataclass
class MembershipCertificate:
    """e*D_S as an explicit combination of C_T over short T contained in S.

    The identity holds modulo the ring relations c_i^2 - a2.  method is
    "recursion" for a certificate built here, from the closed form the
    Hausel-Proudfoot induction on |S| unrolls to, or whatever a loaded
    payload carries.
    """

    subset: frozenset
    target: Polynomial
    combination: tuple
    method: str

    def verify(self, inst: HyperpolygonInstance) -> bool:
        """Every T short and inside S, and sum coeff*C_T - target, expanded in
        one pass, reduces to zero modulo the ring relations."""
        if not all(inst.table.is_short(T) and frozenset(T) <= self.subset
                   for T, _ in self.combination):
            return False
        pairs = [(coeff, inst.C(T)) for T, coeff in self.combination]
        pairs.append((Polynomial.constant(inst.table_Q, -1), self.target))
        return _vanishes(inst, pairs)

    def summary(self) -> dict:
        """The payload without the target, which e*D_S determines."""
        return {
            "subset": list(_canon(self.subset)),
            "method": self.method,
            "terms": [
                [list(_canon(T)), str(coeff)] for T, coeff in self.combination
            ],
        }

    def to_dict(self) -> dict:
        return {**self.summary(), "target": str(self.target)}

    @classmethod
    def from_dict(cls, inst: HyperpolygonInstance, payload: Mapping) -> "MembershipCertificate":
        S = frozenset(payload["subset"])
        cert = cls(
            subset=S,
            target=inst.euler_e * inst.D(S),
            combination=tuple(
                (frozenset(T), parse_polynomial(inst.table_Q, text))
                for T, text in payload["terms"]
            ),
            method=payload.get("method", "loaded"),
        )
        if not cert.verify(inst):
            raise VerificationError("loaded certificate failed re-verification")
        return cert


def _vanishes(inst: HyperpolygonInstance, pairs: Iterable[tuple]) -> bool:
    """sum f*g over (f, g) pairs, expanded in one pass by Polynomial.dot,
    reduces to zero modulo the ring relations c_i^2 - a2: the one check
    behind every certificate and identity of this module."""
    return inst._rel_ideal_Q.normal_form(Polynomial.dot(inst.table_Q, pairs)).is_zero()


def _closed_form(inst: HyperpolygonInstance, S: frozenset) -> dict:
    """Coefficients {T: coeff} with sum coeff*C_T = e*D_S modulo relations:
    with m = min S and lam = 2^(n-|S|-1),

        e*D_S = sum over every U contained in S - {m} of
                (-1)^|U| * lam*(x + c_m) * ((2x - c_m)*C_U - c_m*C_{U u {m}}).

    This unrolls the Hausel-Proudfoot induction on |S|.  Let l be the top
    index in play and C', D' the classes built from the indices below it.
    If l is in S and l != m, D_S = (c_l - x)*D'_{S-{l}} and C_T - C_{T u {l}} = (c_l - x)*C'_T, so a
    certificate {T: c} of e*D'_{S-{l}} becomes {T: c, T u {l}: -c} for e*D_S.
    Relabelling indices so that the top one lies in S, the induction peels
    every element of S but m and stops at the base S = {k} over indices
    1..k, k = n-|S|+1:

        e*D_k = 2^(k-2) * (x + c_k) * ((2x - c_k)*C_empty - c_k*C_k).

    No relabelling moves c_m before the base, where c_k becomes c_m, so
    lam = 2^(k-2), and each peeled index doubles the terms with a sign.
    """
    m = min(S)
    x, c = Polynomial.variable(inst.table_Q, "x"), Polynomial.variable(inst.table_Q, f"c{m}")
    front = (x + c) * Fraction(2) ** (inst.n - len(S) - 1)
    # (-1)^|U|*(2x - c_m) at T = U and (-1)^|U|*(-c_m) at T = U u {m}, signed by |T|
    parts = {False: front * (x * 2 - c), True: front * c}
    return {T: parts[m in T] * (-1) ** len(T) for T in _subsets(S)}


def certify_membership(inst: HyperpolygonInstance, S: Iterable[int]) -> MembershipCertificate:
    """The closed-form certificate for e*D_S, verified by expansion.

    A returned certificate has passed verify(); one that fails it raises
    VerificationError.
    """
    S = frozenset(S)
    if not S or not inst.table.is_short(S):
        raise ValueError(f"{sorted(S)} is not a nonempty short subset")
    combination = tuple(sorted(_closed_form(inst, S).items(),
                               key=lambda kv: (len(kv[0]), _canon(kv[0]))))
    cert = MembershipCertificate(S, inst.euler_e * inst.D(S), combination, "recursion")
    if not cert.verify(inst):
        raise VerificationError(f"certificate for {sorted(S)} failed its expansion check")
    return cert


# -- ordinary side ----------------------------------------------------------


def konno_ring(n: int, budgets: Budgets | None = None) -> QuotientRing:
    """Q[c_1..c_n] modulo the square differences and every monomial of
    algebraic degree n-2: the ordinary cohomology presentation.

    Modulo c_i^2 - c_n^2 every monomial of degree n-2 is c_T*c_n^(n-2-|T|)
    for the set T of indices below n with an odd exponent, so those
    2^(n-1) - 1 monomials generate the same ideal."""
    if n < 3:
        raise ValueError("need n >= 3")
    table = VariableTable(tuple(f"c{i}" for i in range(1, n + 1)), (2,) * n)
    gens = [
        parse_polynomial(table, f"c{i}^2 - c{n}^2") for i in range(1, n)
    ]
    for r in range(n - 1):
        for T in combinations(range(n - 1), r):
            e = tuple(int(i in T) for i in range(n - 1)) + (n - 2 - r,)
            gens.append(Polynomial(table, [(e, Fraction(1))]))
    return QuotientRing(Ideal(table, gens, budgets=budgets))


def ordinary_ring(inst: HyperpolygonInstance) -> QuotientRing:
    """The equivariant ring modulo x."""
    return prop_hp(inst).plus([Polynomial.variable(inst.table_Q, "x")])


def betti_numbers(inst: HyperpolygonInstance) -> list:
    return ordinary_ring(inst).dimensions()


def basis_dimension_check(inst: HyperpolygonInstance) -> dict:
    """Degree-2(n-2) part of Q/L, L = <c_i^2 - a2, x>: its dimension and the
    independence of the images of the D_S there.

    Every D_S has degree 2(n-2), so in that degree L + <D> = L + span(D_S),
    and L + <D> is the ideal of the ordinary ring, whose basis is verified.
    The D images are independent iff they span a subspace of the full count,
    that is iff the dimension drops by the number of D_S."""
    deg = 2 * (inst.n - 2)
    x = Polynomial.variable(inst.table_Q, "x")
    ring = QuotientRing(Ideal(inst.table_Q, list(inst.relations_Q) + [x], budgets=inst.budgets))
    dimension = ring.graded_dimension(deg)
    expected = len(inst.table.nonempty_shorts())
    return {
        "degree": deg,
        "dimension": dimension,
        "expected": expected,
        "independent": dimension - ordinary_ring(inst).graded_dimension(deg) == expected,
    }


def low_degree_rigidity(inst: HyperpolygonInstance) -> bool:
    """Below degree 2(n-2), (J : e) adds nothing to J: equal graded dimensions.

    J is contained in (J : e), so LT(J) lies in LT(J : e) and each degree's
    standard monomials of (J : e) are among those of J; equal counts mean
    identical standard monomials degreewise."""
    RJ = QuotientRing(ideal_J(inst))
    RK = QuotientRing(annihilator_ideal(inst))
    return all(RJ.graded_dimension(d) == RK.graded_dimension(d)
               for d in range(0, 2 * (inst.n - 2), 2))


def _g_closed_form(inst: HyperpolygonInstance, S: frozenset) -> dict:
    """Coefficients {T: coeff} with sum coeff*E_T = g*D_S modulo relations,
    g = x^2 - a2: with m = min S and lam = 2^(n-|S|-1),

        g*D_S = lam*(x + c_m) * sum over every T contained in S of (-1)^|T| * E_T.

    _closed_form's peel argument carries over.  c_l - x is fixed by
    a -> -a, so A_T - A_{T u {l}} = (c_l - x)*A'_T splits into its parts:
    C_T - C_{T u {l}} = (c_l - x)*C'_T and E_T - E_{T u {l}} = (c_l - x)*E'_T.
    A certificate {T: c} of g*D'_{S-{l}} becomes {T: c, T u {l}: -c} for
    g*D_S, and only the base changes: over indices 1..k,

        g*D_k = 2^(k-2) * (x + c_k) * (E_empty - E_k).
    """
    x, c = Polynomial.variable(inst.table_Q, "x"), Polynomial.variable(inst.table_Q, f"c{min(S)}")
    front = (x + c) * Fraction(2) ** (inst.n - len(S) - 1)
    return {T: front * (-1) ** len(T) for T in _subsets(S)}


def bridge_check(inst: HyperpolygonInstance) -> bool:
    """Each generator F of (J : e), lifted by a2 -> a^2, has e'*F in I.

    Parity split: W acts by a -> -a, so the P-side ambient is R_Q + a*R_Q
    with a^2 = a2.  A_S, B_S = (C_S +- a*E_S)/2, so I = <C_S, a*E_S> plus
    relations, and the odd part of I is a*(J + E), E = <E_S> + relations.
    (J : e) is generated by the relations and the D_S (prop_hp's
    certificate), and e' = a*g with g = x^2 - a2.  One expansion per
    nonempty short S checks g*D_S = sum coeff_T*E_T (_g_closed_form), so
    e'*D_S = sum coeff_T*(A_T - B_T) lies in I, and (J : e) lies in (E : g).
    Returns True, memoized on the instance; a failed check raises
    VerificationError naming S.  No P-side ideal is built.
    """
    if not inst._bridge:
        annihilator_ideal(inst)
        g = parse_polynomial(inst.table_Q, "x^2 - a2")
        for S in inst.table.nonempty_shorts():
            pairs = [(coeff, inst.E(T)) for T, coeff in _g_closed_form(inst, S).items()]
            pairs.append((-g, inst.D(S)))
            if not _vanishes(inst, pairs):
                raise VerificationError(
                    f"g*D_S closed form for {sorted(S)} failed its expansion check")
        inst._bridge = True
    return True


def second_iso_check(inst: HyperpolygonInstance) -> bool:
    """The W-fixed part of R_P/(I : e') is R_Q/(J : e).

    For short S and i not in S, write A_S = b_i*A' and B_S = a_i*B'.  With
    a_i + b_i = c_i, a_i - b_i = a and a_i*b_i = (c_i^2 - a^2)/4 = 0,
    a*(c_i*E_S + C_S) = (c_i + a)*A_S - (c_i - a)*B_S = 2*a_i*b_i*(A' - B')
    vanishes, and a is no zero divisor modulo the relations, so

        c_i*E_S + C_S = 0,  and, times c_i,  a2*E_S + c_i*C_S = 0.

    One expansion per short S checks the first, at i = min of the
    complement.  So J lies in E and a2*E in J: I = J + a*E, even part J and
    odd part a*E.  Then f0 + a*f1 is in (I : e') iff g*f0 is in E and
    e*f1 = a2*g*f1 is in J, so (I : e') = (E : g) + a*(J : e).  With
    bridge_check's memberships the sandwich

        K in (E : g) in (J : e) = K,   K the D-presentation,

    holds, its middle step because a2*E lies in J.  So (I : e') = K + a*K,
    the a2 -> a^2 lift of K, and its W-fixed part is R_Q/K itself.  Returns
    True; a failed check raises VerificationError naming S.
    """
    bridge_check(inst)
    for S in inst.table.shorts:
        i = min(frozenset(range(1, inst.n + 1)) - S)
        c = Polynomial.variable(inst.table_Q, f"c{i}")
        if not _vanishes(inst, ((c, inst.E(S)), (Polynomial.one(inst.table_Q), inst.C(S)))):
            raise VerificationError(
                f"c{i}*E_S + C_S for {sorted(S)} is not zero modulo the relations")
    return True


def su2_datum() -> RootDatum:
    table = VariableTable(("a", "x"), (2, 2))
    return RootDatum(table, [Polynomial.variable(table, "a")], 2)


def second_iso_presentation(inst: HyperpolygonInstance) -> KirwanPresentation:
    return KirwanPresentation(
        QuotientRing(ideal_J(inst)),
        inst.euler_e,
        full_ring=QuotientRing(ideal_I(inst)),
        euler_prime=inst.euler_eprime,
        w_action={"a": -Polynomial.variable(inst.table_P, "a")},
        embed=inst.embed,
        datum=su2_datum(),
    )


def presentation_summary(inst: HyperpolygonInstance) -> dict:
    return {
        "ring_P": {
            "variables": [[n, d] for n, d in zip(inst.table_P.names, inst.table_P.degrees)],
            "relations": [str(r) for r in inst.relations_P],
            "ideal_I_generators": 2 * len(inst.table.shorts),
        },
        "ring_Q": {
            "variables": [[n, d] for n, d in zip(inst.table_Q.names, inst.table_Q.degrees)],
            "relations": [str(r) for r in inst.relations_Q],
            "ideal_J_generators": len(inst.table.shorts),
        },
        "euler_e": str(inst.euler_e),
        "euler_eprime": str(inst.euler_eprime),
        "D_classes": {
            ",".join(str(i) for i in _canon(S)): str(inst.D(S))
            for S in inst.table.nonempty_shorts()
        },
    }


def run_stage(name: str, fn, timings: dict | None = None):
    start = time.perf_counter()
    try:
        return fn()
    except Exception as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise
    finally:
        if timings is not None:
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


def full_report(lengths: EdgeLengths, budgets: Budgets | None = None,
                with_certificates: bool = True) -> dict:
    """Everything about one instance, as plain data; deterministic given
    lengths and budgets except for the "timings" block, which callers who
    need byte-stable output should drop.  Failures propagate with a .stage
    attribute."""
    timings: dict = {}

    def _stage(name, fn):
        return run_stage(name, fn, timings)

    inst = _stage("instance", lambda: HyperpolygonInstance(lengths, budgets=budgets))
    n = inst.n
    report: dict = {
        "n": n,
        "xi": [str(v) for v in lengths.xi],
        "budgets": {
            "max_basis": inst.budgets.max_basis,
            "max_degree": inst.budgets.max_degree,
        },
        "shorts": {
            "count": len(inst.table.shorts),
            "subsets": [list(_canon(S)) for S in inst.table.shorts],
        },
        "presentation": _stage("presentation", lambda: presentation_summary(inst)),
    }

    ring = _stage("prop_hp", lambda: prop_hp(inst))
    report["prop_hp"] = {
        "colon_equals_D_presentation": True,
        "equivariant_hilbert": _stage("prop_hp", lambda: [
            ring.graded_dimension(d) for d in range(0, 4 * (n - 2) + 2, 2)
        ]),
    }

    betti = _stage("betti", lambda: betti_numbers(inst))
    report["betti"] = betti

    kdims = _stage("konno", lambda: konno_ring(n, budgets=inst.budgets).dimensions())
    report["konno"] = {"betti": kdims, "agrees": kdims == betti}

    report["basis_check"] = _stage("basis_check", lambda: basis_dimension_check(inst))

    if with_certificates:
        # certify_membership raises unless the certificate verifies
        report["certificates"] = [
            {**_stage("certificates", lambda S=S: certify_membership(inst, S)).summary(),
             "verified": True}
            for S in inst.table.nonempty_shorts()
        ]

    report["formality"] = {
        "ring_J": _stage(
            "formality", lambda: formality_check(QuotientRing(ideal_J(inst)), "x")
        ),
        "ring_colon": _stage("formality", lambda: formality_check(ring, "x")),
    }

    rank = _stage("localized", lambda: ring.localized_rank("x"))
    ktotal = sum(kdims)
    report["localized"] = {
        "rank": rank,
        "konno_total": ktotal,
        "agrees": rank == ktotal,
    }

    report["low_degree_rigidity"] = _stage(
        "low_degree_rigidity", lambda: low_degree_rigidity(inst)
    )
    report["bridge"] = _stage("bridge", lambda: bridge_check(inst))

    report["second_iso"] = _stage("second_iso", lambda: second_iso_check(inst))
    report["timings"] = {name: round(t, 6) for name, t in sorted(timings.items())}
    from . import __version__

    report["version"] = __version__
    return report
