"""Cohomology rings of hyperpolygon spaces, with certificates.

Edge lengths pick out the short subsets; those index the generators A_S,
B_S on the torus side and C_S, D_S on the invariant side.  The equivariant
ring is the invariant ambient modulo (J : e), the annihilator of
e = a2*(x^2 - a2).  Exact Hilbert numerators and the Hilbert exact sequence
certify the predicted presentation by D-classes to be (J : e); its lift
a2 -> a^2 is the candidate for (I : e').  Every membership e*D_S in J is
certified by an explicit combination of C-classes, the closed form the
Hausel-Proudfoot induction on |S| unrolls to, and checked once by expansion
modulo the ring relations; the ordinary ring is recovered by killing x and
compared against the independent degree-truncation model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .abelianize import KirwanPresentation, RootDatum, verify_second_iso
from .errors import NonGenericError, VerificationError
from .ideals import Budgets, DEFAULT_BUDGETS, Ideal, QuotientRing, formality_check
from .rings import Polynomial, VariableTable, parse_polynomial


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
        for r in range(self.n + 1):
            for S in combinations(range(1, self.n + 1), r):
                if sum(vals[i - 1] for i in S) == half:
                    raise NonGenericError(
                        f"subset {sorted(S)} sums to half the total length",
                        witness=frozenset(S),
                    )

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
        shorts = []
        for r in range(self.n + 1):
            for S in combinations(range(1, self.n + 1), r):
                if lengths.is_short(S):
                    shorts.append(frozenset(S))
        shorts.sort(key=lambda S: (len(S), _canon(S)))
        self.shorts = tuple(shorts)
        self._short_set = set(shorts)
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
        # the torus-side letters a_i = (c_i + a)/2 and b_i = (c_i - a)/2
        self._letters = {
            i: (parse_polynomial(self.table_P, f"1/2*c{i} + 1/2*a"),
                parse_polynomial(self.table_P, f"1/2*c{i} - 1/2*a"))
            for i in range(1, n + 1)
        }
        self._AB_cache: dict = {}
        self._C_cache: dict = {}
        self._D_cache: dict = {}
        self._J: Ideal | None = None
        self._I: Ideal | None = None
        self._Dp: Ideal | None = None

    def weyl_involution(self) -> dict:
        return {"a": parse_polynomial(self.table_P, "-a")}

    def _AB(self, S: frozenset) -> tuple:
        """(A_S, B_S), built once: C_S and the generators of I share them.

        a -> -a swaps each a_i with b_i, so B_S is the image of A_S.  The map
        keeps every monomial, hence every order key and packed monomial, and
        only negates the terms with an odd power of a."""
        if S not in self._AB_cache:
            x = Polynomial.variable(self.table_P, "x")
            A = Polynomial.one(self.table_P)
            for i in range(1, self.n + 1):
                a, b = self._letters[i]
                A = A * (x - a) if i in S else A * b
            odd_a = self.table_P.pack(self.table_P.unit_exponents("a"))
            B = Polynomial.from_packed(
                self.table_P, [(k, m, -c if m & odd_a else c) for k, m, c in A.packed], A.scale)
            self._AB_cache[S] = A, B
        return self._AB_cache[S]

    def _even_to_Q(self, p: Polynomial) -> Polynomial:
        """Rewrite an even-in-a polynomial into the a2 ambient (a^2 -> a2)."""
        ai = self.table_P.index("a")

        def halve(exps):
            if exps[ai] % 2:
                raise VerificationError("odd powers of a failed to cancel")
            return exps[:ai] + (exps[ai] // 2,) + exps[ai + 1:]

        return p.map_monomials(self.table_Q, halve)

    def C(self, S: Iterable[int]) -> Polynomial:
        S = frozenset(S)
        if S not in self._C_cache:
            if not S <= frozenset(range(1, self.n + 1)):
                raise ValueError(f"{sorted(S)} is not a subset of 1..{self.n}")
            A, B = self._AB(S)
            self._C_cache[S] = self._even_to_Q(A + B)
        return self._C_cache[S]

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
    if inst._I is None:
        gens: list = []
        for S in inst.table.shorts:
            A, B = inst._AB(S)
            gens.extend([A, B])
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
        return inst._rel_ideal_Q.normal_form(Polynomial.dot(inst.table_Q, pairs)).is_zero()

    def to_dict(self) -> dict:
        return {
            "subset": list(_canon(self.subset)),
            "target": str(self.target),
            "method": self.method,
            "terms": [
                [list(_canon(T)), str(coeff)] for T, coeff in self.combination
            ],
        }

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
    c = Polynomial.variable(inst.table_Q, f"c{m}")
    x = Polynomial.variable(inst.table_Q, "x")
    front = (x + c) * Fraction(2) ** (inst.n - len(S) - 1)
    without_m, with_m = front * (x * 2 - c), front * -c
    rest = sorted(S - {m})
    out: dict = {}
    for r in range(len(rest) + 1):
        sign = (-1) ** r
        for U in map(frozenset, combinations(rest, r)):
            out[U] = without_m * sign
            out[U | {m}] = with_m * sign
    return out


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


def bridge_check(inst: HyperpolygonInstance) -> bool:
    """Each generator F of (J : e), lifted by a2 -> a^2, has e'*F in I.

    The lift is the candidate for (I : e'), certified and memoized on I for
    verify_second_iso.  Its basis is installed, not recomputed: a2 -> a^2
    keeps weighted degrees, and a monomial's a2 exponent k becomes the a
    exponent 2k, so grevlex (x last, then a2 or a) orders images as it
    orders monomials, and m divides m' iff their images divide.  So the
    S-pairs and reduction steps of (J : e)'s reduced basis map one to one,
    and its image is the reduced basis of the lift; that basis is verified
    before use, and a failed install raises.  When the lift is a proper
    part of (I : e'), elimination proposes the colon instead; only a lifted
    F with e'*F outside I is False.
    """
    I = ideal_I(inst)
    lifted = Ideal.from_basis(inst.table_P, [F.substitute(inst.embed, table=inst.table_P)
                                             for F in annihilator_ideal(inst).groebner_basis()],
                              budgets=inst.budgets)
    try:
        I.colon(inst.euler_eprime, candidate=lifted)
    except VerificationError:
        if not all(I.contains(inst.euler_eprime * F) for F in lifted.generators):
            return False
        I.colon(inst.euler_eprime)
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
        w_action=inst.weyl_involution(),
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
        certs = []
        for S in inst.table.nonempty_shorts():
            cert = _stage("certificates", lambda S=S: certify_membership(inst, S))
            payload = cert.to_dict()
            payload["verified"] = True  # certify_membership raises otherwise
            del payload["target"]
            certs.append(payload)
        report["certificates"] = certs

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

    report["second_iso"] = _stage(
        "second_iso", lambda: verify_second_iso(second_iso_presentation(inst))
    )
    report["timings"] = {name: round(t, 6) for name, t in sorted(timings.items())}
    from . import __version__

    report["version"] = __version__
    return report
