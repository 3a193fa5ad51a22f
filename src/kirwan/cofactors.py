"""Membership traces: express an ideal element in terms of the generators.

A slow but fully tracked Buchberger: every basis element and every reduction
remembers its representation as a combination of the original generators, so
a successful reduction of the target to zero yields explicit cofactors q_i
with sum(q_i * g_i) = target, verified by expansion before returning.

Fraction arithmetic on Polynomial throughout: a standalone utility for
small-instance checks, used by no pipeline stage and kept apart from the
main Groebner engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceeded, VerificationError
from .ideals import Budgets, DEFAULT_BUDGETS
from .rings import (
    GrevlexOrder,
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
)


class _Tracked:
    __slots__ = ("poly", "cof")

    def __init__(self, poly: Polynomial, cof: list):
        self.poly = poly
        self.cof = cof


def _mono_times(p: Polynomial, mono, coef: Fraction) -> Polynomial:
    return p * Polynomial(p.table, [(mono, coef)])


def _reduce_tracked(f: _Tracked, basis: Sequence[_Tracked],
                    order: MonomialOrder) -> _Tracked:
    """Full normal form with cofactor bookkeeping: f - sum(cof·gens) stays fixed."""
    table = order.table
    rem = Polynomial.zero(table)
    work = f.poly
    cof = list(f.cof)
    while not work.is_zero():
        lm, lc = work.leading_term(order)
        hit = None
        for b in basis:
            bm, _ = b.poly.leading_term(order)
            if mono_divides(bm, lm):
                hit = b
                break
        if hit is None:
            head = Polynomial(table, [(lm, lc)])
            rem = rem + head
            work = work - head
            continue
        bm, bc = hit.poly.leading_term(order)
        q_mono = mono_div(lm, bm)
        q = lc / bc
        work = work - _mono_times(hit.poly, q_mono, q)
        for i, c in enumerate(hit.cof):
            if not c.is_zero():
                cof[i] = cof[i] - _mono_times(c, q_mono, q)
    return _Tracked(rem, cof)


def express_in_ideal(generators: Sequence[Polynomial], target: Polynomial,
                     order: MonomialOrder | None = None,
                     budgets: Budgets | None = None) -> list | None:
    """Cofactors [q_i] with sum(q_i*g_i) = target, or None if not a member.

    The returned combination is verified by exact expansion; a verification
    failure raises instead of returning a wrong certificate.
    """
    budgets = budgets or DEFAULT_BUDGETS
    m = len(generators)
    if not any(not g.is_zero() for g in generators):
        if not target.is_zero():
            return None
        return [Polynomial.zero(g.table) for g in generators]
    table = next(g.table for g in generators if not g.is_zero())
    order = order or GrevlexOrder(table)

    basis: list = []
    for i, g in enumerate(generators):
        if g.is_zero():
            continue
        cof = [Polynomial.zero(table) for _ in range(m)]
        cof[i] = Polynomial.one(table)
        basis.append(_Tracked(g, cof))

    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]

    def pair_key(p):
        i, j = p
        lm = mono_lcm(
            basis[i].poly.leading_monomial(order), basis[j].poly.leading_monomial(order)
        )
        return (table.weighted_degree(lm), order.key(lm))

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        mi, ci = fi.poly.leading_term(order)
        mj, cj = fj.poly.leading_term(order)
        lm = mono_lcm(mi, mj)
        if lm == tuple(a + b for a, b in zip(mi, mj)):
            continue  # coprime leading terms
        qi, qj = mono_div(lm, mi), mono_div(lm, mj)
        s_poly = _mono_times(fi.poly, qi, 1 / ci) - _mono_times(fj.poly, qj, 1 / cj)
        s_cof = [
            _mono_times(a, qi, 1 / ci) - _mono_times(b, qj, 1 / cj)
            for a, b in zip(fi.cof, fj.cof)
        ]
        red = _reduce_tracked(_Tracked(s_poly, s_cof), basis, order)
        if red.poly.is_zero():
            continue
        if len(basis) >= budgets.max_basis:
            raise BudgetExceeded(
                f"tracked basis size {len(basis) + 1} exceeds {budgets.max_basis}",
                kind="basis", limit=budgets.max_basis, observed=len(basis) + 1,
            )
        new_idx = len(basis)
        basis.append(red)
        pairs.extend((new_idx, k) for k in range(new_idx))

    start = _Tracked(target, [Polynomial.zero(table) for _ in range(m)])
    red = _reduce_tracked(start, basis, order)
    if not red.poly.is_zero():
        return None
    # target - sum(cof·g) = remainder = 0, with cof accumulated negatively
    cofactors = [Polynomial.zero(table) - c for c in red.cof]
    check = Polynomial.zero(table)
    for q, g in zip(cofactors, generators):
        check = check + q * g
    if check != target:
        raise VerificationError("membership trace failed its expansion check")
    return cofactors
