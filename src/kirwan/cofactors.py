"""Membership traces: express an ideal element in terms of the generators.

express_in_ideal reads the cofactors q_i with Σ q_i·g_i = f off one normal
form, by the tag-variable module encoding (Cox, Little & O'Shea, "Using
Algebraic Geometry", Ch. 5).  With fresh tags e_0, ..., e_m in front of the
table, let N = ⟨g_i·e_0 + e_i⟩ under the elimination order for e_0:

- Every generator of N has degree 1 in the tags, so N's reduced basis is
  homogeneous in them, and the normal form of f·e_0 is R-linear in
  e_0, ..., e_m.  N's part of tag degree 1 is the R-module spanned by the
  g_i·e_0 + e_i.
- So an e_0-free normal form Σ r_i·e_i says f·e_0 − Σ r_i·e_i =
  Σ a_i·(g_i·e_0 + e_i) with a_i in R, which gives f = Σ a_i·g_i and
  a_i = −r_i.  Conversely, if f = Σ q_i·g_i, then f·e_0 ≡ −Σ q_i·e_i is
  e_0-free, and under the elimination order an e_0-free polynomial reduces
  only by e_0-free basis elements, so the normal form is e_0-free.
- A zero generator g_i gives the generator e_i, so its cofactor is 0.

The basis is built by the one Groebner engine and S-criterion-verified like
every other basis.  A standalone utility for small-instance checks, used by
no pipeline stage.
"""

from __future__ import annotations

from typing import Sequence

from .errors import VerificationError
from .ideals import Budgets, Ideal
from .rings import BlockOrder, Polynomial, VariableTable


def express_in_ideal(generators: Sequence[Polynomial], target: Polynomial,
                     budgets: Budgets | None = None) -> list | None:
    """Cofactors [q_i] with sum(q_i*g_i) = target, or None if not a member.

    Every generator must lie on the target's table (ValueError otherwise).
    budgets (None: DEFAULT_BUDGETS) bounds the Groebner run of N, which
    raises BudgetExceeded past them.  The returned combination is verified
    by exact expansion; a verification failure raises instead of returning
    a wrong certificate.
    """
    table = target.table
    if any(g.table != table for g in generators):
        raise ValueError("generator from a different table than the target")
    if not generators:
        return [] if target.is_zero() else None
    m = len(generators)
    tags = []
    for i in range(m + 1):
        name = f"e{i}"
        while name in table:
            name = "_" + name
        tags.append(name)
    ext = VariableTable(tuple(tags) + table.names, (2,) * (m + 1) + table.degrees)
    e = [Polynomial.variable(ext, name) for name in tags]
    module = Ideal(ext, [g.reindex(ext) * e[0] + e[i + 1] for i, g in enumerate(generators)],
                   BlockOrder(ext, 1), budgets)
    rows: list = [[] for _ in generators]
    for exps, c in module.normal_form(target.reindex(ext) * e[0]).terms:
        if exps[0]:
            return None
        # tag degree 1 and no e_0: exactly one of e_1..e_m, to the first power
        rows[exps.index(1, 1, m + 1) - 1].append((exps[m + 1:], -c))
    cofactors = [Polynomial(table, row) for row in rows]
    if Polynomial.dot(table, zip(cofactors, generators)) != target:
        raise VerificationError("membership trace failed its expansion check")
    return cofactors
