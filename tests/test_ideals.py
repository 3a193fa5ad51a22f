import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from kirwan import _kernel as K
from kirwan import ideals, linalg
from kirwan.errors import BudgetExceeded, VerificationError
from kirwan.hyperpolygon import (
    EdgeLengths,
    HyperpolygonInstance,
    full_report,
    ideal_I,
    ideal_J,
    prop_hp,
)
from kirwan.ideals import Budgets, GBData, Ideal, QuotientRing, formality_check
from kirwan.rings import (
    BlockOrder,
    LexOrder,
    Polynomial,
    VariableTable,
    format_polynomial,
    parse_polynomial,
)

Z, I = Fraction(0), Fraction(1)


def P(table, text):
    return parse_polynomial(table, text)


# ---------------------------------------------------------------------------
# brute-force oracle: for homogeneous ideals, degreewise linear algebra over
# the monomial basis decides membership and quotient dimensions exactly


def monomials_of_weight(table, w):
    n = len(table)
    out = []

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        wi = table.weights[i]
        for e in range(rem // wi + 1):
            rec(i + 1, rem - e * wi, acc + [e])

    rec(0, w, [])
    return out


def span_rows(table, gens, w):
    """Coefficient vectors spanning the weight-w slice of the ideal."""
    monos = monomials_of_weight(table, w)
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in gens:
        shift = w - g.weighted_degree()
        if shift < 0:
            continue
        for m in monomials_of_weight(table, shift):
            prod = g * Polynomial(table, [(m, I)])
            row = [Z] * len(monos)
            for e, c in prod.terms:
                row[index[e]] = c
            rows.append(row)
    return rows, monos


def oracle_contains(table, gens, p):
    w = p.weighted_degree()
    rows, monos = span_rows(table, gens, w)
    index = {m: k for k, m in enumerate(monos)}
    vec = [Z] * len(monos)
    for e, c in p.terms:
        vec[index[e]] = c
    base = linalg.rank(rows, Z, I)
    return linalg.rank(rows + [vec], Z, I) == base


def oracle_quotient_dim(table, gens, w):
    rows, monos = span_rows(table, gens, w)
    return len(monos) - linalg.rank(rows, Z, I)


def random_homogeneous(rng, table, w):
    monos = monomials_of_weight(table, w)
    terms = []
    for m in monos:
        if rng.random() < 0.5:
            c = rng.randint(-3, 3)
            if c:
                terms.append((m, Fraction(c)))
    return Polynomial(table, terms)


def test_engine_against_linear_algebra_oracle():
    rng = random.Random(113)
    checked_ideals = 0
    membership_checks = 0
    while checked_ideals < 55:
        nvars = rng.choice([1, 2, 3])
        table = VariableTable([f"y{i}" for i in range(nvars)])
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = random_homogeneous(rng, table, rng.randint(1, 4))
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        checked_ideals += 1
        ideal = Ideal(table, gens)
        ring = QuotientRing(ideal)
        for w in range(0, 7):
            assert ring.graded_dimension(2 * w) == oracle_quotient_dim(
                table, gens, w
            ), (gens, w)
        # members by construction
        for g in gens:
            shift = rng.randint(0, 2)
            mult = random_homogeneous(rng, table, shift)
            p = g * mult
            if not p.is_zero():
                assert ideal.contains(p)
                membership_checks += 1
        # random elements: engine must agree with the oracle either way
        for _ in range(3):
            p = random_homogeneous(rng, table, rng.randint(1, 6))
            if p.is_zero():
                continue
            assert ideal.contains(p) == oracle_contains(table, gens, p), (gens, p)
            membership_checks += 1
    assert checked_ideals >= 50
    assert membership_checks >= 150


# ---------------------------------------------------------------------------
# reduced-basis shape and normal forms


def test_reduced_basis_is_canonical():
    T = VariableTable(["u", "v"])
    gens = [P(T, "u^2 - v^2"), P(T, "u*v - v^2")]
    gb1 = Ideal(T, gens).groebner_basis()
    gb2 = Ideal(T, list(reversed(gens))).groebner_basis()
    assert [format_polynomial(g) for g in gb1] == [format_polynomial(g) for g in gb2]
    # monic leads (terms come grevlex-descending, so terms[0] is the head),
    # and no term of any element is divisible by another lead
    leads = [g.terms[0][0] for g in gb1]
    for g, lead in zip(gb1, leads):
        assert g.terms[0][1] == 1
        for mono, _ in g.terms:
            others = [m for m in leads if m != lead]
            assert not any(all(a <= b for a, b in zip(m, mono)) for m in others)


def test_lex_elimination():
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u^2 - v^2"), P(T, "u*v - 1/2")])
    gb = ideal.groebner_basis(LexOrder(T))
    vonly = [g for g in gb if all(e[0] == 0 for e, _ in g.terms)]
    assert [format_polynomial(g) for g in vonly] == ["v^4 - 1/4"]
    assert any(format_polynomial(g) == "-2*v^3 + u" for g in gb)


def test_normal_form_is_linear_and_signed():
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u^2 - v^2")])
    u, v = P(T, "u"), P(T, "v")
    # regression: the head-normalized kernel must not eat the sign
    assert ideal.normal_form(-u) == -u
    assert ideal.normal_form(-u - 3) == -u - Polynomial.constant(T, Fraction(3))
    assert ideal.normal_form(P(T, "-u^2")) == P(T, "-v^2")
    p, q = P(T, "u^2 + u"), P(T, "u*v - 2")
    assert ideal.normal_form(p + q) == ideal.normal_form(p) + ideal.normal_form(q)
    assert ideal.normal_form(P(T, "3/2") * p) == Fraction(3, 2) * ideal.normal_form(p)


def test_normal_form_fixed_point():
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u^2 - v^2"), P(T, "v^3")])
    for text in ["u^4", "u^3*v + u", "v^2 + 1/3*u", "u^2*v^2 - v"]:
        nf = ideal.normal_form(P(T, text))
        assert ideal.normal_form(nf) == nf
        assert ideal.contains(P(T, text) - nf)


# ---------------------------------------------------------------------------
# intersection and colon, with their certificates


def test_intersect_principal():
    T = VariableTable(["u", "v"])
    a = Ideal(T, [P(T, "u")])
    b = Ideal(T, [P(T, "v")])
    both = a.intersect(b)
    assert both.equals(Ideal(T, [P(T, "u*v")]))


def test_intersect_contains_and_is_contained():
    T = VariableTable(["u", "v"])
    a = Ideal(T, [P(T, "u^2"), P(T, "u*v")])
    b = Ideal(T, [P(T, "v^2"), P(T, "u*v")])
    c = a.intersect(b)
    for g in c.generators:
        assert a.contains(g) and b.contains(g)
    assert c.contains(P(T, "u*v"))
    assert not c.contains(P(T, "u^2"))


def test_colon_undoes_multiplication():
    T = VariableTable(["u", "v"])
    f = P(T, "u + v")
    base = Ideal(T, [P(T, "u^2 - v^2"), P(T, "v^3")])
    scaled = Ideal(T, [f * g for g in base.generators])
    assert scaled.colon(f).equals(base)


def test_colon_known_answer():
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u*v"), P(T, "v^2")])
    assert ideal.colon(P(T, "v")).equals(Ideal(T, [P(T, "u"), P(T, "v")]))


def test_colon_by_unit_is_identity():
    T = VariableTable(["u"])
    ideal = Ideal(T, [P(T, "u^3")])
    assert ideal.colon(Polynomial.one(T)).equals(ideal)


def test_colon_accepts_a_correct_candidate():
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u*v"), P(T, "v^2")])
    candidate = Ideal(T, [P(T, "u"), P(T, "v")])
    assert ideal.colon(P(T, "v"), candidate=candidate) is candidate
    # memoized: a later call without a candidate reads the certified colon
    assert ideal.colon(P(T, "v")) is candidate


def test_colon_rejects_a_candidate_missing_a_generator():
    # <u> * v lies in I, so only the Hilbert identity can see that v is missing
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u*v"), P(T, "v^2")])
    with pytest.raises(VerificationError, match="exact sequence"):
        ideal.colon(P(T, "v"), candidate=Ideal(T, [P(T, "u")]))


def test_colon_rejects_a_candidate_generator_outside_the_colon():
    T = VariableTable(["u", "v", "w"])
    ideal = Ideal(T, [P(T, "u*v"), P(T, "v^2")])
    candidate = Ideal(T, [P(T, "u"), P(T, "v"), P(T, "w")])
    with pytest.raises(VerificationError, match="not in the ideal"):
        ideal.colon(P(T, "v"), candidate=candidate)


def test_colon_takes_its_memberships_from_prove(monkeypatch):
    # prove replaces the normal-form test: one that raises makes the colon
    # raise, and one that accepts is asked about every generator
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u*v"), P(T, "v^2")])
    candidate = Ideal(T, [P(T, "u"), P(T, "v")])

    def no_normal_form(*args, **kwargs):
        raise AssertionError("the normal-form test was consulted")

    def refuse(q):
        raise VerificationError(f"no proof for {q}")

    monkeypatch.setattr(Ideal, "normal_form", no_normal_form)
    with pytest.raises(VerificationError, match="no proof"):
        ideal.colon(P(T, "v"), candidate=candidate, prove=refuse)
    asked = []
    assert ideal.colon(P(T, "v"), candidate=candidate, prove=asked.append) is candidate
    assert asked == list(candidate.generators)


@pytest.mark.parametrize("names, texts", [
    (["u", "v"], ["u"]),
    (["u", "v", "w"], ["u", "v", "w"]),
], ids=["missing-generator", "generator-outside"])
def test_colon_prove_cannot_bypass_the_hilbert_check(names, texts):
    T = VariableTable(names)
    ideal = Ideal(T, [P(T, "u*v"), P(T, "v^2")])
    with pytest.raises(VerificationError, match="breaks the Hilbert exact sequence"):
        ideal.colon(P(T, "v"), candidate=Ideal(T, [P(T, t) for t in texts]),
                    prove=lambda q: None)


def test_colon_needs_homogeneous_input():
    T = VariableTable(["u", "v"])
    ideal = Ideal(T, [P(T, "u*v"), P(T, "v^2")])
    with pytest.raises(ValueError):
        ideal.colon(P(T, "v + 1"))
    with pytest.raises(ValueError):
        Ideal(T, [P(T, "u*v + u")]).colon(P(T, "v"))
    with pytest.raises(ValueError):
        ideal.colon(P(T, "v"), candidate=Ideal(T, [P(T, "u + 1"), P(T, "v")]))


# ---------------------------------------------------------------------------
# quotient rings


def test_quotient_basics():
    T = VariableTable(["u", "v"])
    ring = QuotientRing(Ideal(T, [P(T, "u^2"), P(T, "v^3")]))
    assert ring.is_cofinite()
    assert [ring.graded_dimension(2 * k) for k in range(5)] == [1, 2, 2, 1, 0]
    assert ring.top_degree() == 6
    assert ring.total_dimension() == 6
    # (1 - t^2)(1 - t^3) over the denominator (1 - t)^2
    assert ring.ideal.hilbert_numerator() == (1, 0, -1, -1, 0, 1)
    # not cofinite: 1 - t^2
    assert Ideal(T, [P(T, "u^2 - v^2")]).hilbert_numerator() == (1, 0, -1)
    assert [format_polynomial(b) for b in ring.graded_basis(4)] == ["v^2", "u*v"]


def test_quotient_std_monomials_order():
    T = VariableTable(["u", "v"])
    ring = QuotientRing(Ideal(T, [P(T, "u^2 - v^2")]))
    assert ring.std_monomials(4) == [(0, 2), (1, 1)]
    assert not ring.is_cofinite()
    with pytest.raises(ValueError):
        ring.top_degree()


def test_zero_ring():
    T = VariableTable(["u"])
    ring = QuotientRing(Ideal(T, [Polynomial.one(T)]))
    assert ring.total_dimension() == 0
    assert ring.top_degree() == -1


def test_localized_rank_toys():
    T = VariableTable(["u", "x"])
    assert QuotientRing(Ideal(T, [P(T, "u^2 - x^2")])).localized_rank() == 2
    assert QuotientRing(Ideal(T, [P(T, "u^2 - x*u")])).localized_rank() == 2
    # u is x-torsion: after inverting x only the unit survives
    assert QuotientRing(Ideal(T, [P(T, "x*u"), P(T, "u^2")])).localized_rank() == 1
    # <u^2> alone still has finite rank 2 over Q(x)
    assert QuotientRing(Ideal(T, [P(T, "u^2")])).localized_rank() == 2
    with pytest.raises(ValueError):
        QuotientRing(Ideal(T, [])).localized_rank()  # free: infinite rank
    T2 = VariableTable(["x", "u"])
    with pytest.raises(ValueError):
        QuotientRing(Ideal(T2, [P(T2, "u^2")])).localized_rank()  # x not last


def block_order_rank(ring, xname="x"):
    """The localized rank counted independently of grevlex: the x-free parts
    of the leading terms under a block order with x alone in the back block
    generate the extended leading-term ideal over Q(x)."""
    data = ring.ideal._gb(BlockOrder(ring.table, len(ring.table) - 1))
    yweights = ring.table.weights[:-1]
    numerator = ideals._hilbert_numerator([m[:-1] for m in data.lts], yweights)
    return sum(ideals._hilbert_series(numerator, yweights))


def test_localized_rank_agrees_with_the_block_order():
    T = VariableTable(["u", "x"])
    W = VariableTable(["u", "v", "x"], [2, 4, 2])
    rings = [QuotientRing(Ideal(T, [P(T, g) for g in gens]))
             for gens in (["u^2 - x^2"], ["u^2 - x*u"], ["x*u", "u^2"], ["u^2"])]
    rings.append(QuotientRing(Ideal(W, [P(W, "u^2 - v + x^2"), P(W, "v*x - u*x^2")])))
    for xi in ([1, 1, 1], [1, 1, 1, 2], [1, 2, 4, 8, 16]):
        rings.append(prop_hp(HyperpolygonInstance(EdgeLengths(xi))))
    ranks = [ring.localized_rank() for ring in rings]
    assert ranks == [block_order_rank(ring) for ring in rings]
    assert ranks[-3:] == [1, 5, 17]
    with pytest.raises(ValueError, match="non-homogeneous"):
        QuotientRing(Ideal(T, [P(T, "u^2 - x")])).localized_rank()


def test_formality_toys():
    T = VariableTable(["u", "x"])
    free = QuotientRing(Ideal(T, [P(T, "u^2 - x*u")]))
    assert formality_check(free)
    torsion = QuotientRing(Ideal(T, [P(T, "x*u"), P(T, "u^2")]))
    assert not formality_check(torsion)


# ---------------------------------------------------------------------------
# budgets


# each computation runs under the budgets of the ideal it starts from: its
# own basis, or that of an ideal derived from it (a sum, the elimination
# behind a colon without a candidate, an intersection)


def _budgeted(T, budgets, *gens):
    return Ideal(T, [P(T, g) for g in gens], budgets=budgets)


@pytest.mark.parametrize("compute", [
    # completion adds u*w^2 - v*w^2
    lambda T, b: _budgeted(T, b, "u*v - w^2", "u^2 - w^2").groebner_basis(),
    lambda T, b: _budgeted(T, b, "u*v - w^2").sum_with([P(T, "u^2 - w^2")]).groebner_basis(),
    # <u^2> and <u^2, v> fit, the elimination basis of <u^2> ∩ <v> does not
    lambda T, b: _budgeted(T, b, "u^2").colon(P(T, "v")),
    lambda T, b: _budgeted(T, b, "u^2").intersect(Ideal(T, [P(T, "v")])),
], ids=["groebner_basis", "sum_with", "colon", "intersect"])
def test_budget_on_basis_size(compute):
    T = VariableTable(["u", "v", "w"])
    compute(T, None)
    with pytest.raises(BudgetExceeded) as info:
        compute(T, Budgets(max_basis=2))
    assert info.value.kind == "basis"
    assert info.value.limit == 2


@pytest.mark.parametrize("compute", [
    lambda T, b: _budgeted(T, b, "u^3 - v^3").groebner_basis(),
    # completion adds v^3
    lambda T, b: _budgeted(T, b, "u*v").sum_with([P(T, "u^2 - v^2")]).groebner_basis(),
    # the elimination starts from t*u*v
    lambda T, b: _budgeted(T, b, "u*v").colon(P(T, "u - v")),
    lambda T, b: _budgeted(T, b, "u^2").intersect(Ideal(T, [P(T, "v")])),
], ids=["groebner_basis", "sum_with", "colon", "intersect"])
def test_budget_on_degree(compute):
    T = VariableTable(["u", "v"])
    compute(T, None)
    with pytest.raises(BudgetExceeded) as info:
        compute(T, Budgets(max_degree=4))
    assert info.value.kind == "degree"


def test_budgets_validate():
    with pytest.raises(ValueError):
        Budgets(max_basis=0)


def test_ideal_roundtrip_dict():
    T = VariableTable(["u", "v"], [2, 4])
    ideal = Ideal(T, [P(T, "u^2 - v"), P(T, "u*v")])
    back = Ideal.from_dict(ideal.to_dict())
    assert back.table == T
    assert back.equals(ideal)


# ---------------------------------------------------------------------------
# S-criterion verification: the Gebauer–Möller verifier against an all-pairs
# oracle that reduces every pair with non-coprime leading monomials


def all_pairs_verify(data):
    kps = data.kps
    for i in range(len(kps)):
        for j in range(i + 1, len(kps)):
            if all(a == 0 or b == 0 for a, b in zip(kps[i][1], kps[j][1])):
                continue
            s = K.kp_spoly(kps[i], kps[j], data.spec)
            _, _, nf = K.kp_normal_form(s, list(kps), data.spec)
            if nf:
                raise VerificationError(f"S-polynomial of {i}, {j} does not reduce to zero")


def verdicts(data):
    out = []
    for verify in (all_pairs_verify, ideals._verify_s_criterion):
        try:
            verify(data)
        except VerificationError:
            out.append(False)
        else:
            out.append(True)
    return out


@pytest.fixture(scope="module")
def report_bases():
    """Every basis verified in the n = 4 and n = 5 golden reports, seeded
    and installed ones included, and the extended and restricted bases of
    J ∩ ⟨e⟩ and I ∩ ⟨e'⟩ there."""
    bases = []
    verify = ideals._verify_s_criterion

    def record(data):
        verify(data)
        bases.append(data)

    ideals._verify_s_criterion = record
    try:
        for xi in ([1, 1, 1, 2], [1, 2, 4, 8, 16]):
            full_report(EdgeLengths(xi))
            # a report certifies its colons without elimination
            inst = HyperpolygonInstance(EdgeLengths(xi))
            ideal_J(inst).intersect(Ideal(inst.table_Q, [inst.euler_e]))
            ideal_I(inst).intersect(Ideal(inst.table_P, [inst.euler_eprime]))
    finally:
        ideals._verify_s_criterion = verify
    return bases


def test_both_verifiers_accept_report_bases(report_bases):
    # 8 bases per report, none over the P-side ambient, then each
    # intersection's extended block-order basis and the restricted grevlex
    # basis installed from it
    assert len(report_bases) == 24
    assert sum(d.spec[:2] == ("block", 1) for d in report_bases) == 4
    for data in report_bases:
        assert verdicts(data) == [True, True]


def test_both_verifiers_reject_the_same_mutants(report_bases):
    rng = random.Random(2003)
    sites = [(b, e, k) for b, data in enumerate(report_bases)
             for e, kp in enumerate(data.kps) for k in range(len(kp[3]))]
    rejected = 0
    sample = rng.sample(sites, 120)
    for b, e, k in sample:
        data = report_bases[b]
        kp = data.kps[e]
        tail = list(kp[3])
        nk, pm, c = tail[k]
        tail[k] = (nk, pm, c + rng.choice([-1, 1]) * rng.randint(1, 3))
        kps = data.kps[:e] + (kp[:3] + (tuple(tail),) + kp[4:],) + data.kps[e + 1:]
        accept_oracle, accept_gm = verdicts(GBData(kps=kps, spec=data.spec, lts=data.lts))
        assert accept_oracle == accept_gm, (b, e, k)
        rejected += not accept_gm
    assert rejected >= 0.8 * len(sample)


@pytest.mark.parametrize("texts, kept, dropped", [
    # S(x*y, x^2 + 2*y^2) = -2*y^3 is the one pair that does not reduce;
    # (x*z, y*z) is dropped, since x*y divides its lcm x*y*z
    (["x*y", "x*z", "y*z", "x^2 + 2*y^2"], (0, 3), (1, 2)),
    # pairs (0, 1) and (0, 2) both leave y*w^3 at the lcm x^2*y*z; criterion M
    # drops (0, 2) for (1, 2), whose lcm x*y*z divides it, so criterion B must
    # keep (0, 1) although y*z divides its lcm
    (["x^2*z + w^3", "x*y", "y*z"], (0, 1), (0, 2)),
])
def test_verifier_rejects_a_failing_pair_gm_keeps(texts, kept, dropped):
    T = VariableTable(["x", "y", "z", "w"])
    kps = tuple(ideals._kp(P(T, text), T.spec)[0] for text in texts)
    data = GBData(kps=kps, spec=T.spec, lts=tuple(kp[1] for kp in kps))
    lms, nonzero, live = [], [], {}
    for kp in kps:
        lms.append(kp[4])
        ideals._gm_update(lms, nonzero, live, T.guard_mask)
    assert kept in live and dropped not in live
    assert verdicts(data) == [False, False]
    with pytest.raises(VerificationError, match="elements {}, {} ".format(*kept)):
        ideals._verify_s_criterion(data)


def test_verifier_reduces_fewer_pairs_than_oracle(monkeypatch):
    # cyclic-4: the oracle reduces 13 pairs of its 7-element basis, GM keeps 8
    T = VariableTable(["a", "b", "c", "d"])
    gens = ["a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b",
            "a*b*c*d - 1"]
    data = Ideal(T, [P(T, g) for g in gens])._gb()
    calls = []
    nf = K.kp_normal_form
    monkeypatch.setattr(K, "kp_normal_form", lambda *a: calls.append(1) or nf(*a))
    all_pairs_verify(data)
    oracle = len(calls)
    calls.clear()
    ideals._verify_s_criterion(data)
    assert 0 < len(calls) < oracle


@pytest.mark.parametrize("seed", [
    # equal leading terms: minimalizing alone would keep x + y and lose z - y
    ["x + y", "x + z"],
    # minimal, but the S-polynomial of the two does not reduce to zero
    ["x*y - z^2", "x^2 - y^2"],
], ids=["dropped", "s-pair"])
def test_a_seed_that_is_not_a_groebner_basis_raises(seed):
    T = VariableTable(["x", "y", "z"])
    gens = [P(T, g) for g in seed]
    with pytest.raises(VerificationError):
        Ideal.from_basis(T, gens)
    # a sum completed from a base whose cached basis is the bad seed
    base = Ideal(T, gens)
    kps = tuple(ideals._kp(g, T.spec)[0] for g in gens)
    base._cache[base._order_key(base.order)] = GBData(kps=kps, spec=T.spec,
                                                      lts=tuple(kp[1] for kp in kps))
    total = base.sum_with([P(T, "z^3")])
    with pytest.raises(VerificationError):
        total.groebner_basis()
    assert not total._cache


def test_intersect_verifies_its_extended_basis(monkeypatch):
    seen = []
    verify = ideals._verify_s_criterion
    monkeypatch.setattr(ideals, "_verify_s_criterion", lambda d: seen.append(d.spec) or verify(d))
    T = VariableTable(["u", "v"])
    Ideal(T, [P(T, "u^2"), P(T, "u*v")]).intersect(Ideal(T, [P(T, "v^2")]))
    assert [spec[0] for spec in seen] == ["block", "grevlex"]
