import dataclasses
import json
from fractions import Fraction
from importlib import resources
from itertools import combinations, combinations_with_replacement

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kirwan
from kirwan import cli, cofactors, hyperpolygon, ideals, linalg
from kirwan.abelianize import class_b, class_e, class_eprime
from kirwan.errors import NonGenericError, VerificationError
from kirwan.hyperpolygon import (
    EdgeLengths,
    HyperpolygonInstance,
    MembershipCertificate,
    annihilator_ideal,
    basis_dimension_check,
    betti_numbers,
    bridge_check,
    certify_membership,
    d_presentation_ideal,
    full_report,
    ideal_I,
    ideal_J,
    konno_ring,
    low_degree_rigidity,
    prop_hp,
    second_iso_check,
    second_iso_presentation,
    su2_datum,
)
from kirwan.abelianize import verify_second_iso
from kirwan.ideals import Ideal, QuotientRing
from kirwan.rings import Polynomial, parse_polynomial


# ---------------------------------------------------------------------------
# lengths and the short-subset table


def test_lengths_validation():
    with pytest.raises(ValueError):
        EdgeLengths([1, 1])
    with pytest.raises(ValueError):
        EdgeLengths([1, 1, 0])
    with pytest.raises(ValueError):
        EdgeLengths([1, 1, -2])


def test_non_generic_witness():
    with pytest.raises(NonGenericError) as exc:
        EdgeLengths([1, 1, 2])
    assert exc.value.witness == frozenset({3})
    with pytest.raises(NonGenericError):
        EdgeLengths([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])


def test_short_counts(inst3, inst4, inst5):
    for inst in (inst3, inst4, inst5):
        assert len(inst.table.shorts) == 2 ** (inst.n - 1)
        full = frozenset(range(1, inst.n + 1))
        for S in inst.table.shorts:
            assert not inst.table.is_short(full - S)


def test_unbalanced_shorts(inst5):
    # (1,2,4,8,16): S is short iff it misses edge 5
    for S in inst5.table.shorts:
        assert 5 not in S


# ---------------------------------------------------------------------------
# the C and D classes


def test_c_empty_n3(inst3):
    want = parse_polynomial(
        inst3.table_Q,
        "1/4*c1*c2*c3 + 1/4*c1*a2 + 1/4*c2*a2 + 1/4*c3*a2",
    )
    assert inst3.C(()) == want


def test_d_classes_n4(inst4):
    assert inst4.D([4]) == parse_polynomial(
        inst4.table_Q, "c1^2 + c1*c3 + c2*c1 + c2*c3"
    )
    assert inst4.D([1, 2]) == parse_polynomial(
        inst4.table_Q, "c2*c3 + c2*c4 - x*c3 - x*c4"
    )


def test_classes_reject_indices_outside_1_to_n(inst4):
    for S in ({0}, {5}, {1, 5}, {-1, 2}):
        with pytest.raises(ValueError):
            inst4.C(S)
        with pytest.raises(ValueError):
            inst4.D(S)
    with pytest.raises(ValueError):
        inst4.D(())


def _p_side_products(inst, S):
    """(A_S, B_S) multiplied out over the P-side ambient from the letters
    a_i, b_i = (c_i +- a)/2, B_S the image of A_S under a -> -a: the
    reference for the invariant-side class builder and for ideal_I."""
    T = inst.table_P
    x = Polynomial.variable(T, "x")
    A = Polynomial.one(T)
    for i in range(1, inst.n + 1):
        a_i = parse_polynomial(T, f"1/2*c{i} + 1/2*a")
        b_i = parse_polynomial(T, f"1/2*c{i} - 1/2*a")
        A = A * (x - a_i) if i in S else A * b_i
    return A, A.substitute({"a": -Polynomial.variable(T, "a")}, table=T)


def _even_to_Q(inst, p):
    """An even-in-a polynomial rewritten over the invariant ambient."""
    ai = inst.table_P.index("a")
    assert all(exps[ai] % 2 == 0 for exps, _ in p.terms)
    return p.map_monomials(inst.table_Q, lambda e: e[:ai] + (e[ai] // 2,) + e[ai + 1:])


@pytest.mark.parametrize("xi", [(1, 1, 1, 2), (1, 1, 1, 1, 1), (1, 2, 4, 8, 16),
                                (1, 1, 1, 1, 1, 2)])
def test_class_builder_matches_the_p_side_products(xi):
    # C_S is the even part of A_S + B_S, E_S times a is A_S - B_S, and the
    # generators of I are the products themselves
    inst = HyperpolygonInstance(EdgeLengths(xi))
    a = Polynomial.variable(inst.table_P, "a")
    gens = []
    for S in inst.table.shorts:
        A, B = _p_side_products(inst, S)
        assert inst.C(S) == _even_to_Q(inst, A + B)
        assert a * inst.E(S).substitute(inst.embed, table=inst.table_P) == A - B
        gens += [A, B]
    assert ideal_I(inst).generators == tuple(gens) + inst.relations_P


def test_classes_of_long_subsets(inst4):
    # the builder is not limited to short subsets
    for S in ({1, 4}, {2, 3, 4}, {1, 2, 3, 4}):
        A, B = _p_side_products(inst4, S)
        assert inst4.C(S) == _even_to_Q(inst4, A + B)


def test_d_degree(inst4):
    for S in inst4.table.nonempty_shorts():
        D = inst4.D(S)
        assert D.is_homogeneous() and D.degree() == 2 * (inst4.n - 2)


def test_euler_classes(inst3):
    assert str(inst3.euler_e) == "-a2^2 + a2*x^2"
    assert str(inst3.euler_eprime) == "-a^3 + a*x^2"


# ---------------------------------------------------------------------------
# the equivariant ring


def test_prop_hp_colon_equals_presentation(inst3, inst4):
    for inst in (inst3, inst4):
        ring = prop_hp(inst)
        # prop_hp certifies the D-presentation; elimination on a fresh J
        # computes (J : e) without it
        J = ideal_J(inst)
        colon = Ideal(J.table, J.generators).colon(inst.euler_e)
        assert colon is not d_presentation_ideal(inst)
        assert colon.equals(annihilator_ideal(inst))
        assert ring.graded_dimension(0) == 1


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 2, 4, 8), (1, 1, 1, 2), (1, 2, 4, 8, 16)])
def test_eprime_colon_by_elimination_is_the_lifted_d_presentation(xi):
    inst = HyperpolygonInstance(EdgeLengths(xi))
    I = ideal_I(inst)
    colon = Ideal(I.table, I.generators).colon(inst.euler_eprime)
    lifted = Ideal(inst.table_P, [g.substitute(inst.embed, table=inst.table_P)
                                  for g in d_presentation_ideal(inst).generators])
    assert colon.equals(lifted)


def _lifted_colon(inst):
    """(I : e') certified with the installed a2 -> a^2 lift of (J : e)'s
    reduced basis as its candidate: the P-side reference route."""
    lifted = Ideal.from_basis(inst.table_P, [F.substitute(inst.embed, table=inst.table_P)
                                             for F in annihilator_ideal(inst).groebner_basis()])
    colon = ideal_I(inst).colon(inst.euler_eprime, candidate=lifted)
    assert colon is lifted
    return colon


@pytest.mark.parametrize("xi", [[1, 1, 1, 2], [1, 2, 4, 8, 16]])
def test_report_sums_equal_their_unseeded_bases(xi):
    # the three sums a report completes from a verified basis plus one
    # element, and the two the P-side reference route completes
    inst = HyperpolygonInstance(EdgeLengths(xi))
    J, I = ideal_J(inst), ideal_I(inst)
    x_Q = Polynomial.variable(inst.table_Q, "x")
    x_P = Polynomial.variable(inst.table_P, "x")
    sums = ((J, inst.euler_e), (I, inst.euler_eprime), (annihilator_ideal(inst), x_Q),
            (J, x_Q), (_lifted_colon(inst), x_P))
    for base, f in sums:
        seeded = base.sum_with([f])
        assert seeded._base == (base, (f,))
        fresh = Ideal(base.table, seeded.generators, budgets=base.budgets)
        assert seeded.groebner_basis() == fresh.groebner_basis()


@pytest.mark.parametrize("xi", [[1, 1, 1], [1, 2, 4, 8], [1, 1, 1, 2], [1, 2, 4, 8, 16]])
def test_installed_lift_is_the_buchberger_basis_of_the_lift(xi):
    inst = HyperpolygonInstance(EdgeLengths(xi))
    lifted = [F.substitute(inst.embed, table=inst.table_P)
              for F in annihilator_ideal(inst).groebner_basis()]
    installed = Ideal.from_basis(inst.table_P, lifted).groebner_basis()
    assert installed == tuple(lifted)
    assert installed == Ideal(inst.table_P, lifted).groebner_basis()


def test_colon_strictly_contains_J(inst4):
    K = annihilator_ideal(inst4)
    for g in ideal_J(inst4).generators:
        assert K.contains(g)
    extra = [g for g in K.groebner_basis() if not ideal_J(inst4).contains(g)]
    assert extra, "the colon must add something at degree 2(n-2)"


def test_betti_numbers(inst3, inst4, inst5):
    assert betti_numbers(inst3) == [1]
    assert betti_numbers(inst4) == [1, 4]
    assert betti_numbers(inst5) == [1, 5, 11]


def test_konno_agrees(inst3, inst4, inst5):
    for inst in (inst3, inst4, inst5):
        R = konno_ring(inst.n)
        dims = [R.graded_dimension(d) for d in range(0, R.top_degree() + 1, 2)]
        assert dims == betti_numbers(inst)


def test_konno_rejects_small_n():
    with pytest.raises(ValueError):
        konno_ring(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_konno_generators_have_the_reduced_basis_of_every_degree_n_minus_2_monomial(n):
    ring = konno_ring(n)
    gens = list(ring.ideal.generators[:n - 1])  # the square differences
    for mono in combinations_with_replacement(range(n), n - 2):
        e = [0] * n
        for i in mono:
            e[i] += 1
        gens.append(Polynomial(ring.table, [(tuple(e), Fraction(1))]))
    assert Ideal(ring.table, gens).groebner_basis() == ring.ideal.groebner_basis()


def test_basis_check_n4(inst4):
    assert basis_dimension_check(inst4) == {
        "degree": 4,
        "dimension": 7,
        "expected": 7,
        "independent": True,
    }


def _d_image_rank(inst):
    """The reference for basis_check: the Fraction rank of the D_S
    coordinates in degree 2(n-2) of Q/<c_i^2 - a2, x>."""
    x = Polynomial.variable(inst.table_Q, "x")
    ring = QuotientRing(Ideal(inst.table_Q, list(inst.relations_Q) + [x]))
    rows = [ring.coordinates(inst.D(S), 2 * (inst.n - 2)) for S in inst.table.nonempty_shorts()]
    return linalg.rank(rows, Fraction(0), Fraction(1))


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 1, 1, 2), (1, 2, 4, 8), (1, 1, 1, 1, 1),
                                (1, 2, 4, 8, 16),
                                pytest.param((1, 2, 4, 8, 16, 32), marks=pytest.mark.slow)])
def test_basis_check_independence_matches_the_rank_of_the_d_images(xi):
    inst = HyperpolygonInstance(EdgeLengths(xi))
    res = basis_dimension_check(inst)
    assert res["independent"] is (_d_image_rank(inst) == res["expected"]) is True


def test_basis_check_sees_dependent_d_images():
    # D_T replaced by 2*D_S in both the rank reference and the ordinary ring;
    # that D-presentation is no longer (J : e), so it is installed as the
    # colon by hand
    inst = HyperpolygonInstance(EdgeLengths([1, 1, 1, 2]))
    S, T = inst.table.nonempty_shorts()[:2]
    inst._D_cache[T] = inst.D(S) * 2
    ideal_J(inst)._colons[inst.euler_e] = d_presentation_ideal(inst)
    res = basis_dimension_check(inst)
    assert _d_image_rank(inst) == res["expected"] - 1
    assert res["independent"] is False


def test_localized_ranks(inst3, inst4, inst5):
    assert prop_hp(inst3).localized_rank("x") == 1
    assert prop_hp(inst4).localized_rank("x") == 5
    assert prop_hp(inst5).localized_rank("x") == 17


def test_low_degree_rigidity(inst4, inst5):
    assert low_degree_rigidity(inst4) is True
    assert low_degree_rigidity(inst5) is True


@pytest.mark.parametrize("xi", [(1, 1, 1, 2), (1, 1, 1, 1, 1), (1, 2, 4, 8, 16)])
def test_low_degree_rigidity_matches_the_standard_monomial_lists(xi):
    # the reference compares the lists themselves; through degree 2(n-2),
    # where the D_S first differ, equal counts and equal lists agree
    inst = HyperpolygonInstance(EdgeLengths(xi))
    RJ, RK = QuotientRing(ideal_J(inst)), prop_hp(inst)
    same = [RJ.std_monomials(d) == RK.std_monomials(d) for d in range(0, 2 * inst.n - 2, 2)]
    assert same == [RJ.graded_dimension(d) == RK.graded_dimension(d)
                    for d in range(0, 2 * inst.n - 2, 2)]
    assert same[-1] is False
    assert low_degree_rigidity(inst) is all(same[:-1]) is True


@pytest.mark.parametrize("xi", [(1, 1, 1, 2), (1, 2, 4, 8, 16)])
def test_graded_dimension_counts_standard_monomials_on_infinite_quotients(xi):
    # J and (J : e) live over a table where a2 has weight 2; the degrees run
    # out to verify_second_iso's comparison bound
    inst = HyperpolygonInstance(EdgeLengths(xi))
    I = ideal_I(inst)
    left, right = prop_hp(inst), QuotientRing(_lifted_colon(inst))
    top = sum(ring.plus([Polynomial.variable(ring.table, "x")]).top_degree()
              for ring in (left, right)) + 4
    for ring in (QuotientRing(ideal_J(inst)), left, QuotientRing(I), right):
        assert not ring.is_cofinite()
        for d in range(0, top + 2, 2):
            assert ring.graded_dimension(d) == len(ring.std_monomials(d))


def test_bridge(inst3, inst4):
    assert bridge_check(inst3) is True
    assert bridge_check(inst4) is True


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 1, 1, 2), (1, 2, 4, 8), (1, 1, 1, 1, 1),
                                (1, 2, 4, 8, 16),
                                pytest.param((1, 2, 4, 8, 16, 32), marks=pytest.mark.slow),
                                pytest.param((1, 1, 1, 1, 1, 2), marks=pytest.mark.slow)])
def test_p_side_route_agrees_with_the_invariant_side_checks(xi):
    # (I : e') is certified to be the lift of (J : e) by the Hilbert exact
    # sequence over the P-side ambient, and the second isomorphism holds
    # when counted on its standard monomials
    inst = HyperpolygonInstance(EdgeLengths(xi))
    assert bridge_check(inst) is second_iso_check(inst) is True
    _lifted_colon(inst)
    assert verify_second_iso(second_iso_presentation(inst)) is True


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 1, 1, 2), (1, 2, 4, 8), (1, 2, 4, 8, 16),
                                (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 2), (1, 2, 4, 8, 16, 32),
                                pytest.param((1, 2, 4, 8, 16, 32, 64), marks=pytest.mark.slow),
                                pytest.param((1, 1, 1, 1, 1, 1, 1), marks=pytest.mark.slow)])
def test_parity_identities_and_g_closed_form_at_every_short(xi):
    # c_i*E_S + C_S = 0 for every i outside S (the checks take one i), and
    # g*D_S = lam*(x + c_m) * sum over T in S of (-1)^|T|*E_T, expanded here
    # term by term
    inst = HyperpolygonInstance(EdgeLengths(xi))
    T_Q = inst.table_Q
    rel = Ideal(T_Q, list(inst.relations_Q))
    x = Polynomial.variable(T_Q, "x")
    g = x ** 2 - Polynomial.variable(T_Q, "a2")
    for S in inst.table.shorts:
        for i in set(range(1, inst.n + 1)) - S:
            c_i = Polynomial.variable(T_Q, f"c{i}")
            assert rel.contains(c_i * inst.E(S) + inst.C(S))
        if S:
            total = Polynomial.zero(T_Q)
            for r in range(len(S) + 1):
                for T in combinations(sorted(S), r):
                    total = total + inst.E(T) * (-1) ** r
            lam = Fraction(2) ** (inst.n - len(S) - 1)
            c_m = Polynomial.variable(T_Q, f"c{min(S)}")
            assert rel.contains((x + c_m) * total * lam - g * inst.D(S))


def _scaled_E(monkeypatch, S):
    """Double E_S in every instance."""
    real = HyperpolygonInstance.E
    monkeypatch.setattr(HyperpolygonInstance, "E",
                        lambda inst, T: real(inst, T) * (2 if frozenset(T) == S else 1))


def test_perturbed_e_class_raises_naming_its_subset(monkeypatch, capsys):
    S = frozenset({1, 2})
    inst = HyperpolygonInstance(EdgeLengths([1, 1, 1, 2]))
    assert bridge_check(inst)
    C, E = inst._pair(S)
    inst._prefixes[inst.n, S] = (C, E * 2)
    with pytest.raises(VerificationError, match=r"\[1, 2\]"):
        second_iso_check(inst)
    _scaled_E(monkeypatch, S)
    with pytest.raises(VerificationError, match=r"\[1, 2\]"):
        bridge_check(HyperpolygonInstance(EdgeLengths([1, 1, 1, 2])))
    code = cli.main(["report", "--xi", "1", "1", "1", "2"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 5
    assert error["kind"] == "verification" and error["stage"] == "bridge"
    assert "[1, 2]" in error["message"]


def test_g_closed_form_with_a_dropped_term_raises(monkeypatch):
    real = hyperpolygon._g_closed_form

    def dropped(inst, S):
        out = dict(real(inst, S))
        del out[max(out, key=lambda T: (len(T), sorted(T)))]
        return out

    monkeypatch.setattr(hyperpolygon, "_g_closed_form", dropped)
    with pytest.raises(VerificationError, match=r"\[1\]"):
        bridge_check(HyperpolygonInstance(EdgeLengths([1, 1, 1])))
    with pytest.raises(VerificationError) as exc:
        full_report(EdgeLengths([1, 1, 1, 2]))
    assert exc.value.stage == "bridge"


# ---------------------------------------------------------------------------
# membership certificates


def test_certificate_n3_frozen(inst3):
    cert = certify_membership(inst3, {3})
    assert cert.method == "recursion"
    payload = cert.to_dict()
    assert payload["subset"] == [3]
    assert payload["terms"] == [
        [[], "-2*c3^2 + 2*c3*x + 4*x^2"],
        [[3], "-2*c3^2 - 2*c3*x"],
    ]
    assert cert.verify(inst3)


def test_certificate_closed_form_n3_corrected_constant():
    # Companion to acceptance criterion 2, which keeps the stated constant
    # 2^(n-3) and fails on it. The same expansion with 2^(n-2) reduces to
    # e*D_S, so criterion 2's failure can only come from the constant.
    inst = HyperpolygonInstance(EdgeLengths([1, 2, 4]))
    T = inst.table_Q
    x = parse_polynomial(T, "x")
    cn = parse_polynomial(T, "c3")
    two = Polynomial.constant(T, Fraction(2))
    scale = Fraction(2) ** (inst.n - 2)
    expansion = Polynomial.constant(T, scale) * (x + cn) * (
        (two * x - cn) * inst.C(()) - cn * inst.C({3})
    )
    rel = Ideal(T, list(inst.relations_Q))
    target = inst.euler_e * inst.D({3})
    assert not rel.normal_form(target).is_zero()
    assert rel.normal_form(expansion - target).is_zero()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_certificate_closed_form_corrected_constant(n):
    # The same closed form past the n=3 base case, at S = {n} with the
    # instance's own classes: 2^(n-2) expands to e*D_S, and criterion 2's stated
    # 2^(n-3) leaves a nonzero residue here too.
    inst = HyperpolygonInstance(EdgeLengths([2 ** i for i in range(n)]))
    T = inst.table_Q
    x = parse_polynomial(T, "x")
    cn = parse_polynomial(T, f"c{n}")
    rel = Ideal(T, list(inst.relations_Q))
    target = inst.euler_e * inst.D({n})

    def residue(k):
        expansion = Fraction(2) ** k * (x + cn) * (
            (2 * x - cn) * inst.C(()) - cn * inst.C({n})
        )
        return rel.normal_form(expansion - target)

    assert not rel.normal_form(target).is_zero()
    assert residue(n - 2).is_zero()
    assert not residue(n - 3).is_zero()


def test_certificates_all_shorts(inst4):
    for S in inst4.table.nonempty_shorts():
        cert = certify_membership(inst4, S)
        assert cert.verify(inst4)
        assert cert.method == "recursion"
        for T, _ in cert.combination:
            assert inst4.table.is_short(T) and T <= frozenset(S)


@pytest.mark.parametrize("n", [3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_recursion_certifies_every_subset(n):
    # xi_i = 2^i on S and 2^(n+1+i) off it: S is short, every subset sum is
    # distinct (so xi is generic), and every nonempty proper S occurs.  The
    # certificate depends on xi only through which subsets are short.
    for r in range(1, n):
        for S in combinations(range(1, n + 1), r):
            S = frozenset(S)
            xi = [2 ** i if i in S else 2 ** (n + 1 + i) for i in range(1, n + 1)]
            inst = HyperpolygonInstance(EdgeLengths(xi))
            cert = certify_membership(inst, S)
            assert cert.method == "recursion"
            assert all(T <= S for T, _ in cert.combination)


def test_certificates_take_one_normal_form_and_no_relabelling(monkeypatch):
    # one expansion check per certificate, and no swap of variables
    inst = HyperpolygonInstance(EdgeLengths([1, 1, 1, 2]))
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in ((Ideal, "normal_form"), (Polynomial, "substitute")):
        spy(owner, name)
    subsets = inst.table.nonempty_shorts()
    for S in subsets:
        certify_membership(inst, S)
    assert calls == ["normal_form"] * len(subsets)


def _verify_term_by_term(cert, inst):
    """The check verify() replaced, kept as its reference: one product and one
    sum per term, then one normal form."""
    acc = Polynomial.zero(inst.table_Q)
    for T, coeff in cert.combination:
        if not inst.table.is_short(T) or not frozenset(T) <= cert.subset:
            return False
        acc = acc + coeff * inst.C(T)
    return inst._rel_ideal_Q.normal_form(acc - cert.target).is_zero()


_q_polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 6),
              st.fractions(min_value=-20, max_value=20, max_denominator=9)),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_pass_verify_agrees_with_the_term_by_term_loop(inst4, data):
    # A real certificate, rewritten: coefficients split over repeated T, moved
    # by multiples of a relation, a zero term added, the order shuffled; then
    # possibly broken by an arbitrary extra term.
    T_Q = inst4.table_Q
    S = data.draw(st.sampled_from(inst4.table.nonempty_shorts()))
    cert = certify_membership(inst4, S)
    inside = [T for T in inst4.table.shorts if T <= S]
    combination = []
    for T, coeff in cert.combination:
        part = Polynomial(T_Q, data.draw(_q_polys))
        rel = data.draw(st.sampled_from(inst4.relations_Q))
        shift = rel * Polynomial(T_Q, data.draw(_q_polys))
        combination += [(T, part), (T, coeff - part + shift)]
    combination.append((data.draw(st.sampled_from(inside)), Polynomial.zero(T_Q)))
    broken = data.draw(st.booleans())
    if broken:
        extra = Polynomial(T_Q, data.draw(_q_polys))
        combination.append((data.draw(st.sampled_from(inside)), extra))
    combination = data.draw(st.permutations(combination))
    candidate = MembershipCertificate(S, cert.target, tuple(combination), "loaded")
    verdict = candidate.verify(inst4)
    assert verdict == _verify_term_by_term(candidate, inst4)
    assert verdict or broken


@pytest.mark.parametrize("k", [1, 40, 200])
def test_verify_rejects_one_coefficient_scaled_by_one_plus_two_to_minus_k(inst5, k):
    cert = certify_membership(inst5, {1, 2, 3})
    for i, (T, coeff) in enumerate(cert.combination):
        combination = list(cert.combination)
        combination[i] = (T, coeff * (1 + Fraction(1, 2 ** k)))
        assert not dataclasses.replace(cert, combination=tuple(combination)).verify(inst5)


def test_verify_rejects_a_long_or_outside_subset_before_any_arithmetic(inst4, monkeypatch):
    def no_expansion(*args):
        raise AssertionError("verify expanded a certificate it should reject")

    cert = certify_membership(inst4, {1, 2})
    monkeypatch.setattr(Polynomial, "dot", no_expansion)
    one = Polynomial.one(inst4.table_Q)
    for T in ({3}, {1, 2, 3}, {3, 4}):  # short outside S, long outside S
        combination = cert.combination + ((frozenset(T), one),)
        assert not dataclasses.replace(cert, combination=combination).verify(inst4)
    # a long T inside a long subset is rejected for being long
    long_S = frozenset({1, 4})
    long_cert = MembershipCertificate(long_S, inst4.euler_e * inst4.D(long_S),
                                      ((long_S, one),), "loaded")
    assert not long_cert.verify(inst4)


def test_verify_expands_in_one_pass(monkeypatch):
    # with C and D cached, verify makes no ring operation but the one dot
    # product, and one normal form
    inst = HyperpolygonInstance(EdgeLengths([1, 1, 1, 2]))
    certs = [certify_membership(inst, S) for S in inst.table.nonempty_shorts()]
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        spy(Polynomial, name)
    spy(Ideal, "normal_form")
    for cert in certs:
        calls.clear()
        assert cert.verify(inst)
        assert calls == ["normal_form"]


@pytest.fixture
def dropped_term(monkeypatch):
    """Drop the largest term from every closed-form certificate; returns the
    list of express_in_ideal calls."""
    real = hyperpolygon._closed_form

    def closed_form(inst, S):
        out = dict(real(inst, S))
        del out[max(out, key=lambda T: (len(T), sorted(T)))]
        return out

    calls = []
    express = cofactors.express_in_ideal

    def spy(*args, **kwargs):
        calls.append(args)
        return express(*args, **kwargs)

    monkeypatch.setattr(hyperpolygon, "_closed_form", closed_form)
    for module in (kirwan, cofactors, hyperpolygon):
        monkeypatch.setattr(module, "express_in_ideal", spy, raising=False)
    return calls


def test_broken_recursion_raises(inst3, dropped_term):
    with pytest.raises(VerificationError):
        certify_membership(inst3, {3})
    assert dropped_term == []


@pytest.mark.parametrize("argv", [
    ["certify", "--xi", "1", "1", "1", "--subset", "3"],
    ["verify", "--xi", "1", "1", "1"],
], ids=["certify", "verify"])
def test_broken_recursion_cli_exit(capsys, dropped_term, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "verification" and error["stage"] == "certificates"
    assert dropped_term == []


def test_certificate_roundtrip(inst4):
    cert = certify_membership(inst4, {1, 2})
    again = MembershipCertificate.from_dict(inst4, cert.to_dict())
    assert again.verify(inst4)
    assert again.combination == cert.combination


def test_certificate_tamper_rejected(inst4):
    payload = certify_membership(inst4, {1, 2}).to_dict()
    subset, text = payload["terms"][0]
    payload["terms"][0] = [subset, text + " + 1"]
    with pytest.raises(VerificationError):
        MembershipCertificate.from_dict(inst4, payload)


def test_certificate_rejects_long_subset(inst4):
    with pytest.raises(ValueError):
        certify_membership(inst4, {3, 4})


# ---------------------------------------------------------------------------
# the nonabelian bridge


def test_su2_datum_classes():
    datum = su2_datum()
    e = class_e(datum)
    ep = class_eprime(datum)
    assert class_b(datum) * ep == e
    assert e.exact_divide(ep) == class_b(datum)


def test_second_iso_small(inst3):
    from kirwan.abelianize import verify_second_iso

    assert verify_second_iso(second_iso_presentation(inst3)) is True


def test_eulers_match_datum(inst3):
    datum = su2_datum()
    e = class_e(datum)
    sub = e.substitute(
        {"a": parse_polynomial(inst3.table_P, "a")}, table=inst3.table_P
    )
    # e lives in Q[a,x]; moved to P and reduced by a^2 -> a2 on the Q side
    assert sub == -(inst3.euler_eprime * parse_polynomial(inst3.table_P, "a"))


# ---------------------------------------------------------------------------
# the full report


@pytest.fixture(scope="module")
def report4():
    return full_report(EdgeLengths([1, 1, 1, 2]))


def test_report_schema(report4):
    schema = json.loads(
        resources.files("kirwan").joinpath("data/report.schema.json").read_text()
    )
    jsonschema.validate(report4, schema)


def test_report_contents(report4):
    assert report4["n"] == 4
    assert report4["xi"] == ["1", "1", "1", "2"]
    assert report4["betti"] == [1, 4]
    assert report4["konno"] == {"betti": [1, 4], "agrees": True}
    assert report4["prop_hp"]["colon_equals_D_presentation"] is True
    assert report4["localized"] == {"rank": 5, "konno_total": 5, "agrees": True}
    assert report4["low_degree_rigidity"] is True
    assert report4["bridge"] is True
    assert report4["second_iso"] is True
    assert len(report4["certificates"]) == 7
    assert all(c["verified"] for c in report4["certificates"])
    assert report4["formality"] == {"ring_J": True, "ring_colon": True}
    assert set(report4["timings"])


def test_report_computes_each_thing_once(monkeypatch):
    # every Groebner run has a distinct input, no colon is eliminated, the
    # basis of J + <e> behind the colon certificate is built once, from the
    # verified basis of J plus e, no ideal and no Groebner run is over the
    # P-side ambient, each certificate is verified once and is the colon's
    # proof that e*D_S lies in J, so no e*D_S is reduced modulo J's basis,
    # and no count needs a normal-form coordinate or a rank
    runs = []
    tables = []
    real_init = Ideal.__init__

    def init(self, table, *args, **kwargs):
        tables.append(table)
        real_init(self, table, *args, **kwargs)

    real_complete = ideals._complete

    def complete(seed, generators, order, budgets):
        runs.append((tuple(seed), tuple(g.terms for g in generators), order))
        return real_complete(seed, generators, order, budgets)

    reduced = []
    real_normal_form = Ideal.normal_form

    def normal_form(self, p, *args, **kwargs):
        reduced.append((self.generators, p))
        return real_normal_form(self, p, *args, **kwargs)

    counts = {"intersect": 0, "verify": 0, "rank": 0, "coordinates": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ideals, "_complete", complete)
    monkeypatch.setattr(Ideal, "__init__", init)
    monkeypatch.setattr(Ideal, "normal_form", normal_form)
    monkeypatch.setattr(Ideal, "intersect", counted("intersect", Ideal.intersect))
    monkeypatch.setattr(
        MembershipCertificate, "verify", counted("verify", MembershipCertificate.verify)
    )
    monkeypatch.setattr(linalg, "rank", counted("rank", linalg.rank))
    monkeypatch.setattr(
        QuotientRing, "coordinates", counted("coordinates", QuotientRing.coordinates)
    )
    report = full_report(EdgeLengths([1, 1, 1, 2]))
    made = list(runs)
    assert made and len(set(made)) == len(made), f"{len(made)} runs, {len(set(made))} distinct"
    assert counts["intersect"] == counts["rank"] == counts["coordinates"] == 0
    assert tables and all("a" not in table for table in tables)
    assert all("a" not in run[2].table for run in made)
    inst = HyperpolygonInstance(EdgeLengths([1, 1, 1, 2]))
    J = ideal_J(inst)
    assert [run[:2] for run in made].count((J._gb().kps, (inst.euler_e.terms,))) == 1
    targets = {inst.euler_e * inst.D(S) for S in inst.table.nonempty_shorts()}
    assert reduced and not any(gens == J.generators and p in targets for gens, p in reduced)
    assert counts["verify"] == len(report["certificates"]) == 7


def test_report_stage_attribution():
    # a budget too small to finish the colon computation names its stage
    from kirwan.errors import BudgetExceeded
    from kirwan.ideals import Budgets

    with pytest.raises(BudgetExceeded) as exc:
        full_report(EdgeLengths([1, 1, 1, 2]), budgets=Budgets(max_basis=3))
    assert hasattr(exc.value, "stage")


def test_instance_accepts_scaled_lengths(inst3):
    scaled = HyperpolygonInstance(EdgeLengths([2, 2, 2]))
    assert betti_numbers(scaled) == betti_numbers(inst3)
    tripled = HyperpolygonInstance(
        EdgeLengths([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])
    )
    assert [list(S) for S in tripled.table.shorts] == [
        list(S) for S in inst3.table.shorts
    ]
