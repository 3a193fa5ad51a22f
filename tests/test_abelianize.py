import random
import re
from fractions import Fraction

import pytest

from kirwan import linalg
from kirwan.abelianize import (
    DagQuiver,
    KirwanPresentation,
    RootDatum,
    _sign_parity,
    class_b,
    class_e,
    class_eprime,
    kirwan_image,
    proper_quiver_weights,
    verify_second_iso,
)
from kirwan.errors import BudgetExceeded
from kirwan.hyperpolygon import (
    EdgeLengths,
    HyperpolygonInstance,
    ideal_J,
    second_iso_presentation,
)
from kirwan.ideals import Budgets, Ideal, QuotientRing
from kirwan.rings import Polynomial, VariableTable, parse_polynomial


@pytest.fixture(scope="module")
def su2():
    return RootDatum.from_text(
        """
        variables: a
        positive_roots: a
        weyl_order: 2
        """
    )


def test_su2_classes(su2):
    T = su2.table
    a = parse_polynomial(T, "a")
    x = parse_polynomial(T, "x")
    e = class_e(su2)
    assert e == a * a * (a * a - x * x)
    ep = class_eprime(su2)
    assert ep == -a * (x * x - a * a)
    assert class_b(su2) * ep == e
    assert e.exact_divide(ep) == class_b(su2)


def test_trivial_datum():
    triv = RootDatum(VariableTable(["t", "x"]), [], 1)
    assert class_e(triv) == Polynomial.one(triv.table)
    assert class_eprime(triv) == Polynomial.one(triv.table)
    assert class_b(triv) == Polynomial.one(triv.table)


def test_rank_two_datum_invariance():
    datum = RootDatum.from_text(
        """
        variables: t1 t2
        positive_roots: t1; t2; t1 + t2
        weyl_order: 6
        """
    )
    e = class_e(datum)
    assert e.is_homogeneous() and e.weighted_degree() == 12
    T = datum.table
    s1 = {"t1": parse_polynomial(T, "-t1"), "t2": parse_polynomial(T, "t1 + t2")}
    s2 = {"t2": parse_polynomial(T, "-t2"), "t1": parse_polynomial(T, "t1 + t2")}
    assert e.substitute(s1, table=T) == e
    assert e.substitute(s2, table=T) == e


def test_datum_rejects_bad_roots():
    with pytest.raises(ValueError):
        RootDatum.from_text(
            """
            variables: a
            positive_roots: a + x
            weyl_order: 2
            """
        )
    with pytest.raises(ValueError):
        RootDatum.from_text(
            """
            variables: a
            positive_roots: a^2
            weyl_order: 2
            """
        )


def test_kirwan_image_unit_euler():
    T = VariableTable(["y"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "y^2")]))
    img = kirwan_image(KirwanPresentation(ring, Polynomial.one(T)))
    assert img.ideal.equals(ring.ideal)


def test_kirwan_image_toy_colon():
    T = VariableTable(["y"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "y^2")]))
    img = kirwan_image(KirwanPresentation(ring, parse_polynomial(T, "y")))
    assert img.ideal.equals(Ideal(T, [parse_polynomial(T, "y")]))


def test_kirwan_image_runs_under_the_budgets_of_the_ring():
    # J at 1 1 1 2 has a 13-element basis; the colon inherits J's budgets
    inst = HyperpolygonInstance(EdgeLengths([1, 1, 1, 2]))
    J = ideal_J(inst)
    ring = QuotientRing(Ideal(J.table, J.generators, budgets=Budgets(max_basis=3)))
    with pytest.raises(BudgetExceeded) as info:
        kirwan_image(KirwanPresentation(ring, inst.euler_e))
    assert info.value.limit == 3


def _z2_setup():
    # full Q[u]/<u^4> with u -> -u; invariants Q[v]/<v^2>, v = u^2
    Tu = VariableTable(["u"])
    Tv = VariableTable(["v"], [4])
    full = QuotientRing(Ideal(Tu, [parse_polynomial(Tu, "u^4")]))
    inv = QuotientRing(Ideal(Tv, [parse_polynomial(Tv, "v^2")]))
    return Tu, Tv, full, inv


def test_second_iso_matching_toy():
    Tu, Tv, full, inv = _z2_setup()
    k = KirwanPresentation(
        inv, Polynomial.one(Tv), full_ring=full, euler_prime=Polynomial.one(Tu),
        w_action={"u": parse_polynomial(Tu, "-u")},
    )
    assert verify_second_iso(k) is True


def test_second_iso_detects_mismatch():
    Tu, Tv, full, inv = _z2_setup()
    k = KirwanPresentation(
        inv, parse_polynomial(Tv, "v"), full_ring=full,
        euler_prime=parse_polynomial(Tu, "u"),
        w_action={"u": parse_polynomial(Tu, "-u")},
        embed={"v": parse_polynomial(Tu, "u^2")},
    )
    assert verify_second_iso(k) is False


def test_second_iso_rejects_non_involution():
    Tu, Tv, full, inv = _z2_setup()
    k = KirwanPresentation(
        inv, Polynomial.one(Tv), full_ring=full, euler_prime=Polynomial.one(Tu),
        w_action={"u": parse_polynomial(Tu, "u^2")},
    )
    with pytest.raises(ValueError):
        verify_second_iso(k)


def test_second_iso_needs_full_data():
    T = VariableTable(["y"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "y^2")]))
    k = KirwanPresentation(ring, Polynomial.one(T))
    with pytest.raises(ValueError):
        verify_second_iso(k)


def _sign_case(full_generators, euler_prime="1"):
    # full Q[u, x]/I with u -> -u; invariants Q[v, x]/<v>, v = u^2
    T = VariableTable(["u", "x"])
    Tv = VariableTable(["v", "x"], [4, 2])
    full = QuotientRing(Ideal(T, [parse_polynomial(T, g) for g in full_generators]))
    inv = QuotientRing(Ideal(Tv, [parse_polynomial(Tv, "v")]))
    return KirwanPresentation(
        inv, Polynomial.one(Tv), full_ring=full, euler_prime=parse_polynomial(T, euler_prime),
        w_action={"u": parse_polynomial(T, "-u")},
    )


@pytest.mark.parametrize("images", [{"u": "v", "v": "u"}, {"w": "-u"}])
def test_second_iso_rejects_a_non_sign_action(images):
    T = VariableTable(["u", "v"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "u*v")]))
    k = KirwanPresentation(
        ring, Polynomial.one(T), full_ring=ring, euler_prime=Polynomial.one(T),
        w_action={name: parse_polynomial(T, image) for name, image in images.items()},
    )
    with pytest.raises(ValueError, match=f"W-action on {next(iter(images))} is not a sign"):
        verify_second_iso(k)


@pytest.mark.parametrize("generators, euler_prime, which", [
    (["u^2 + u*x"], "1", "the full ideal"),
    # <u^2, x^2> is W-stable, but its colon by u + x is <u - x, x^2>
    (["u^2", "x^2"], "u + x", "(full : e')"),
])
def test_second_iso_rejects_an_unstable_ideal(generators, euler_prime, which):
    with pytest.raises(ValueError, match=re.escape(f"does not preserve {which}")):
        verify_second_iso(_sign_case(generators, euler_prime))


def test_second_iso_reads_the_reduced_basis_not_the_generators():
    # u^2 + u*x has terms of both parities, but <u^2 + u*x, u^2> = <u^2, u*x>
    # is W-stable; the fixed part of Q[u, x]/<u^2, u*x> is Q[x], as is Q[v, x]/<v>
    assert verify_second_iso(_sign_case(["u^2 + u*x", "u^2"])) is True


def _fixed_dimension_by_rank(ring, w_action, degree):
    """Reference: dim ker(W - 1) on one graded piece, from the reduced images
    of its standard monomials and an exact rank."""
    rows = [
        ring.coordinates(p.substitute(w_action, table=ring.table), degree)
        for p in ring.graded_basis(degree)
    ]
    for i, row in enumerate(rows):
        row[i] -= 1
    return len(rows) - linalg.rank(rows, Fraction(0), Fraction(1)) if rows else 0


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 1, 1, 2), (1, 2, 4, 8), (1, 2, 4, 8, 16)])
def test_fixed_dimension_parity_count_matches_rank_reference(xi):
    k = second_iso_presentation(HyperpolygonInstance(EdgeLengths(list(xi))))
    left = kirwan_image(k)
    right = QuotientRing(k.full_ring.ideal.colon(k.euler_prime))
    assert not right.is_cofinite()
    bound = sum(ring.plus([Polynomial.variable(ring.table, "x")]).top_degree()
                for ring in (left, right)) + 4
    parity = _sign_parity(right.table, k.w_action)
    moved = 0
    for d in range(0, bound + 2, 2):
        count = sum(1 - parity(m) for m in right.std_monomials(d))
        assert count == _fixed_dimension_by_rank(right, k.w_action, d)
        moved += right.graded_dimension(d) - count
    assert moved > 0  # W negates some standard monomials: the comparison is not vacuous


def test_second_iso_reduces_nothing(monkeypatch, inst4):
    k = second_iso_presentation(inst4)
    # both colons are certified, by membership reductions, and memoized first
    kirwan_image(k)
    k.full_ring.ideal.colon(k.euler_prime)
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in ((Ideal, "normal_form"), (Polynomial, "substitute"), (linalg, "rank")):
        spy(owner, name)
    assert verify_second_iso(k) is True
    assert calls == []


# ---------------------------------------------------------------------------
# quiver weights


def test_path_quiver_weights():
    q = DagQuiver.from_text(
        """
        vertices: 1 2 3
        edges: 1 -> 2; 2 -> 3
        """
    )
    w = proper_quiver_weights(q)
    assert w == {"1": -3, "2": -2, "3": -1}


def test_single_vertex():
    assert proper_quiver_weights(DagQuiver(["v"], [])) == {"v": -1}


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        DagQuiver(["a", "b"], [("a", "b"), ("b", "a")])


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        DagQuiver(["a", "b"], [])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ValueError):
        DagQuiver(["a"], [("a", "z")])


def _random_dag(rng, n):
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    for _ in range(rng.randint(0, 2 * n)):
        i, j = sorted(rng.sample(range(n), 2))
        edges.append((names[i], names[j]))
    return names, edges


def test_randomized_dags_get_proper_weights():
    rng = random.Random(20260822)
    for trial in range(40):
        n = rng.randint(1, 50)
        if n == 1:
            names, edges = ["v0"], []
        else:
            names, edges = _random_dag(rng, n)
        q = DagQuiver(names, edges)
        w = proper_quiver_weights(q)
        assert set(w) == set(names)
        assert all(v < 0 for v in w.values())
        for a, b in edges:
            assert w[a] < w[b], (trial, a, b)


def test_randomized_cycle_injection_detected():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(3, 50)
        names, edges = _random_dag(rng, n)
        # close a directed cycle along a random forward path
        i, j = sorted(rng.sample(range(n), 2))
        edges = edges + [(names[i], names[j]), (names[j], names[i])]
        with pytest.raises(ValueError, match="cycle"):
            DagQuiver(names, edges)
        # the raw checker (no constructor validation) agrees
        raw = type("Raw", (), {})()
        raw.vertices = names
        raw.edges = edges
        with pytest.raises(ValueError, match="cycle"):
            proper_quiver_weights(raw)
