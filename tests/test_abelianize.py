import random

import pytest

from kirwan.abelianize import (
    DagQuiver,
    KirwanPresentation,
    RootDatum,
    class_b,
    class_e,
    class_eprime,
    kirwan_image,
    proper_quiver_weights,
    verify_second_iso,
)
from kirwan.errors import BudgetExceeded
from kirwan.hyperpolygon import EdgeLengths, HyperpolygonInstance, ideal_J
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
