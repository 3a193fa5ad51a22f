import random
from fractions import Fraction

import pytest

from kirwan import linalg
from kirwan.errors import VerificationError
from kirwan.ideals import Ideal, QuotientRing
from kirwan.localization import (
    CircleCompactModel,
    FixedComponent,
    ModelMap,
    ProductModel,
    diagonal_basis,
    load_fixture,
    verify_integration_adjunction,
)
from kirwan.ratfield import RationalFunction, format_rational_function, upoly
from kirwan.rings import Polynomial, VariableTable, parse_polynomial

RF = RationalFunction


@pytest.fixture(scope="module")
def line():
    return load_fixture("line")


@pytest.fixture(scope="module")
def product():
    return load_fixture("product")


@pytest.fixture(scope="module")
def segre():
    return load_fixture("segre")


def all_components(line, product, segre):
    for fx in (line, product):
        yield from fx.model.components
    yield from segre.source.model.components
    yield from segre.target.model.components


# ---------------------------------------------------------------------------
# euler inverses


def test_invert_euler_every_fixture_component(line, product, segre):
    seen = 0
    for comp in all_components(line, product, segre):
        inv = comp.invert_euler()
        unit = {comp._unit_mono(): RF.one()}
        assert comp.mul(inv, comp.euler) == unit
        seen += 1
    assert seen == 8


def test_line_euler_inverse_value(line):
    plus = line.model.components[0]  # euler is x at the positive fixed point
    inv = plus.invert_euler()
    assert inv == {(): RF(upoly(1), upoly(0, 1))}


def test_invert_euler_catches_tampering(line):
    comp = line.model.components[0]
    comp.invert_euler()
    saved = comp._inverse
    try:
        comp._inverse = {(): RF.one()}  # wrong: claims 1/x = 1
        with pytest.raises(VerificationError):
            comp.invert_euler()
    finally:
        comp._inverse = saved


# ---------------------------------------------------------------------------
# component construction guards


def test_component_rejects_x_in_algebra():
    T = VariableTable(["x"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "x^2")]))
    with pytest.raises(ValueError):
        FixedComponent("bad", ring, {(0,): RF.one()}, (1,))


def test_component_rejects_infinite_algebra():
    T = VariableTable(["t"])
    ring = QuotientRing(Ideal(T, []))
    with pytest.raises(ValueError):
        FixedComponent("bad", ring, {(0,): RF.one()}, (0,))


def test_component_rejects_bad_euler_unit():
    T = VariableTable(["t"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "t^2")]))
    # unit part x + x^2 is not a single a*x^k term
    with pytest.raises(ValueError):
        FixedComponent("bad", ring, {(0,): RF(upoly(0, 1, 1)), (1,): RF.one()}, (1,))
    # no unit part at all
    with pytest.raises(ValueError):
        FixedComponent("bad", ring, {(1,): RF.one()}, (1,))


def test_map_pullback_must_respect_relations(line):
    T = VariableTable(["t"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "t^2")]))
    comp = FixedComponent("pt", ring, {(0,): RF.x()}, (1,))
    model = CircleCompactModel([comp])
    with pytest.raises(VerificationError):
        # t -> x has t^2 -> x^2 != 0
        ModelMap(model, model, [0], [{"t": "x"}])


def test_map_needs_one_pullback_per_component(line):
    model = line.model
    with pytest.raises(ValueError):
        ModelMap(model, model, [0, 1], [{}])
    with pytest.raises(ValueError):
        ModelMap(model, model, [0, 1], [{}, {}, {}])


@pytest.mark.parametrize("assignment", [[0, -1], [0, 5], [0, 2]], ids=["minus1", "5", "2"])
def test_map_rejects_assignment_out_of_range(line, assignment):
    model = line.model
    with pytest.raises(ValueError):
        ModelMap(model, model, assignment, [{}, {}])


def test_pullback_of_square_is_square_of_pullback():
    # Q[t]/(t^3), so the pullback of h^2 evaluates the exponent 2
    T = VariableTable(["t"])
    ring = QuotientRing(Ideal(T, [parse_polynomial(T, "t^3")]))
    model = CircleCompactModel([FixedComponent("pt", ring, {(0,): RF.x()}, (2,))])
    f = ModelMap(model, model, [0], [{"t": "2*t + t^2"}])
    h = model.from_strings(["t"])
    assert f.pullback(h * h) == f.pullback(h) * f.pullback(h)
    assert f.pullback(h * h) == model.from_strings(["4*t^2"])


# ---------------------------------------------------------------------------
# line fixture: integration goldens and the diagonal decomposition


def test_line_integrals(line):
    model = line.model
    one = model.one()
    h = line.classes["hyperplane"]
    assert model.integrate(one) == RF.zero()
    assert model.integrate(h) == RF.one()
    assert model.integrate(h * h) == RF.x()
    gram = model.gram([one, h])
    assert gram == [[RF.zero(), RF.one()], [RF.one(), RF.x()]]
    assert model.is_nondegenerate([one, h])


def test_line_restriction_matches_class(line):
    amb = line.ambient.table
    assert line.restrict(parse_polynomial(amb, "h")) == line.classes["hyperplane"]
    # h^2 = h x in the ambient presentation
    hh = line.restrict(parse_polynomial(amb, "h^2"))
    assert line.model.integrate(hh) == RF.x()


@pytest.mark.parametrize("fixture", ["line", "segre"])
def test_restrict_maps_x_and_powers(fixture, request):
    fx = request.getfixturevalue(fixture)
    if fixture == "segre":
        fx = fx.target
    amb = fx.ambient.table
    h = fx.restrict(parse_polynomial(amb, "h"))
    assert fx.restrict(parse_polynomial(amb, "x*h")) == h.scaled(RF.x())
    assert fx.restrict(parse_polynomial(amb, "h^2")) == h * h
    assert fx.restrict(parse_polynomial(amb, "x^2 - 3")) == fx.model.one().scaled(
        RF.x() * RF.x() - 3
    )


def test_line_diagonal_basis(line):
    model = line.model
    one = model.one()
    h = line.classes["hyperplane"]
    xcls = model.from_strings(["x", "x"])
    assert diagonal_basis(model, [(one, h - xcls), (h, one)]) is True


def test_line_diagonal_basis_rejects_wrong_decomposition(line):
    model = line.model
    one = model.one()
    h = line.classes["hyperplane"]
    with pytest.raises(VerificationError):
        diagonal_basis(model, [(one, h), (h, one)])


# ---------------------------------------------------------------------------
# nondegeneracy of every fixture pairing


def test_pairings_nondegenerate(line, product, segre):
    for model in (line.model, product.model, segre.source.model, segre.target.model):
        assert model.is_nondegenerate(model.std_basis())


# Standard Gram matrices of every fixture model and their determinants, as text.
FROZEN_GRAMS = {
    "line": (
        [["(1)/(x)", "0"], ["0", "(-1)/(x)"]],
        "(-1)/(x^2)",
    ),
    "segre-source": (
        [["0", "(1)/(x)", "0", "0"], ["(1)/(x)", "0", "0", "0"],
         ["0", "0", "0", "(-1)/(x)"], ["0", "0", "(-1)/(x)", "0"]],
        "(1)/(x^4)",
    ),
    "segre-target": (
        [["(-2)/(x^3)", "(1)/(x^2)", "0", "0"], ["(1)/(x^2)", "0", "0", "0"],
         ["0", "0", "(2)/(x^3)", "(1)/(x^2)"], ["0", "0", "(1)/(x^2)", "0"]],
        "(1)/(x^8)",
    ),
    "product": (
        [["0", "(1)/(x)", "0", "0"], ["(1)/(x)", "0", "0", "0"],
         ["0", "0", "0", "(-1)/(x)"], ["0", "0", "(-1)/(x)", "0"]],
        "(1)/(x^4)",
    ),
}


@pytest.mark.parametrize("which", sorted(FROZEN_GRAMS))
def test_standard_gram_frozen(which, line, product, segre):
    model = {
        "line": line.model,
        "segre-source": segre.source.model,
        "segre-target": segre.target.model,
        "product": product.model,
    }[which]
    gram = model.gram()
    expected_gram, expected_det = FROZEN_GRAMS[which]
    assert [[format_rational_function(c) for c in row] for row in gram] == expected_gram
    det = linalg.det(gram, RF.zero(), RF.one())
    assert format_rational_function(det) == expected_det


# ---------------------------------------------------------------------------
# segre fixture: localized isomorphism vs integral failure


def test_segre_target_integrals(segre):
    amb = segre.target.ambient.table
    tgt = segre.target
    assert tgt.model.integrate(tgt.restrict(parse_polynomial(amb, "h^3"))) == RF.one()
    assert tgt.model.integrate(tgt.restrict(parse_polynomial(amb, "h^4"))) == RF.x() * 2
    assert tgt.model.integrate(tgt.model.one()) == RF.zero()


def test_segre_pullback_coherence(segre):
    amb_t = segre.target.ambient.table
    amb_s = segre.source.ambient.table
    h = segre.target.restrict(parse_polynomial(amb_t, "h"))
    uv = segre.source.restrict(parse_polynomial(amb_s, "u + v"))
    assert segre.map.pullback(h) == uv


def test_segre_rationalized_iso_rank(segre):
    rows = [segre.map.pullback(b).coordinates() for b in segre.target.model.std_basis()]
    assert linalg.rank(rows, RF.zero(), RF.one()) == 4
    assert len(segre.source.model.std_basis()) == 4


def test_segre_integral_surjectivity_fails(segre):
    rows, dim = segre.ambient_map_matrix(2)
    assert dim == 3
    assert linalg.rank(rows, Fraction(0), Fraction(1)) == 2
    # v is a degree-2 class outside the integral image
    vrow = [Fraction(0), Fraction(1), Fraction(0)]
    assert linalg.rank(rows + [vrow], Fraction(0), Fraction(1)) == 3


# ---------------------------------------------------------------------------
# randomized adjunction / functoriality / projection formula battery


def random_rf(rng) -> RF:
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    if not any(coeffs):
        coeffs[-1] = Fraction(1)
    return RF(coeffs)


def random_class(rng, model):
    basis = model.std_basis()
    out = model.zero()
    for b in basis:
        if rng.random() < 0.7:
            out = out + b.scaled(random_rf(rng))
    return out


def test_randomized_localization_identities(segre):
    rng = random.Random(20260822)
    f = segre.map
    src, tgt = segre.source.model, segre.target.model
    pm = ProductModel(src)
    cases = 0

    # adjunction along the embedding
    for _ in range(40):
        a = random_class(rng, tgt)
        g = random_class(rng, src)
        assert verify_integration_adjunction(f, a, g)
        cases += 1

    # adjunction along the first projection of M x M
    for _ in range(30):
        a = random_class(rng, src)
        g = random_class(rng, pm.model)
        assert verify_integration_adjunction(pm.pi1, a, g)
        cases += 1

    # functoriality of pullback through an honest composition:
    # pi1 o diagonal is the identity of M, so f o (pi1 o diagonal) = f
    retract = pm.pi1.compose(pm.diagonal)
    composite = f.compose(retract)
    for _ in range(10):
        a = random_class(rng, tgt)
        assert retract.pullback(f.pullback(a)) == composite.pullback(a)
        assert composite.pullback(a) == f.pullback(a)
        cases += 1

    # pushforward functoriality on the same pair
    for _ in range(10):
        g = random_class(rng, src)
        assert composite.pushforward(g) == f.pushforward(retract.pushforward(g))
        cases += 1

    # projection formula f_*(f^*(a) g) = a f_*(g)
    for _ in range(20):
        a = random_class(rng, tgt)
        g = random_class(rng, src)
        assert f.pushforward(f.pullback(a) * g) == a * f.pushforward(g)
        cases += 1
    for _ in range(10):
        a = random_class(rng, src)
        g = random_class(rng, pm.model)
        assert pm.pi1.pushforward(pm.pi1.pullback(a) * g) == a * pm.pi1.pushforward(g)
        cases += 1

    assert cases >= 100


# ---------------------------------------------------------------------------
# product model structure


def test_product_model_tensor_and_diagonal(product):
    model = product.model
    pm = ProductModel(model)
    ruling = product.classes["ruling"]
    tangent = product.classes["tangent"]
    assert pm.tensor(ruling, tangent) == pm.pi1.pullback(ruling) * pm.pi2.pullback(tangent)
    diag = pm.diagonal.pushforward(model.one())
    total = pm.model.integrate(diag * pm.tensor(model.one(), model.one()))
    assert total == model.integrate(model.one())


@pytest.mark.parametrize("which", ["line", "segre-source", "segre-target"])
def test_equivariant_class_algebra(which, line, segre):
    rng = random.Random(7)
    model = {
        "line": line.model,
        "segre-source": segre.source.model,
        "segre-target": segre.target.model,
    }[which]
    classes = [random_class(rng, model) for _ in range(3)]
    a, b, c = classes
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).values == tuple({} for _ in model.components)
    s = random_rf(rng)
    assert model.integrate(a.scaled(s) + b) == s * model.integrate(a) + model.integrate(b)
