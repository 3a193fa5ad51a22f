from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan.errors import InexactDivisionError, ParseError
from kirwan.rings import (
    BlockOrder,
    GrevlexOrder,
    LexOrder,
    Polynomial,
    VariableTable,
    format_polynomial,
    parse_polynomial,
    parse_rational,
)

T = VariableTable(["u", "v", "w"], [2, 2, 4])


def _mul(a, b):
    return tuple(map(add, a, b))


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
monomials = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)
)


@st.composite
def polys(draw, table=T, max_terms=6):
    terms = draw(st.lists(st.tuples(monomials, rationals), max_size=max_terms))
    return Polynomial(table, terms)


def test_table_basics():
    assert len(T) == 3
    assert "v" in T and "z" not in T
    assert T.index("w") == 2
    assert T.degree("w") == 4
    assert T.weighted_degree((1, 0, 2)) == 1 + 4  # weights are degree/2
    assert T.unit_exponents("u") == (1, 0, 0)


def test_table_validation():
    with pytest.raises(ValueError):
        VariableTable(["a", "a"])
    with pytest.raises(ValueError):
        VariableTable(["a"], [3])  # odd degree
    with pytest.raises(ValueError):
        VariableTable(["a"], [0])


def test_table_edits():
    t2 = T.prepend("t")
    assert t2.names[0] == "t" and len(t2) == 4
    t3 = T.append("x", 2)
    assert t3.names[-1] == "x"
    t4 = t3.drop("x")
    assert t4 == T


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_parse_format_fixed_points():
    for text in ["0", "1", "-1", "u", "2*u*v - w", "1/2*u^2 + v^2 - 3*w"]:
        p = parse_polynomial(T, text)
        assert parse_polynomial(T, format_polynomial(p)) == p


def test_parse_rejects_garbage():
    for bad in ["u +", "2**u", "y", "u^-1", "(u + v)"]:
        with pytest.raises(ParseError):
            parse_polynomial(T, bad)


@given(polys())
def test_format_parse_roundtrip(p):
    assert parse_polynomial(T, format_polynomial(p)) == p


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero(T) == p
    assert p * Polynomial.one(T) == p
    assert p - p == Polynomial.zero(T)


@given(polys(), rationals)
def test_scalar_action(p, c):
    assert c * p == Polynomial.constant(T, c) * p
    assert p * c == c * p


@given(polys(), polys())
def test_substitution_is_a_hom(p, q):
    images = {
        "u": parse_polynomial(T, "v + w"),
        "v": parse_polynomial(T, "-u"),
        "w": parse_polynomial(T, "u*v"),
    }
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


@given(polys(max_terms=4), polys(max_terms=4))
def test_exact_divide_inverts_product(p, q):
    if p.is_zero() or q.is_zero():
        return
    prod = p * q
    assert prod.exact_divide(q) == p
    assert q.divides(prod)


def test_homogeneous_components():
    p = parse_polynomial(T, "u^2 + u*v + w + 3")
    assert p.homogeneous_component(0) == parse_polynomial(T, "3")
    assert p.homogeneous_component(4) == parse_polynomial(T, "u^2 + u*v + w")
    assert not p.is_homogeneous()
    assert parse_polynomial(T, "u^2 + w").is_homogeneous()
    assert p.degree() == 4
    assert Polynomial.zero(T).degree() is None


@given(monomials, monomials)
def test_grevlex_respects_degree(m1, m2):
    order = GrevlexOrder(T)
    d1, d2 = T.weighted_degree(m1), T.weighted_degree(m2)
    if d1 < d2:
        assert order.key(m1) < order.key(m2)


@given(monomials, monomials, monomials)
def test_orders_are_multiplicative(m1, m2, shift):
    for order in (GrevlexOrder(T), LexOrder(T), BlockOrder(T, 1)):
        if order.key(m1) < order.key(m2):
            assert order.key(_mul(m1, shift)) < order.key(_mul(m2, shift))


def test_block_order_eliminates():
    # anything containing the front variable beats everything front-free
    order = BlockOrder(T, 1)
    assert order.key((1, 0, 0)) > order.key((0, 4, 3))
    with pytest.raises(ValueError):
        BlockOrder(T, 0)
    with pytest.raises(ValueError):
        BlockOrder(T, 3)


def test_reindex_and_substitute_names():
    t2 = VariableTable(["w", "u", "v"], [4, 2, 2])
    p = parse_polynomial(T, "u^2 - 3*w")
    q = p.reindex(t2)
    assert format_polynomial(q) == format_polynomial(parse_polynomial(t2, "u^2 - 3*w"))
    back = q.reindex(T)
    assert back == p


# -- the packed representation against a dict[exponents, Fraction] oracle ----

coef_terms = st.lists(st.tuples(monomials, rationals), max_size=6)


def _ref(terms) -> dict:
    out: dict = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b, sign=1):
    return _ref(list(a.items()) + [(e, sign * c) for e, c in b.items()])


def _ref_mul(a, b):
    return _ref([(_mul(e1, e2), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()])


def _ref_pow(a, n):
    out = {(0,) * len(T): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_subst(a, images):
    """images: one reference polynomial per variable of T."""
    out: dict = {}
    for e, c in a.items():
        term = {(0,) * len(T): c}
        for img, k in zip(images, e):
            term = _ref_mul(term, _ref_pow(img, k))
        out = _ref_add(out, term)
    return out


def _agrees(p: Polynomial, want: dict) -> None:
    """p has the value want, the terms view's order and types, and the
    canonical packed form: content 1, positive head, one Fraction scale."""
    terms = p.terms
    assert dict(terms) == want
    assert [e for e, _ in terms] == sorted(want, key=GrevlexOrder(p.table).key, reverse=True)
    assert all(type(e) is tuple and type(c) is Fraction for e, c in terms)
    assert type(p.scale) is Fraction
    coefs = [c for _, _, c in p.packed]
    if coefs:
        assert gcd(*coefs) == 1 and coefs[0] > 0
        assert [k for k, _, _ in p.packed] == sorted(k for k, _, _ in p.packed)
    else:
        assert p.scale == 0


@given(coef_terms, coef_terms)
def test_oracle_add_sub_mul(ta, tb):
    a, b = Polynomial(T, ta), Polynomial(T, tb)
    ra, rb = _ref(ta), _ref(tb)
    _agrees(a, ra)
    _agrees(a + b, _ref_add(ra, rb))
    _agrees(a - b, _ref_add(ra, rb, -1))
    _agrees(-a, {e: -c for e, c in ra.items()})
    _agrees(a * b, _ref_mul(ra, rb))
    _agrees(3 - a, _ref_add({(0, 0, 0): Fraction(3)}, ra, -1))


@given(st.lists(st.tuples(coef_terms, coef_terms), max_size=4))
def test_oracle_dot(pairs):
    want: dict = {}
    for ta, tb in pairs:
        want = _ref_add(want, _ref_mul(_ref(ta), _ref(tb)))
    _agrees(Polynomial.dot(T, [(Polynomial(T, ta), Polynomial(T, tb)) for ta, tb in pairs]), want)


def test_dot_rejects_mixed_tables():
    other = VariableTable(["u", "v"])
    with pytest.raises(ValueError):
        Polynomial.dot(T, [(Polynomial.one(T), Polynomial.one(other))])


@given(coef_terms, st.integers(0, 4), rationals)
def test_oracle_pow_and_scalars(ta, n, q):
    a, ra = Polynomial(T, ta), _ref(ta)
    _agrees(a ** n, _ref_pow(ra, n))
    _agrees(a * q, _ref({e: c * q for e, c in ra.items()}.items()))
    _agrees(q * a, _ref({e: c * q for e, c in ra.items()}.items()))
    if q:
        _agrees(a / q, {e: c / q for e, c in ra.items()})
    else:
        with pytest.raises(ZeroDivisionError):
            a / q


@given(coef_terms, coef_terms)
def test_oracle_equality_and_hash(ta, tb):
    a, b = Polynomial(T, ta), Polynomial(T, tb)
    assert (a == b) == (_ref(ta) == _ref(tb))
    # the same value built another way has the same canonical form
    twice = (a * 2) / 2 + Polynomial.zero(T)
    assert twice == a and hash(twice) == hash(a)
    assert twice.packed == a.packed and twice.scale == a.scale
    assert (a == 3) == (_ref(ta) == {(0, 0, 0): 3})
    assert (a == 0) == (not _ref(ta))


def test_equality_with_scalars():
    three = Polynomial.constant(T, 3)
    assert three == 3 and three == Fraction(3) and 3 == three
    assert three != 2 and parse_polynomial(T, "3*u") != 3
    assert Polynomial.zero(T) == 0 and Polynomial.one(T) == 1
    assert hash(three) == hash(parse_polynomial(T, "6/2"))


U, V, W = ({(1, 0, 0): Fraction(1)}, {(0, 1, 0): Fraction(1)}, {(0, 0, 1): Fraction(1)})


def _neg(r):
    return {e: -c for e, c in r.items()}


@pytest.mark.parametrize("images,ref_images", [
    ({"u": "-u"}, [_neg(U), V, W]),                      # a -> -a
    ({"u": "v", "v": "u"}, [V, U, W]),                   # c_i <-> c_j
    ({"u": "-v", "v": "u", "w": "-w"}, [_neg(V), U, _neg(W)]),
    ({"u": "v + w", "w": "u*v"}, [_ref_add(V, W), V, _ref_mul(U, V)]),
    ({"u": "2*v", "v": "-u"}, [{(0, 1, 0): Fraction(2)}, _neg(U), W]),
    ({"u": "v"}, [V, V, W]),                             # not injective
    ({"u": "1/3", "w": "0"}, [{(0, 0, 0): Fraction(1, 3)}, V, {}]),
])
@settings(max_examples=40)
@given(ta=coef_terms)
def test_oracle_substitute(images, ref_images, ta):
    imgs = {k: parse_polynomial(T, v) for k, v in images.items()}
    _agrees(Polynomial(T, ta).substitute(imgs), _ref_subst(_ref(ta), ref_images))


@given(coef_terms)
def test_oracle_reindex(ta):
    t2 = VariableTable(["x", "w", "v", "u"], [2, 4, 2, 2])
    want = {(0, e[2], e[1], e[0]): c for e, c in _ref(ta).items()}
    moved = Polynomial(T, ta).reindex(t2)
    _agrees(moved, want)
    merged = Polynomial(T, ta).reindex(t2, {"u": "v"})
    _agrees(merged, _ref([((0, e[2], e[0] + e[1], 0), c) for e, c in _ref(ta).items()]))


@settings(max_examples=60)
@given(st.lists(st.tuples(monomials, rationals), max_size=4),
       st.lists(st.tuples(monomials, rationals), min_size=1, max_size=3))
def test_oracle_exact_divide(ta, tb):
    a, b = Polynomial(T, ta), Polynomial(T, tb)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.exact_divide(b)
        return
    _agrees((a * b).exact_divide(b), _ref(ta))
    if b.weighted_degree():
        with pytest.raises(InexactDivisionError):
            (a * b + 1).exact_divide(b)


@given(coef_terms, st.integers(0, 12))
def test_oracle_homogeneous_component(ta, degree):
    want = {e: c for e, c in _ref(ta).items() if 2 * T.weighted_degree(e) == degree}
    _agrees(Polynomial(T, ta).homogeneous_component(degree), want)


def test_exponent_limit():
    big = Polynomial(T, [((32767, 0, 0), 3)])
    assert big.terms == (((32767, 0, 0), Fraction(3)),)
    u = Polynomial.variable(T, "u")
    assert (u ** 32767).terms == (((32767, 0, 0), Fraction(1)),)
    assert (u ** 32767).exact_divide(u ** 32766) == u
    for make in (
        lambda: Polynomial(T, [((32768, 0, 0), 1)]),
        lambda: big * u,
        lambda: u ** 32768,
        lambda: (big + 1).substitute({"v": u}, T) * u,
        lambda: Polynomial(T, [((0, 0, 32767), 1)]).reindex(T, {"w": "v"}) * parse_polynomial(T, "v"),
    ):
        with pytest.raises(OverflowError, match="packed kernel"):
            make()
