from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan.errors import ParseError
from kirwan.ratfield import (
    RationalFunction,
    format_rational_function,
    parse_rational_function,
    upoly,
)
from kirwan.rings import VariableTable, parse_polynomial

coeffs = st.lists(
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8),
    max_size=4,
)


@st.composite
def ratfuncs(draw):
    num = draw(coeffs)
    den = draw(coeffs.filter(lambda c: any(c)))
    return RationalFunction(num, den)


def test_normalization():
    r = RationalFunction(upoly(2, 2), upoly(4))  # (2 + 2x)/4
    assert r == RationalFunction(upoly(Fraction(1, 2), Fraction(1, 2)))
    assert r.den == (Fraction(1),)
    # common factor x+1 cancels
    s = RationalFunction(upoly(1, 2, 1), upoly(1, 1))  # (x+1)^2/(x+1)
    assert s == RationalFunction(upoly(1, 1))
    assert s.is_polynomial()


def test_monic_denominator():
    r = RationalFunction(upoly(1), upoly(0, 2))  # 1/(2x)
    assert r.den == (Fraction(0), Fraction(1))
    assert r.num == (Fraction(1, 2),)


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(upoly(1), ())
    with pytest.raises(ZeroDivisionError):
        RationalFunction.one() / RationalFunction.zero()


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RationalFunction.zero() == a
    assert a * RationalFunction.one() == a
    assert a - a == RationalFunction.zero()


@given(ratfuncs())
def test_multiplicative_inverse(a):
    if a.is_zero():
        return
    assert a / a == RationalFunction.one()
    inv = RationalFunction.one() / a
    assert a * inv == RationalFunction.one()


@given(ratfuncs())
def test_parse_format_roundtrip(r):
    assert parse_rational_function(format_rational_function(r)) == r


def test_parse_fixed_forms():
    x = RationalFunction.x()
    assert parse_rational_function("x") == x
    assert parse_rational_function("x^2 - 1") == x * x - 1
    assert parse_rational_function("0") == RationalFunction.zero()
    third = parse_rational_function("1/3")
    assert third == RationalFunction(upoly(Fraction(1, 3)))


def test_int_coercion():
    x = RationalFunction.x()
    assert x + 1 == RationalFunction(upoly(1, 1))
    assert 2 * x == RationalFunction(upoly(0, 2))
    assert x - Fraction(1, 2) == RationalFunction(upoly(Fraction(-1, 2), 1))


def test_from_polynomial_roundtrip():
    T = VariableTable(["c", "x"], [2, 2])
    p = parse_polynomial(T, "x^3 - 2*x + 1")
    r = RationalFunction.from_polynomial(p)
    assert r.polynomial_coeffs() == (Fraction(1), Fraction(-2), Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        RationalFunction.from_polynomial(parse_polynomial(T, "c*x"))


def test_polynomial_coeffs_guard():
    r = RationalFunction(upoly(1), upoly(1, 1))
    assert not r.is_polynomial()
    with pytest.raises(ValueError):
        r.polynomial_coeffs()


@pytest.mark.parametrize("text", ["(x)/(0)", "(x^2 + 1)/(0*x)", "(x+1)/(x", "x/x"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_rational_function(text)


# ---------------------------------------------------------------------------
# canonical form against a reference: Euclid on the whole pair, no x-adic split


def _ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ])


def _ref_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        k = len(rem) - len(b)
        quo[k] = c
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
        rem = _ref_trim(rem)
    return quo, rem


def _ref_canonical(num, den):
    if not num:
        return (), (Fraction(1),)
    a, b = num, den
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    num, den = _ref_divmod(num, a)[0], _ref_divmod(den, a)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


small = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
nonzero = small.filter(bool)


@st.composite
def x_free(draw, max_degree):
    """A polynomial prime to x (nonzero constant term) of degree ≤ max_degree."""
    return _ref_trim([draw(nonzero)] + draw(st.lists(small, max_size=max_degree)))


@st.composite
def split_pairs(draw, kind):
    """(num, den) = (x^a·p·s, x^b·q·s) with den of the given kind.

    kind "constant": den is a constant; "power": den is c·x^b, b ≥ 1;
    "general": den has an x-free factor of degree ≥ 1, and s is a shared
    factor (x − r) or (x² + r) when drawn.
    """
    a = draw(st.integers(0, 4))
    p = draw(x_free(3))
    if draw(st.booleans()):
        p = [Fraction(0)]  # the zero numerator
    if kind == "general":
        b = draw(st.integers(0, 4))
        q = _ref_mul(draw(x_free(2)), [draw(nonzero), Fraction(1)])
        r = draw(nonzero)
        s = draw(st.sampled_from([[Fraction(1)], [-r, Fraction(1)], [r, Fraction(0), Fraction(1)]]))
    else:
        b = 0 if kind == "constant" else draw(st.integers(1, 5))
        q, s = [draw(nonzero)], [Fraction(1)]
    num = _ref_trim([Fraction(0)] * a + _ref_mul(p, s))
    den = [Fraction(0)] * b + _ref_mul(q, s)
    return num, den


def _check_canonical(r, num, den):
    expected = _ref_canonical(num, den)
    assert (r.num, r.den) == expected
    assert all(type(c) is Fraction for c in r.num + r.den)


@pytest.mark.parametrize("kind", ["constant", "power", "general"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_form_matches_reference(kind, data):
    num, den = data.draw(split_pairs(kind))
    _check_canonical(RationalFunction(num, den), num, den)
    # the arithmetic reaches the same form through the private constructor
    _check_canonical(RationalFunction(num) / RationalFunction(den), num, den)
    _check_canonical(RationalFunction(num) * RationalFunction(1, den), num, den)
    ref_num, ref_den = _ref_canonical(num, den)
    neg = -RationalFunction(num, den)
    assert (neg.num, neg.den) == (tuple(-c for c in ref_num), ref_den)


@settings(deadline=None)
@given(split_pairs("power"), split_pairs("general"))
def test_sum_of_mixed_denominators_matches_reference(left, right):
    (n1, d1), (n2, d2) = left, right
    num = _ref_add(_ref_mul(n1, d2) if n1 else [], _ref_mul(n2, d1) if n2 else [])
    den = _ref_mul(d1, d2)
    total = RationalFunction(n1, d1) + RationalFunction(n2, d2)
    _check_canonical(total, num, den)
