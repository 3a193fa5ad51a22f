from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kirwan import linalg
from kirwan.ratfield import RationalFunction, upoly

Z, I = Fraction(0), Fraction(1)

entries = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=6
)


@st.composite
def matrices(draw, max_n=4):
    nrows = draw(st.integers(1, max_n))
    ncols = draw(st.integers(1, max_n))
    return [
        [draw(entries) for _ in range(ncols)] for _ in range(nrows)
    ]


def test_rref_small():
    rows = [[1, 2], [2, 4]]
    red, pivots = linalg.rref([[Fraction(v) for v in r] for r in rows], Z, I)
    assert pivots == [0]
    assert red[0] == [Fraction(1), Fraction(2)]
    assert red[1] == [Fraction(0), Fraction(0)]


@given(matrices())
def test_rref_is_idempotent(m):
    red, pivots = linalg.rref(m, Z, I)
    red2, pivots2 = linalg.rref(red, Z, I)
    assert red2 == red and pivots2 == pivots


@given(matrices())
def test_rank_bounds(m):
    r = linalg.rank(m, Z, I)
    assert 0 <= r <= min(len(m), len(m[0]))


@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_vs_cofactor(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    expected = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert linalg.det(m, Z, I) == expected


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.det([[I, Z]], Z, I)


@given(matrices(max_n=3), st.data())
def test_solve_on_consistent_system(m, data):
    ncols = len(m[0])
    x = [data.draw(entries) for _ in range(ncols)]
    rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
    got = linalg.solve(m, rhs, Z, I)
    assert got is not None
    assert [sum(a * b for a, b in zip(row, got)) for row in m] == rhs


def test_solve_inconsistent():
    m = [[I, I], [I, I]]
    assert linalg.solve(m, [Fraction(1), Fraction(2)], Z, I) is None


def test_over_rational_functions():
    x = RationalFunction.x()
    zero, one = RationalFunction.zero(), RationalFunction.one()
    m = [[zero, one], [one, x]]
    assert linalg.det(m, zero, one) == zero - one
    assert linalg.rank(m, zero, one) == 2
    sol = linalg.solve(m, [one, zero], zero, one)
    # [a, b] with b = 1, a + b x = 0
    assert sol == [zero - x, one]
    singular = [[one, x], [x, x * x]]
    assert linalg.rank(singular, zero, one) == 1
    assert linalg.det(singular, zero, one) == zero
