"""The packed reduction kernel against plain-Fraction oracles.

Orders come from `rings`, divisibility from the fieldwise comparison
`mono_divides` below, and the normal form and S-polynomial from textbook
division over Q with the kernel's rule that the first reducer in list order
whose leading monomial divides the head wins.
"""

from fractions import Fraction
from math import gcd
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan import _kernel as K
from kirwan._kernel import pure
from kirwan._kernel.pure import EXP_MAX
from kirwan.ideals import _order_spec
from kirwan.rings import BlockOrder, GrevlexOrder, LexOrder, VariableTable

NVARS = 4

TABLES = [
    VariableTable(["a", "b", "c", "d"]),
    VariableTable(["a", "b", "c", "d"], [2, 4, 2, 6]),
]
ORDERS = [
    make(table)
    for table in TABLES
    for make in (
        GrevlexOrder,
        LexOrder,
        lambda t: BlockOrder(t, 1),
        lambda t: BlockOrder(t, 3),
    )
]

orders = st.sampled_from(ORDERS)
small_monos = st.tuples(*([st.integers(0, 4)] * NVARS))
# exponents anywhere in the packed range, with weight on its ends
wide_exps = st.one_of(
    st.integers(0, 3), st.integers(EXP_MAX - 3, EXP_MAX), st.integers(0, EXP_MAX)
)
wide_monos = st.tuples(*([wide_exps] * NVARS))
iterms = st.lists(st.tuples(small_monos, st.integers(-30, 30)), max_size=7)


def mono_divides(a, b):
    return all(map(le, a, b))


def _cmp(x, y):
    return (x > y) - (x < y)


def _poly(iterms_):
    """mono -> Fraction, zero terms dropped."""
    out = {}
    for m, c in iterms_:
        out[m] = out.get(m, 0) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def _lead(p, order):
    m = max(p, key=order.key)
    return m, p[m]


def _shift(p, q, c):
    """c * x^q * p."""
    return {tuple(a + b for a, b in zip(m, q)): c * v for m, v in p.items()}


def _sub(p, r):
    out = dict(p)
    for m, v in r.items():
        out[m] = out.get(m, 0) - v
    return {m: v for m, v in out.items() if v}


def _remainder(p, reducers, order):
    """Division over Q: the first reducer whose lead divides the head wins."""
    rem = {}
    while p:
        m, c = _lead(p, order)
        for r in reducers:
            rm, rc = _lead(r, order)
            if mono_divides(rm, m):
                q = tuple(a - b for a, b in zip(m, rm))
                p = _sub(p, _shift(r, q, c / rc))
                break
        else:
            rem[m] = c
            del p[m]
    return rem


def _iterms(kp):
    """(mono, coef) pairs of a KP, head first."""
    if kp is None:
        return []
    return [(kp[1], kp[2])] + [(pure._unpack(pm, len(kp[1])), c) for _, pm, c in kp[3]]


def _check_primitive(coefs):
    g = 0
    for c in coefs:
        g = gcd(g, c)
    assert g == 1


def test_public_surface():
    assert K.KERNEL_NAME == "pure"
    for name in ("key_of", "kp_make", "kp_from_terms", "kp_spoly", "kp_normal_form"):
        assert callable(getattr(K, name))


@given(orders, wide_monos, wide_monos)
def test_key_orders_like_rings(order, a, b):
    spec = _order_spec(order)
    assert _cmp(K.key_of(spec, a), K.key_of(spec, b)) == _cmp(order.key(a), order.key(b))


@given(orders, small_monos, small_monos)
def test_key_is_additive(order, a, b):
    spec = _order_spec(order)
    ab = tuple(x + y for x, y in zip(a, b))
    assert K.key_of(spec, ab) == K.key_of(spec, a) + K.key_of(spec, b)


@given(wide_monos, wide_monos)
def test_mask_divisibility_matches_mono_divides(a, b):
    # the test kp_normal_form and the reducer search inline
    mask = pure._packer(NVARS)[1]
    assert (((pure._pack(b) - pure._pack(a)) & mask) == 0) == mono_divides(a, b)


@given(orders, wide_monos, wide_monos)
def test_single_term_reduction_is_divisibility(order, a, b):
    spec = _order_spec(order)
    target = K.kp_make([(b, 3)], spec)
    reducer = K.kp_make([(a, 2)], spec)
    _, _, terms = K.kp_normal_form(target, [reducer], spec)
    assert (terms == []) == mono_divides(a, b)


@given(orders, iterms)
def test_kp_make_contract(order, terms):
    spec = _order_spec(order)
    kp = K.kp_make(terms, spec)
    p = _poly(terms)
    if not p:
        assert kp is None
        assert _iterms(kp) == []
        return
    lead, _ = _lead(p, order)
    assert kp[0] == K.key_of(spec, lead)
    assert kp[1] == lead and kp[2] > 0
    back = _iterms(kp)
    assert [m for m, _ in back] == sorted(p, key=order.key, reverse=True)
    _check_primitive([c for _, c in back])
    ratio = Fraction(kp[2]) / p[lead]
    assert all(p[m] * ratio == c for m, c in back)
    assert K.kp_make(back, spec) == kp
    full = ((-kp[0], kp[4], kp[2]),) + kp[3]
    assert K.kp_from_terms([(k, m, -3 * c) for k, m, c in full], NVARS) == kp


@settings(max_examples=300)
@given(orders, iterms, st.lists(iterms, max_size=4))
def test_normal_form_equals_fraction_division(order, target_terms, reducer_terms):
    spec = _order_spec(order)
    target = K.kp_make(target_terms, spec)
    reducers = [K.kp_make(t, spec) for t in reducer_terms]
    reducers = [r for r in reducers if r is not None]
    num, den, terms = K.kp_normal_form(target, reducers, spec)
    assert num > 0 and den > 0 and gcd(num, den) == 1
    want = _remainder(
        _poly(_iterms(target)), [_poly(_iterms(r)) for r in reducers], order
    )
    got = {pure._unpack(pm, NVARS): Fraction(num, den) * c for _, pm, c in terms}
    assert got == want
    assert [pure._unpack(pm, NVARS) for _, pm, _ in terms] == sorted(
        want, key=order.key, reverse=True
    )
    assert [nk for nk, _, _ in terms] == [
        -K.key_of(spec, pure._unpack(pm, NVARS)) for _, pm, _ in terms
    ]
    if terms:
        _check_primitive([c for _, _, c in terms])
    else:
        assert (num, den) == (1, 1)


@given(orders, iterms, iterms)
def test_spoly_equals_fraction_spoly(order, t1, t2):
    spec = _order_spec(order)
    f, g = K.kp_make(t1, spec), K.kp_make(t2, spec)
    if f is None or g is None:
        return
    pf, pg = _poly(_iterms(f)), _poly(_iterms(g))
    (fm, fc), (gm, gc) = _lead(pf, order), _lead(pg, order)
    lcm = tuple(map(max, fm, gm))
    qf = tuple(a - b for a, b in zip(lcm, fm))
    qg = tuple(a - b for a, b in zip(lcm, gm))
    want = _sub(_shift(pf, qf, 1 / fc), _shift(pg, qg, 1 / gc))
    s = K.kp_spoly(f, g, spec)
    if not want:
        assert s is None
        return
    got = _iterms(s)
    assert s[2] > 0
    _check_primitive([c for _, c in got])
    scale = Fraction(s[2]) / want[s[1]]
    assert _poly(got) == {m: c * scale for m, c in want.items()}
    assert [m for m, _ in got] == sorted(want, key=order.key, reverse=True)


# -- exponents beyond the packed field ---------------------------------------

LEX = ("lex", 2)


def test_exponent_at_the_limit_is_exact():
    # x0 -> -x1^EXP_MAX under lex, the largest exponent a field holds
    r = K.kp_make([((1, 0), 1), ((0, EXP_MAX), 1)], LEX)
    target = K.kp_make([((1, 0), 1)], LEX)
    assert K.kp_normal_form(target, [r], LEX) == (
        1, 1, [(-K.key_of(LEX, (0, EXP_MAX)), pure._pack((0, EXP_MAX)), -1)]
    )
    assert K.key_of(LEX, (0, EXP_MAX)) < K.key_of(LEX, (1, 0))


@pytest.mark.parametrize("mono", [(EXP_MAX + 1, 0), (0, EXP_MAX + 1), (0, -1)])
def test_input_exponent_out_of_range_raises(mono):
    with pytest.raises(OverflowError, match="packed kernel"):
        K.kp_make([(mono, 1)], LEX)
    with pytest.raises(OverflowError, match="packed kernel"):
        K.key_of(LEX, mono)


def test_reduction_past_the_limit_raises():
    # reducing x0*x1 by x0 + x1^EXP_MAX produces x1^(EXP_MAX + 1), whose key
    # must not fall on the key of the x0 still in the work
    r = K.kp_make([((1, 0), 1), ((0, EXP_MAX), 1)], LEX)
    target = K.kp_make([((1, 1), 1), ((1, 0), 1)], LEX)
    with pytest.raises(OverflowError, match="packed kernel"):
        K.kp_normal_form(target, [r], LEX)


def test_spoly_past_the_limit_raises():
    f = K.kp_make([((1, 0), 1), ((0, EXP_MAX), 1)], LEX)
    g = K.kp_make([((1, 1), 1)], LEX)
    with pytest.raises(OverflowError, match="packed kernel"):
        K.kp_spoly(f, g, LEX)
