"""Reduction kernel on packed exponent vectors.

Every term carries its order key and its monomial as Python ints, so the
inner loops of reduction do integer arithmetic only (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007):

  packed monomial: exponent i in bits [16*i, 16*i + 16); the top bit of each
    field is a guard that stays clear, so exponents run from 0 to EXP_MAX.
    Multiplication is one int add, and a divides b exactly when
    ((b - a) & MASK) == 0, MASK holding the guard bits: a field with
    b_i < a_i borrows and sets its own guard bit.
  order key: a linear form in the exponents whose value orders monomials as
    the spec's order does.  The order's key tuple (weighted degree, negated
    exponents, ...) is read in mixed radix, each digit wide enough for
    exponents up to 2*EXP_MAX, so the key of a product is the sum of the keys
    and an overflowing product still gets a distinct key until it is caught.

  kernel polynomial (KP): (lt_key, lt_mono, lt_coef, tail, lt_packed)
    lt_mono: the leading exponent tuple; lt_packed: the same monomial packed
    tail: tuple of (-key, packed mono, coef), strictly descending in the order
      (the key is stored negated so heapq pops the largest term first)
    coefficients: Python ints, gcd 1 over the whole polynomial, lt_coef > 0
  the zero polynomial is None

  order spec: ("grevlex", weights) | ("lex", nvars) | ("block", front, weights)

kp_normal_form accumulates the remaining work in a dict keyed by the negated
key, with a heap of those keys (Yan, "The geobucket data structure for
polynomials", JSC 1998, is the same idea with buckets), and tracks the
denominator its pseudo-steps introduce, so it returns the exact normal form
as (num, den, terms) with value = (num/den) * terms.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from operator import mul
from struct import Struct

_FIELD_BITS = 16
EXP_MAX = (1 << (_FIELD_BITS - 1)) - 1

_LAYOUTS: dict = {}
_PACKERS: dict = {}


def _exponent_error(what) -> OverflowError:
    return OverflowError(f"{what} has an exponent outside 0..{EXP_MAX}, the packed kernel's range")


def _packer(n):
    """(struct for n 16-bit fields, guard-bit MASK) for n variables."""
    p = _PACKERS.get(n)
    if p is None:
        guard = 1 << (_FIELD_BITS - 1)
        mask = 0
        for i in range(n):
            mask |= guard << (_FIELD_BITS * i)
        p = _PACKERS[n] = (Struct(f"<{n}H"), mask)
    return p


def _key_digits(spec):
    """The order's key tuple as coefficient vectors over the exponents."""
    tag = spec[0]

    def unit(n, i, sign):
        v = [0] * n
        v[i] = sign
        return v

    if tag == "grevlex":
        w = spec[1]
        n = len(w)
        return [list(w)] + [unit(n, i, -1) for i in range(n - 1, -1, -1)]
    if tag == "lex":
        n = spec[1]
        return [unit(n, i, 1) for i in range(n)]
    front, w = spec[1], spec[2]
    n = len(w)
    return (
        [[wi if i < front else 0 for i, wi in enumerate(w)]]
        + [unit(n, i, -1) for i in range(front - 1, -1, -1)]
        + [[wi if i >= front else 0 for i, wi in enumerate(w)]]
        + [unit(n, i, -1) for i in range(n - 1, front - 1, -1)]
    )


def _layout(spec):
    """Per-variable coefficients of the packed order key for this spec.

    Digit k is scaled by the product of the ranges of the digits after it;
    digits after the first span at most 2*EXP_MAX*sum|c| values, so the
    first differing digit decides the comparison, as in the key tuple.
    """
    coefs = _LAYOUTS.get(spec)
    if coefs is None:
        digits = _key_digits(spec)
        coefs = [0] * len(digits[0])
        radix = 1
        for digit in reversed(digits):
            for i, c in enumerate(digit):
                coefs[i] += c * radix
            radix <<= (2 * EXP_MAX * sum(abs(c) for c in digit)).bit_length()
        coefs = _LAYOUTS[spec] = tuple(coefs)
    return coefs


def _check(mono):
    if mono and (min(mono) < 0 or max(mono) > EXP_MAX):
        raise _exponent_error(f"monomial {tuple(mono)}")


def _pack(mono):
    return int.from_bytes(_packer(len(mono))[0].pack(*mono), "little")


def _unpack(pm, n):
    st = _packer(n)[0]
    return st.unpack(pm.to_bytes(st.size, "little"))


def key_of(spec, mono):
    _check(mono)
    return sum(map(mul, mono, _layout(spec)))


def kp_from_terms(terms, n):
    """KP from (-key, packed mono, coef) triples, ascending in -key; None if
    empty.  The coefficients are divided by their content, signed so that
    the head is positive."""
    if not terms:
        return None
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
    if terms[0][2] < 0:
        g = -g
    if g != 1:
        terms = [(k, m, c // g) for k, m, c in terms]
    nk, pm, c = terms[0]
    return (-nk, _unpack(pm, n), c, tuple(terms[1:]), pm)


def kp_make(iterms, spec):
    """Build a KP from (mono, int) pairs in any order; None if zero."""
    acc = {}
    for m, c in iterms:
        c0 = acc.get(m, 0) + c
        if c0:
            acc[m] = c0
        elif m in acc:
            del acc[m]
    if not acc:
        return None
    kc = _layout(spec)
    terms = []
    for m, c in acc.items():
        _check(m)
        terms.append((-sum(map(mul, m, kc)), _pack(m), c))
    terms.sort()
    return kp_from_terms(terms, len(kc))


def kp_spoly(f, g, spec):
    """S-polynomial of two KPs, primitive; None when it cancels outright."""
    fk, fm, fc, ftail, fp = f
    gk, gm, gc, gtail, gp = g
    lcm = tuple(map(max, fm, gm))
    lk = sum(map(mul, lcm, _layout(spec)))
    lp = _pack(lcm)
    mask = _packer(len(lcm))[1]
    d = gcd(fc, gc)
    mf, mg = gc // d, -(fc // d)
    coefs = {}
    monos = {}
    for tail, shift, q, mult in ((ftail, fk - lk, lp - fp, mf), (gtail, gk - lk, lp - gp, mg)):
        for tk, tm, tc in tail:
            k = tk + shift
            c = coefs.get(k)
            if c is None:
                m = tm + q
                if m & mask:
                    raise _exponent_error("an S-polynomial term")
                coefs[k] = tc * mult
                monos[k] = m
            else:
                coefs[k] = c + tc * mult
    terms = [(k, monos[k], c) for k, c in sorted(coefs.items()) if c]
    return kp_from_terms(terms, len(lcm))


def kp_normal_form(target, reducers, spec):
    """Exact normal form of a KP modulo a list of nonzero KPs.

    Reduction picks the first reducer (list order) whose leading monomial
    divides the working head.  A pseudo-step multiplies the remaining work by
    the reducer's leading coefficient over its gcd with the head coefficient,
    and the tracked denominator absorbs it.  Returns (num, den, terms):
    value = (num/den) * terms, terms integer-primitive (-key, packed mono,
    coef) triples in descending order, as in a KP tail; num, den > 0
    coprime; (1, 1, []) for zero.
    """
    if target is None:
        return 1, 1, []
    n = len(target[1])
    mask = _packer(n)[1]
    tk0 = -target[0]
    tail = target[3]
    heap = [tk0]
    coefs = {tk0: target[2]}
    monos = {tk0: target[4]}
    for tk, tm, tc in tail:
        heap.append(tk)  # ascending already, so a valid heap
        coefs[tk] = tc
        monos[tk] = tm
    den = 1
    out = []  # (-key, packed mono, coef, den at the time): value coef / den
    while heap:
        nk = heappop(heap)
        c0 = coefs.pop(nk)
        pm = monos.pop(nk)
        if not c0:
            continue
        for r in reducers:
            if not (pm - r[4]) & mask:
                break
        else:
            out.append((nk, pm, c0, den))
            continue
        rc = r[2]
        g = gcd(c0, rc)
        if g != rc:
            scale = rc // g
            den *= scale
            for k in coefs:
                coefs[k] *= scale
        f = -(c0 // g)
        shift = nk + r[0]
        q = pm - r[4]
        for tk, tm, tc in r[3]:
            k = tk + shift
            c = coefs.get(k)
            if c is None:
                m = tm + q
                if m & mask:
                    raise _exponent_error("a reduction term")
                coefs[k] = f * tc
                monos[k] = m
                heappush(heap, k)
            else:
                coefs[k] = c + f * tc
    if not out:
        return 1, 1, []
    ints = [c if d == den else c * (den // d) for _, _, c, d in out]
    num = gcd(*ints)
    terms = [(nk, pm, v // num) for (nk, pm, _, _), v in zip(out, ints)]
    g = gcd(num, den)
    return num // g, den // g, terms
