"""Field-generic exact linear algebra.

Works over any exact field whose elements support +, -, *, / and are falsy
exactly at zero; in practice Fraction and RationalFunction.  Callers pass the
field's zero and one since neither can be conjured from an empty matrix.
"""

from __future__ import annotations

from typing import Sequence


def rref(rows: Sequence[Sequence], zero, one) -> tuple:
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = one / m[r][col]
        m[r] = [cell * inv for cell in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence], zero, one) -> int:
    return len(rref(rows, zero, one)[1])


def det(rows: Sequence[Sequence], zero, one):
    """Determinant by fraction-free-ish elimination (exact field, so plain)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [list(r) for r in rows]
    result = one
    sign = 1
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            return zero
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        result = result * pivot
        inv = one / pivot
        for i in range(col + 1, n):
            if m[i][col]:
                factor = m[i][col] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return result if sign == 1 else zero - result


def solve(rows: Sequence[Sequence], rhs: Sequence, zero, one):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero.  rhs may be a single vector.
    """
    if not rows:
        return None if any(rhs) else []
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, zero, one)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [zero] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x
