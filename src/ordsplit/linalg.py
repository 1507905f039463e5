"""Small exact linear algebra over Fractions.

Everything here works on tuples of tuples of Fraction; sizes are desk-scale
(rank <= ~6), so plain elimination and Fourier-Motzkin are fine.  One
Gauss-Jordan routine, _reduce, serves eliminate (and so solve),
matrix_inverse and determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def scalar_matrix(s, n: int) -> Matrix:
    """s times the n x n identity."""
    s, zero = Fraction(s), Fraction(0)
    return tuple(tuple(s if i == j else zero for j in range(n)) for i in range(n))


def identity_matrix(n: int) -> Matrix:
    return scalar_matrix(1, n)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
        for row in a
    )


def mat_vec(a: Matrix, v) -> Vector:
    return tuple(sum((c * Fraction(x) for c, x in zip(row, v)), Fraction(0)) for row in a)


def mat_pow(a: Matrix, n: int) -> Matrix:
    if n < 0:
        inv = matrix_inverse(a)
        if inv is None:
            raise ValueError("matrix is not invertible")
        return mat_pow(inv, -n)
    out = identity_matrix(len(a))
    base = a
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def _reduce(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], list[Fraction], int]:
    """Gauss-Jordan elimination of rows, in place, on their first ncols columns.

    Returns the pivot columns (their rows come first, scaled to 1), the pivot
    values before scaling and the number of row swaps.
    """
    cols, values, swaps = [], [], 0
    for col in range(ncols):
        r = len(cols)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            swaps += 1
        p = rows[r][col]
        rows[r] = [c / p for c in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        cols.append(col)
        values.append(p)
    return cols, values, swaps


def determinant(a: Matrix) -> Fraction:
    cols, values, swaps = _reduce([list(row) for row in mat(a)], len(a))
    if len(cols) < len(a):
        return Fraction(0)
    return math.prod(values, start=Fraction((-1) ** swaps))


def matrix_inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    aug = [list(row + e) for row, e in zip(mat(a), identity_matrix(n))]
    if len(_reduce(aug, n)[0]) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class Elimination:
    """The Gauss-Jordan form of a matrix a, kept to solve a x = b for many b.

    Pivots and row operations depend only on a, so reducing [a | I] once
    records them in transform: transform b is, exactly, the right-hand
    column that reducing [a | b] would leave.
    """

    ncols: int
    pivots: tuple[int, ...]
    transform: Matrix
    basis: tuple[Vector, ...]  # of the null space of a


def eliminate(a: Matrix) -> Elimination:
    n = len(a[0]) if a else 0
    aug = [list(row) + list(e) for row, e in zip(mat(a), identity_matrix(len(a)))]
    pivots = _reduce(aug, n)[0]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, col in zip(aug, pivots):
            v[col] = -row[fc]
        basis.append(tuple(v))
    return Elimination(n, tuple(pivots), tuple(tuple(row[n:]) for row in aug), tuple(basis))


def solve(a: Matrix | Elimination, b) -> tuple[Vector | None, list[Vector]]:
    """One solution of a x = b (or None) plus a basis of the null space.

    Given eliminate(a) in place of a, one elimination serves many b.
    """
    e = a if isinstance(a, Elimination) else eliminate(a)
    y = mat_vec(e.transform, b)
    if any(y[len(e.pivots):]):
        return None, []
    x = [Fraction(0)] * e.ncols
    for yi, col in zip(y, e.pivots):
        x[col] = yi
    return tuple(x), list(e.basis)


def feasible_strict(
    nonneg: list, strict_neg: list
) -> Vector | None:
    """Find y with y.a >= 0 for all a in nonneg and y.x < 0 for all x in strict_neg.

    Fourier-Motzkin on the homogeneous system; returns a rational witness or
    None when no such functional exists.
    """
    if not strict_neg:
        return None
    n = len(strict_neg[0])
    # Constraints as (coeffs, strict): coeffs . y >= 0, or > 0 when strict.
    cons: list[tuple[list[Fraction], bool]] = []
    for a in nonneg:
        cons.append(([Fraction(c) for c in a], False))
    for x in strict_neg:
        cons.append(([-Fraction(c) for c in x], True))
    return _fourier_motzkin(cons, n)


def _fourier_motzkin(cons, n) -> Vector | None:
    """Solve coeffs.y >= 0 (or > 0) by eliminating y_{n-1}, ..., y_0."""
    if n == 0:
        for coeffs, strict in cons:
            if strict:
                return None
        return ()
    var = n - 1
    lower, upper, rest = [], [], []
    # c*y_var + head.y' >= 0  ->  y_var >= -head.y'/c (c>0), <= -head.y'/c (c<0).
    for coeffs, strict in cons:
        c = coeffs[var]
        head = coeffs[:var]
        if c > 0:
            lower.append(([x / c for x in head], strict))
        elif c < 0:
            upper.append(([x / c for x in head], strict))
        else:
            rest.append((head, strict))
    for lo, s1 in lower:
        for up, s2 in upper:
            # -lo.y' <= -up.y' is (lo - up).y' >= 0; strict if either side is.
            rest.append(([l - u for l, u in zip(lo, up)], s1 or s2))
    sub = _fourier_motzkin(rest, var)
    if sub is None:
        return None
    subl = list(sub)

    def val(expr):
        return sum((c * v for c, v in zip(expr, subl)), Fraction(0))

    lo_bound = lo_strict = None
    for lo, s in lower:
        v = -val(lo)
        if lo_bound is None or v > lo_bound:
            lo_bound, lo_strict = v, s
        elif v == lo_bound:
            lo_strict = lo_strict or s
    up_bound = up_strict = None
    for up, s in upper:
        v = -val(up)
        if up_bound is None or v < up_bound:
            up_bound, up_strict = v, s
        elif v == up_bound:
            up_strict = up_strict or s
    if lo_bound is None and up_bound is None:
        y = Fraction(0)
    elif lo_bound is None:
        y = up_bound - 1 if up_strict else up_bound
    elif up_bound is None:
        y = lo_bound + 1 if lo_strict else lo_bound
    else:
        if lo_bound > up_bound:
            return None
        if lo_bound == up_bound:
            if lo_strict or up_strict:
                return None
            y = lo_bound
        else:
            y = (lo_bound + up_bound) / 2
    return tuple(subl + [y])
