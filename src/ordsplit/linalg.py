"""Small exact linear algebra over Fractions and over the integers.

Everything here works on tuples of tuples of Fraction; sizes are desk-scale
(rank <= ~6), so plain elimination is fine.  One Gauss-Jordan routine,
_reduce, serves eliminate (and so solve), matrix_inverse and determinant; one
Hermite form, hermite, serves integer_solve and integer_kernel on Z^k.
dual_cone builds the integer rays of a finitely generated cone's dual once,
and feasible_strict separates a vector from the cone by the first ray that
is negative on it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def scalar_matrix(s, n: int) -> Matrix:
    """s times the n x n identity."""
    s = s if type(s) is Fraction else Fraction(s)
    return tuple([(_ZERO,) * i + (s,) + (_ZERO,) * (n - i - 1) for i in range(n)])


@functools.cache
def identity_matrix(n: int) -> Matrix:
    return scalar_matrix(1, n)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), _ZERO) for col in zip(*b))
        for row in a
    )


def mat_vec(a: Matrix, v) -> Vector:
    # Fraction entries times int or Fraction coordinates are Fractions, and
    # the sum starts from one; the coordinates need no wrapping.
    return tuple(sum(map(operator.mul, row, v), _ZERO) for row in a)


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


def eliminate(a: Matrix) -> Elimination:
    n = len(a[0]) if a else 0
    aug = [list(row) + list(e) for row, e in zip(mat(a), identity_matrix(len(a)))]
    pivots = _reduce(aug, n)[0]
    return Elimination(n, tuple(pivots), tuple(tuple(row[n:]) for row in aug))


def solve(a: Matrix | Elimination, b) -> Vector | None:
    """One solution of a x = b, or None.

    Given eliminate(a) in place of a, one elimination serves many b.
    """
    e = a if isinstance(a, Elimination) else eliminate(a)
    y = mat_vec(e.transform, b)
    if any(y[len(e.pivots):]):
        return None
    x = [_ZERO] * e.ncols
    for yi, col in zip(y, e.pivots):
        x[col] = yi
    return tuple(x)


def _xgcd(p: int, q: int) -> tuple[int, int, int]:
    """(g, s, t) with s p + t q = g = gcd(p, q) >= 0."""
    s, t, s1, t1 = 1, 0, 0, 1
    while q:
        k = p // q
        p, q, s, t, s1, t1 = q, p - k * q, s1, t1, s - k * s1, t - k * t1
    return (p, s, t) if p >= 0 else (-p, -s, -t)


@dataclass(frozen=True)
class Hermite:
    """a u = h, by columns, for an integer matrix a and a unimodular u: column
    j < rank of h starts, positive, in row rows[j] (rows increase), the later
    columns are zero, and so the later columns of u span a's integer kernel."""

    rows: tuple[int, ...]
    h: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]


def hermite(a, n: int) -> Hermite:
    """The column echelon form of the integer matrix a (n columns), by extended-gcd
    column operations on [a; I] (Cohen, Computational Algebraic Number Theory, 2.4)."""
    if any(Fraction(c).denominator != 1 for row in a for c in row):
        raise ValueError("hermite needs an integer matrix")
    m, rows = len(a), []
    cols = [[int(row[j]) for row in a] + [int(i == j) for i in range(n)] for j in range(n)]
    for i in range(m):
        r = len(rows)
        for j in range(r + 1, n):
            if cols[j][i]:
                g, s, t = _xgcd(cols[r][i], cols[j][i])
                p, q = cols[r][i] // g, cols[j][i] // g
                cols[r], cols[j] = ([s * x + t * y for x, y in zip(cols[r], cols[j])],
                                    [p * y - q * x for x, y in zip(cols[r], cols[j])])
        if r < n and cols[r][i]:
            cols[r] = [-x for x in cols[r]] if cols[r][i] < 0 else cols[r]
            rows.append(i)
    return Hermite(tuple(rows), tuple(tuple(c[:m]) for c in cols), tuple(tuple(c[m:]) for c in cols))


def integer_solve(a, b) -> tuple[int, ...] | None:
    """An integer x with a x = b, or None; given hermite(a, n) in place of a,
    one reduction serves many b."""
    form = a if isinstance(a, Hermite) else hermite(a, len(a[0]) if a else 0)
    if any(c.denominator != 1 for c in b):
        return None  # the integer matrix maps Z^n into Z^m
    rest, x = [int(c) for c in b], [0] * len(form.u)
    for i, h, u in zip(form.rows, form.h, form.u):
        y, r = divmod(rest[i], h[i])
        if r:
            return None
        rest = [c - y * e for c, e in zip(rest, h)]
        x = [c + y * e for c, e in zip(x, u)]
    return None if any(rest) else tuple(x)


def integer_kernel(a, n: int) -> list[tuple[int, ...]]:
    """A basis of {x in Z^n : a x = 0}: n - rank primitive vectors."""
    form = hermite(a, n)
    return list(form.u[len(form.rows):])


@dataclass(frozen=True)
class DualCone:
    """Primitive integer rays generating {y : y.a >= 0 for each of nrows rows a}."""

    nrows: int  # len(), as for the rows themselves
    rays: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return self.nrows


def _primitive(v) -> tuple[int, ...]:
    """v over its content: the primitive integer vector on the ray of v != 0 in Q^n."""
    content = Fraction(math.gcd(*(c.numerator for c in v)), math.lcm(*(c.denominator for c in v)))
    return tuple(int(c / content) for c in v)


def dual_cone(rows, n: int) -> DualCone:
    """The dual {y : y.a >= 0 for every row a} of the cone the rows generate in Q^n.

    With L the span of the rows and d its dimension, the dual is L's
    orthogonal complement plus a pointed cone inside L, each of whose extreme
    rays is tight on d-1 independent rows.  So +- a basis of the complement
    and, for each (d-1)-subset of the rows in order, its normal inside L when
    every row lies on one side of it, oriented to that side, generate the
    dual.  Both come from integer kernels of the primitive integer rows: the
    normal is the one kernel vector of an independent subset and the complement.
    """
    prim = list(dict.fromkeys(_primitive(r) for r in rows if any(r)))
    perp = integer_kernel(prim, n)
    rays = [s for p in perp for s in (p, tuple(-c for c in p))]
    for subset in itertools.combinations(prim, n - len(perp) - 1) if prim else ():
        normal = integer_kernel(list(subset) + perp, n)
        if len(normal) != 1:
            continue  # the subset is dependent
        y = normal[0]
        dots = [sum(map(operator.mul, y, a)) for a in prim]
        if min(dots) >= 0:
            rays.append(y)
        elif max(dots) <= 0:
            rays.append(tuple(-c for c in y))
    return DualCone(len(rows), tuple(dict.fromkeys(rays)))


def feasible_strict(nonneg: list | DualCone, strict_neg: list) -> Vector | None:
    """Find y with y.a >= 0 for all a in nonneg and y.x < 0 for the x in strict_neg.

    The first ray of dual_cone(nonneg) negative on x, or None when there is no
    such y; given the dual cone in place of nonneg, one build serves many x.
    """
    if len(strict_neg) > 1:
        raise ValueError("feasible_strict separates at most one vector")
    if not strict_neg:
        return None
    x = strict_neg[0]
    dual = nonneg if isinstance(nonneg, DualCone) else dual_cone(nonneg, len(x))
    negative = (r for r in dual.rays if sum(map(operator.mul, r, x)) < 0)
    return next((tuple(map(Fraction, r)) for r in negative), None)
