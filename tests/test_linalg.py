import itertools
import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit.linalg import (
    _reduce,
    determinant,
    dual_cone,
    feasible_strict,
    hermite,
    identity_matrix,
    integer_kernel,
    integer_solve,
    mat,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix_inverse,
    solve,
)

small_int = st.integers(-4, 4)


def vec2():
    return st.tuples(small_int, small_int)


@settings(max_examples=80)
@given(st.lists(vec2(), min_size=1, max_size=4), vec2())
def test_feasible_strict_witness_separates(gens, x):
    y = feasible_strict(gens, [x])
    if y is not None:
        for g in gens:
            assert sum(c * v for c, v in zip(y, g)) >= 0
        assert sum(c * v for c, v in zip(y, x)) < 0


@settings(max_examples=60)
@given(st.lists(vec2(), min_size=1, max_size=3),
       st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_feasible_strict_never_separates_cone_members(gens, coeffs):
    # any N-combination of the generators cannot be cut off from them
    coeffs = (coeffs + [0, 0, 0])[: len(gens)]
    x = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(2))
    assert feasible_strict(gens, [x]) is None


@settings(max_examples=60)
@given(st.lists(st.lists(small_int, min_size=2, max_size=2), min_size=2, max_size=2))
def test_matrix_inverse_round_trip(rows):
    m = mat(rows)
    inv = matrix_inverse(m)
    if determinant(m) == 0:
        assert inv is None
    else:
        assert mat_mul(m, inv) == identity_matrix(2)
        assert mat_mul(inv, m) == identity_matrix(2)


@settings(max_examples=60)
@given(st.lists(st.lists(small_int, min_size=2, max_size=2), min_size=2, max_size=2),
       vec2())
def test_solve_produces_solutions(rows, b):
    a = mat(rows)
    particular = solve(a, b)
    if particular is not None:
        assert mat_vec(a, particular) == tuple(Fraction(c) for c in b)


def _solve_by_augmenting(a, b):
    """Gauss-Jordan on [a | b] itself, the elimination redone for every b."""
    n = len(a[0])
    aug = [list(row) + [Fraction(v)] for row, v in zip(a, b)]
    pivots = _reduce(aug, n)[0]
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        x[col] = row[n]
    return tuple(x)


@settings(max_examples=60)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=3),
       st.lists(st.tuples(small_int, small_int, small_int), min_size=1, max_size=4))
def test_solve_matches_augmenting_each_right_side(rows, targets):
    # solve gives the exact solution of Gauss-Jordan on [a | b], solvable
    # right sides or not.
    a = mat(rows)
    for t in targets:
        for b in (t[: len(rows)], mat_vec(a, t)):
            assert solve(a, b) == _solve_by_augmenting(a, b)


def test_mat_pow_negative_exponent():
    m = mat([[1, 1], [0, 1]])
    assert mat_mul(mat_pow(m, 3), mat_pow(m, -3)) == identity_matrix(2)


def test_feasible_strict_known_certificate():
    y = feasible_strict([(1, 0), (1, 1)], [(1, 2)])
    assert y is not None
    assert y[0] * 1 + y[1] * 0 >= 0
    assert y[0] * 1 + y[1] * 1 >= 0
    assert y[0] * 1 + y[1] * 2 < 0


def leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def rank_by_minors(a):
    m, n = len(a), len(a[0])
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if leibniz([[a[i][j] for j in cols] for i in rows]):
                    return k
    return 0


@settings(max_examples=80)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3),
       st.sampled_from([(0, 0), (1, 1), (0, 1)]))
def test_determinant_agrees_with_leibniz_through_row_swaps(rows, zeroed):
    # A zero on the diagonal start forces the elimination to swap rows.
    for i, j in (zeroed, (0, 0)):
        rows[i][j] = 0
    m = mat(rows)
    assert determinant(m) == leibniz(m)
    swapped = mat([rows[1], rows[0], rows[2]])
    assert determinant(swapped) == -leibniz(m)


@settings(max_examples=60)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=3),
       st.tuples(small_int, small_int, small_int))
def test_solve_basis_has_n_minus_rank_vectors(rows, v):
    # solve puts no weight on a free column j, so e_j - solve(a, a e_j) over
    # the free columns are n - rank independent null vectors.
    a = mat(rows)
    b = mat_vec(a, v)
    particular = solve(a, b)
    assert particular is not None and mat_vec(a, particular) == b
    free = [j for j in range(3) if j not in _reduce([list(row) for row in a], 3)[0]]
    basis = []
    for j in free:
        e = tuple(Fraction(i == j) for i in range(3))
        basis.append(tuple(c - x for c, x in zip(e, solve(a, mat_vec(a, e)))))
    assert len(basis) == 3 - rank_by_minors(a)
    assert all(not any(mat_vec(a, w)) for w in basis)
    if basis:
        assert rank_by_minors(mat(basis)) == len(basis)


@settings(max_examples=80)
@given(st.lists(st.tuples(small_int, small_int, small_int), min_size=1, max_size=4),
       st.tuples(small_int, small_int, small_int))
def test_no_separating_functional_puts_x_in_the_span(gens, x):
    # Farkas: x outside the rational cone of gens is separated by some y;
    # GeneratedCone._abelian_exclusion relies on its dual rays finding it.
    if feasible_strict(gens, [x]) is None:
        columns = mat(zip(*gens))
        particular = solve(columns, x)
        assert particular is not None
        assert mat_vec(columns, particular) == tuple(Fraction(c) for c in x)


def _in_rational_cone(rows, x):
    """Caratheodory: x is in the cone of rows iff some linearly independent
    rows solve for x with nonnegative coefficients."""
    if not any(x):
        return True
    for k in range(1, len(x) + 1):
        for subset in itertools.combinations(rows, k):
            particular = solve(mat(zip(*subset)), x)
            if particular is not None and min(particular) >= 0 and rank_by_minors(subset) == k:
                return True
    return False


def _random_rows(rng, n):
    """Rows in Q^n: empty, random, a line, or the full space, with zero,
    parallel and opposite rows mixed in."""
    def vec():
        return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n))

    kind = rng.choice(("empty", "random", "random", "line", "full"))
    if kind == "empty":
        return []
    rows = [vec() for _ in range(rng.randint(1, 4))]
    if kind == "line":
        rows = [rows[0], tuple(-c for c in rows[0])] + rows[1: rng.randint(1, 2)]
    elif kind == "full":
        rows = [tuple(Fraction(s * (i == j)) for j in range(n)) for i in range(n) for s in (1, -1)]
    extra = rng.choice(("zero", "parallel", "opposite", "none"))
    if extra == "zero":
        rows.append((Fraction(0),) * n)
    elif extra == "parallel":
        rows.append(tuple(c * rng.choice((Fraction(1, 2), 2, 3)) for c in rng.choice(rows)))
    elif extra == "opposite":
        rows.append(tuple(-c for c in rng.choice(rows)))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_rays_separate_exactly_the_non_members(n):
    # Farkas-Minkowski-Weyl: a ray of the dual cone is negative on x iff x
    # lies outside the rational cone of the rows, as an independent
    # Caratheodory oracle decides it.
    rng = random.Random(n)
    for _ in range(250):
        rows = _random_rows(rng, n)
        if rows and rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(0, 2), rng.choice((1, 2))) for _ in rows]
            x = tuple(sum((c * r[i] for c, r in zip(coeffs, rows)), Fraction(0)) for i in range(n))
        else:
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        y = feasible_strict(rows, [x])
        assert (y is None) == _in_rational_cone(rows, x), (rows, x, y)
        assert feasible_strict(dual_cone(rows, n), [x]) == y
        if y is not None:
            assert all(sum(c * v for c, v in zip(y, r)) >= 0 for r in rows)
            assert sum(c * v for c, v in zip(y, x)) < 0


def test_feasible_strict_separates_one_vector_at_a_time():
    with pytest.raises(ValueError):
        feasible_strict([(1, 0)], [(-1, 0), (0, -1)])
    assert feasible_strict([(1, 0)], []) is None
    assert len(dual_cone([(1, 0), (1, 1), (0, 0)], 2)) == 3


def _integer_rows(a, x):
    return [sum(c * v for c, v in zip(row, x)) for row in a]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_solve_and_kernel_match_planted_and_box_searched_answers(seed):
    # Hermite form over Z: a planted right side a x0 is always solved, every
    # x returned solves, a None is confirmed by a box search, and the kernel
    # basis has n - rank primitive vectors in the kernel.
    rng = random.Random(seed)
    for _ in range(120):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        form = hermite(a, n)
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        planted = _integer_rows(a, x0)
        x = integer_solve(form, planted)
        assert x is not None and _integer_rows(a, x) == planted
        b = [rng.randint(-6, 6) for _ in range(m)]
        x = integer_solve(a, b)
        if x is None:
            box = itertools.product(range(-3, 4), repeat=n)
            assert all(_integer_rows(a, v) != b for v in box), (a, b)
        else:
            assert _integer_rows(a, x) == b
        kernel = integer_kernel(a, n)
        assert len(kernel) == n - rank_by_minors(mat(a))
        for v in kernel:
            assert math.gcd(*v) == 1 and not any(_integer_rows(a, v))


def test_integer_solve_refuses_fractions_and_finds_lattice_holes():
    assert integer_solve([[2, 0], [0, 3]], [4, 9]) == (2, 3)
    assert integer_solve([[2, 0], [0, 3]], [4, 8]) is None
    assert integer_solve([[2, 4]], [Fraction(1, 2)]) is None
    assert integer_solve([[2, 4]], [6]) is not None
    assert integer_solve([[2, 4]], [3]) is None  # 3 is outside 2Z
    assert integer_kernel([], 2) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        hermite([[Fraction(1, 2)]], 1)


def test_mat_vec_and_solve_return_fractions_for_int_input():
    for a, v, want in (
        (mat([[1, 2], [0, 3]]), (1, -1), (-1, -3)),
        (((1, 2), (0, 3)), (1, -1), (-1, -3)),
        (mat([[Fraction(1, 2)]]), (Fraction(2, 3),), (Fraction(1, 3),)),
        (mat([[0, 0]]), (0, 0), (0,)),
    ):
        out = mat_vec(a, v)
        assert out == want and all(type(c) is Fraction for c in out)
    x = solve(mat([[2, 0], [0, 0]]), (4, 0))
    assert x == (2, 0) and all(type(c) is Fraction for c in x)
