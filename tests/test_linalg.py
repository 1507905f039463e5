import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit.linalg import (
    _reduce,
    determinant,
    eliminate,
    feasible_strict,
    identity_matrix,
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
    particular, basis = solve(a, b)
    if particular is not None:
        assert mat_vec(a, particular) == tuple(Fraction(c) for c in b)
        for v in basis:
            assert mat_vec(a, v) == (Fraction(0), Fraction(0))


def _solve_by_augmenting(a, b):
    """Gauss-Jordan on [a | b] itself, the elimination redone for every b."""
    n = len(a[0])
    aug = [list(row) + [Fraction(v)] for row, v in zip(a, b)]
    pivots = _reduce(aug, n)[0]
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None, []
    x = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        x[col] = row[n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, col in zip(aug, pivots):
            v[col] = -row[fc]
        basis.append(tuple(v))
    return tuple(x), basis


@settings(max_examples=60)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=3),
       st.lists(st.tuples(small_int, small_int, small_int), min_size=1, max_size=4))
def test_one_elimination_solves_as_augmenting_each_right_side(rows, targets):
    # Pivots depend only on a, so the kept row operations give the same
    # exact solution and null-space basis for every b.
    a = mat(rows)
    e = eliminate(a)
    for t in targets:
        for b in (t[: len(rows)], mat_vec(a, t)):
            assert solve(e, b) == solve(a, b) == _solve_by_augmenting(a, b)


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
    a = mat(rows)
    b = mat_vec(a, v)
    particular, basis = solve(a, b)
    assert particular is not None and mat_vec(a, particular) == b
    assert len(basis) == 3 - rank_by_minors(a)
    if basis:
        assert rank_by_minors(mat(basis)) == len(basis)


@settings(max_examples=80)
@given(st.lists(st.tuples(small_int, small_int, small_int), min_size=1, max_size=4),
       st.tuples(small_int, small_int, small_int))
def test_no_separating_functional_puts_x_in_the_span(gens, x):
    # Farkas: x outside the rational cone of gens is separated by some y;
    # GeneratedCone._abelian_exclusion relies on Fourier-Motzkin finding it.
    if feasible_strict(gens, [x]) is None:
        columns = mat(zip(*gens))
        particular, _ = solve(columns, x)
        assert particular is not None
        assert mat_vec(columns, particular) == tuple(Fraction(c) for c in x)
