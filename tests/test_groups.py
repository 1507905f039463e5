import itertools
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit.actions import MatrixAction, SignAction, TrivialAction
from ordsplit.groups import (
    CayleyGroup,
    CyclicGroup,
    FreeAbelian,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
    element_order,
    generated_subgroup,
    word_ball,
)
from ordsplit.verdict import Window

from helpers import klein_four, oracle_words, random_finite_extension, symmetric_cayley

Z = FreeAbelian(1)
Q = RationalVector(1)
Z2V = FreeAbelian(2)


def sign_carrier():
    return Semidirect(Z, Z, SignAction(Z, Z))


def test_free_abelian_add():
    assert Z2V.add((1, 2), (3, -1)) == (4, 1)
    assert Z2V.neg((1, -2)) == (-1, 2)


def test_cyclic_arithmetic():
    Z6 = CyclicGroup(6)
    assert Z6.add(4, 5) == 3
    assert Z6.neg(4) == 2
    assert element_order(Z6, 2) == 3


def test_semidirect_sign_addition_law():
    sd = sign_carrier()
    assert sd.add((1, 1), (1, 0)) == (0, 1)
    assert sd.add((1, 1), (1, 1)) == (0, 2)


def test_semidirect_neg_closed_form_matches_add():
    sd = sign_carrier()
    for x in range(-3, 4):
        for b in range(-3, 4):
            el = (x, b)
            assert sd.add(el, sd.neg(el)) == (0, 0)
            assert sd.add(sd.neg(el), el) == (0, 0)


@pytest.mark.parametrize("sd", [
    sign_carrier(),
    Semidirect(Q, Z, MatrixAction.scaling(Z, Q, Fraction(2))),
    Semidirect(Z2V, Z, MatrixAction(Z, Z2V, (((1, 1), (0, 1)),))),
], ids=str)
def test_semidirect_conjugate_closed_form_matches_add(sd):
    els = sd.window_elements(Window(2, 2, 2))
    for g in els:
        for x in els[::3]:
            assert sd.conjugate(g, x) == sd.add(sd.add(g, x), sd.neg(g))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_semidirect_conjugate_closed_form_matches_add_on_finite_carriers(seed):
    rng = random.Random(seed)
    x_cone, b_cone, action = random_finite_extension(rng)
    sd = Semidirect(x_cone.group, b_cone.group, action)
    els = sd.elements()
    for g in rng.sample(els, min(6, len(els))):
        for x in els:
            assert sd.conjugate(g, x) == sd.add(sd.add(g, x), sd.neg(g))


def test_semidirect_neg_example():
    sd = sign_carrier()
    assert sd.neg((1, 1)) == (1, -1)


def test_scaling_semidirect():
    sd = Semidirect(Q, Z, MatrixAction.scaling(Z, Q, Fraction(2)))
    assert sd.add((Fraction(1), 1), (Fraction(1), 0)) == (Fraction(3), 1)


def test_conjugation_abelian_is_identity():
    assert Z2V.conjugate((5, -2), (1, 7)) == (1, 7)


def test_conjugation_sign_carrier():
    sd = sign_carrier()
    assert sd.conjugate((9, 1), (4, 0)) == (-4, 0)


def test_conjugation_s3_transposition_class():
    S3 = symmetric_cayley(3)
    transpositions = {a for a in S3.elements() if a != S3.zero() and element_order(S3, a) == 2}
    t = min(transpositions)
    cycles = {a for a in S3.elements() if element_order(S3, a) == 3}
    for c in cycles:
        assert S3.conjugate(c, t) in transpositions


def test_semidirect_law_matches_displayed_formula():
    sd = sign_carrier()
    phi = SignAction(Z, Z)
    for el1 in sd.window_elements(Window(2, 2, 1)):
        for el2 in sd.window_elements(Window(2, 2, 1)):
            (x, b), (x2, b2) = el1, el2
            assert sd.add(el1, el2) == (x + phi.apply(b, x2), b + b2)


@settings(max_examples=60)
@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_group_laws_z2(a, b, c):
    assert Z2V.add(Z2V.add(a, b), c) == Z2V.add(a, Z2V.add(b, c))
    assert Z2V.add(Z2V.zero(), a) == a
    assert Z2V.add(a, Z2V.neg(a)) == Z2V.zero()


@settings(max_examples=60)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_group_laws_sign_carrier(x1, b1, x2, b2, x3, b3):
    sd = sign_carrier()
    a, b, c = (x1, b1), (x2, b2), (x3, b3)
    assert sd.add(sd.add(a, b), c) == sd.add(a, sd.add(b, c))
    assert sd.add(a, sd.neg(a)) == sd.zero()


@settings(max_examples=40)
@given(st.sampled_from(list(range(6))), st.sampled_from(list(range(6))),
       st.sampled_from(list(range(6))))
def test_group_laws_s3(i, j, k):
    S3 = symmetric_cayley(3)
    assert S3.add(S3.add(i, j), k) == S3.add(i, S3.add(j, k))
    assert S3.add(i, S3.neg(i)) == S3.zero()


def test_shape_errors():
    with pytest.raises(ShapeError):
        Z.add(1, Fraction(1, 2))
    with pytest.raises(ShapeError):
        CyclicGroup(6).add(4, 6)
    with pytest.raises(ShapeError):
        Z2V.add((1, 2), (1, 2, 3))


def test_cayley_validation_rejects_non_latin():
    with pytest.raises(StructureError):
        CayleyGroup(((0, 0), (1, 1)), 0)


def test_cayley_validation_rejects_non_associative():
    # A Latin square with two-sided identity that fails associativity.
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(StructureError):
        CayleyGroup(table, 0)


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and first column are 0..n-1."""

    def extend(rows):
        if len(rows) == n:
            yield tuple(rows)
            return
        for perm in itertools.permutations(range(n)):
            if perm[0] == len(rows) and all(perm[j] != r[j] for r in rows for j in range(n)):
                yield from extend(rows + [perm])

    yield from extend([tuple(range(n))])


def test_cayley_associativity_matches_the_cubic_oracle_on_order_5():
    # Generators of the table's word ball decide associativity (Light's test).
    squares = list(_reduced_latin_squares(5))
    assert len(squares) == 56
    groups = 0
    for t in squares:
        associative = all(
            t[t[a][b]][c] == t[a][t[b][c]] for a in range(5) for b in range(5) for c in range(5)
        )
        if associative:
            CayleyGroup(t, 0)
            groups += 1
        else:
            with pytest.raises(StructureError, match="not associative"):
                CayleyGroup(t, 0)
    # The labellings of Z_5 with identity 0: 4! / |Aut(Z_5)| = 6.
    assert groups == 6


def test_generated_subgroup_orbit():
    S3 = symmetric_cayley(3)
    t = next(a for a in S3.elements() if element_order(S3, a) == 2)
    c = next(a for a in S3.elements() if element_order(S3, a) == 3)
    assert len(generated_subgroup(S3, [t])) == 2
    assert len(generated_subgroup(S3, [t, c])) == 6


def test_window_elements_deterministic():
    w = Window(2, 4, 2)
    assert Z.window_elements(w) == list(range(-2, 3))
    r = Q.window_elements(w)
    assert r == sorted(r)
    assert Fraction(1, 2) in r


def test_direct_product_behaves_componentwise():
    K4 = klein_four()
    assert K4.add((1, 0), (1, 1)) == (0, 1)
    assert K4.neg((1, 1)) == (1, 1)
    assert K4.order() == 4
    assert K4.is_abelian()


@settings(max_examples=40)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_conjugation_is_additive(gx, gb, x1, b1, x2, b2):
    sd = sign_carrier()
    g, x, y = (gx, gb), (x1, b1), (x2, b2)
    left = sd.conjugate(g, sd.add(x, y))
    right = sd.add(sd.conjugate(g, x), sd.conjugate(g, y))
    assert left == right


def test_semidirect_not_provably_abelian_with_sign():
    assert not sign_carrier().is_abelian()
    triv = Semidirect(Z, Z, TrivialAction(Z, Z))
    assert triv.is_abelian()


@pytest.mark.parametrize("G", [Z, FreeAbelian(3), Q, RationalVector(2)], ids=str)
def test_coordinates_round_trip_over_a_window(G):
    for x in G.window_elements(Window(2, 3, 2)):
        vec = G.coords(x)
        assert isinstance(vec, tuple) and len(vec) == G.rank
        back = G.from_coords(vec)
        assert back == x
        G.check(back)


def test_from_coords_makes_exact_elements():
    assert Q.from_coords((2,)) == Fraction(2) and type(Q.from_coords((2,))) is Fraction
    assert Z2V.from_coords((Fraction(4, 2), Fraction(-3))) == (2, -3)
    Z2V.check(Z2V.from_coords((Fraction(4, 2), Fraction(-3))))
    for G, vec in ((Z, (Fraction(1, 2),)), (Z2V, (1, Fraction(1, 3)))):
        with pytest.raises(ShapeError, match="non-integral image"):
            G.from_coords(vec)


@pytest.mark.parametrize("G", [
    Z,
    Z2V,
    Semidirect(Q, Z, MatrixAction.scaling(Z, Q, Fraction(2))),
    Semidirect(Z, Z, SignAction(Z, Z)),
], ids=str)
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_word_ball_matches_the_word_oracle_in_order(G, radius):
    assert word_ball(G, G.generators(), radius) == oracle_words(G, radius)


@pytest.mark.parametrize("G", [CyclicGroup(6), klein_four(), symmetric_cayley(3)], ids=str)
def test_element_order_matches_repeated_addition(G):
    for a in G.elements():
        k, acc = 1, a
        while acc != G.zero():
            acc, k = G.add(acc, a), k + 1
        assert element_order(G, a) == k
