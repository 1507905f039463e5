"""Memoised action data: a warm cache answers like a cold one and checks first.

MatrixAction (the scaling action included) keeps the matrix of b per b (and
on Z^k its int copy), PrecomposedAction keeps along(c) per c, and
FiniteTableAction and TableHom build their tables once.  Fraction(2) == 2 and
both hash alike, so each operand must pass Group.check before any lookup.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit import actions
from ordsplit.actions import (
    FiniteTableAction,
    MatrixAction,
    PrecomposedAction,
    ProductAction,
    SignAction,
    TrivialAction,
)
from ordsplit.catalog import catalog_dict
from ordsplit.document import parse_document
from ordsplit.groups import CyclicGroup, FreeAbelian, RationalVector, ShapeError
from ordsplit.homs import Homomorphism, LinearHom, TableHom
from ordsplit.linalg import mat_vec
from ordsplit.verdict import Window

Z = FreeAbelian(1)
Q = RationalVector(1)


def scaling():
    return MatrixAction.scaling(Z, Q, Fraction(2))


SIGN_TIMES_TRIVIAL = ProductAction(SignAction(Z, Z), TrivialAction(Z, Q))


@pytest.mark.parametrize(
    "action, b, identity, bad",
    [
        (SignAction(Z, Z), 2, True, Fraction(2)),
        (SignAction(Z, Z), 1, False, True),
        (TrivialAction(Z, Q), 5, True, Fraction(2)),
        (SIGN_TIMES_TRIVIAL, (0, 3), True, (0, Fraction(3))),
        (SIGN_TIMES_TRIVIAL, (1, 0), False, (1, Fraction(0))),
        (SIGN_TIMES_TRIVIAL, (2, 0), True, 2),
    ],
)
def test_is_identity_for_checks_the_acting_element(action, b, identity, bad):
    # Fraction(2) == 2 and True == 1, so an unchecked parity test answers
    # for an element of another group.
    assert action.is_identity_for(b) is identity
    with pytest.raises(ShapeError):
        action.is_identity_for(bad)


def scaling_along_triple():
    """n acts on Q by 2**(3n): the scaling action pulled back along n -> 3n."""
    return PrecomposedAction(scaling(), LinearHom.scalar(Z, Z, Fraction(3)))


def test_scaling_cache_hit_still_checks_the_acting_element():
    act = scaling()
    x = Fraction(3, 5)
    assert act.apply(2, x) == Fraction(12, 5)
    with pytest.raises(ShapeError):
        act.apply(Fraction(2), x)
    with pytest.raises(ShapeError):
        act.apply(True, x)
    with pytest.raises(ShapeError):
        act.apply(2, 3)  # an int is not an element of Q


def test_scaling_is_one_matrix_image_with_exact_powers():
    # An int ratio still gives Fraction powers, so a negative b stays exact.
    Q2 = RationalVector(2)
    act = MatrixAction.scaling(Z, Q2, 2)
    assert act == MatrixAction(Z, Q2, (((2, 0), (0, 2)),))
    got = act.apply(-3, (Fraction(1), Fraction(-4)))
    Q2.check(got)
    assert got == (Fraction(1, 8), Fraction(-1, 2))
    assert act.is_identity_for(0) and not act.is_identity_for(1)
    assert MatrixAction.scaling(Z, Q, 1).is_identity_for(5)


def test_matrix_action_builds_each_matrix_once_and_checks_first(monkeypatch):
    Z2 = FreeAbelian(2)
    flips = MatrixAction(Z2, Z2, (((-1, 0), (0, 1)), ((1, 0), (0, -1))))
    powers = []
    mat_pow = actions.mat_pow
    monkeypatch.setattr(actions, "mat_pow", lambda m, n: powers.append(n) or mat_pow(m, n))
    for _ in range(3):
        assert flips.apply((1, 2), (3, 4)) == (-3, 4)
        assert flips.apply((-1, 1), (3, 4)) == (-3, -4)
    assert powers == [1, 2, -1, 1]
    assert flips.matrix_for((1, 2)) == ((-1, 0), (0, 1))
    assert not flips.is_identity_for((1, 2)) and flips.is_identity_for((2, -2))
    for b in ((Fraction(1), 2), (True, 2), 1):
        with pytest.raises(ShapeError):
            flips.apply(b, (3, 4))
        with pytest.raises(ShapeError):
            flips.matrix_for(b)


def test_precomposed_cache_hit_still_checks_the_acting_element():
    act = scaling_along_triple()
    x = Fraction(1, 3)
    assert act.apply(1, x) == Fraction(8, 3)
    assert act.matrix_for(1) == ((Fraction(8),),)
    assert not act.is_identity_for(1)
    with pytest.raises(ShapeError):
        act.apply(Fraction(1), x)
    with pytest.raises(ShapeError):
        act.is_identity_for(Fraction(1))
    with pytest.raises(ShapeError):
        act.matrix_for(Fraction(1))


def test_finite_table_cache_hit_still_checks_the_acting_element():
    Z3, Z2 = CyclicGroup(3), CyclicGroup(2)
    inv = FiniteTableAction.from_homs(
        Z2, Z3, {0: TableHom.from_dict(Z3, Z3, {0: 0, 1: 1, 2: 2}),
                 1: TableHom.from_dict(Z3, Z3, {0: 0, 1: 2, 2: 1})}
    )
    assert [inv.apply(1, x) for x in range(3)] == [0, 2, 1]
    assert inv.apply(0, 2) == 2
    for b in (2, -1, True):
        with pytest.raises(ShapeError):
            inv.apply(b, 1)


def test_finite_table_queries_per_element_check_the_acting_element():
    # True == 1 and both hash alike, so an unchecked lookup answers for 1.
    Z3, Z2 = CyclicGroup(3), CyclicGroup(2)
    inv = FiniteTableAction.from_homs(
        Z2, Z3, {0: TableHom.from_dict(Z3, Z3, {0: 0, 1: 1, 2: 2}),
                 1: TableHom.from_dict(Z3, Z3, {0: 0, 1: 2, 2: 1})}
    )
    assert inv.is_identity_for(0) and not inv.is_identity_for(1)
    assert inv.as_hom(1).apply(1) == 2
    for b in (True, 2, -1):
        with pytest.raises(ShapeError):
            inv.as_hom(b)
        with pytest.raises(ShapeError):
            inv.is_identity_for(b)


def test_table_hom_cache_hit_still_checks_the_source_element():
    Z4 = CyclicGroup(4)
    double = TableHom.from_dict(Z4, Z4, {x: 2 * x % 4 for x in range(4)})
    assert [double.apply(x) for x in range(4)] == [0, 2, 0, 2]
    for x in (True, 4, -1, Fraction(1)):
        with pytest.raises(ShapeError):
            double.apply(x)
    fresh = double.mapping()
    fresh[1] = 3
    assert double.apply(1) == 2 and double.mapping()[1] == 2


@settings(max_examples=60)
@given(st.lists(
    st.tuples(st.integers(-5, 5), st.fractions(-8, 8, max_denominator=6)),
    min_size=1, max_size=12,
))
def test_warm_precomposed_scaling_agrees_with_a_fresh_one_and_the_closed_form(pairs):
    warm = scaling_along_triple()
    for c, x in pairs:
        got = warm.apply(c, x)
        assert got == scaling_along_triple().apply(c, x)
        assert got == Fraction(2) ** (3 * c) * x
        assert warm.matrix_for(c) == ((Fraction(2) ** (3 * c),),)
        assert warm.base.apply(3 * c, x) == got


def test_building_the_catalog_table_action_applies_no_homomorphism(monkeypatch):
    cat = catalog_dict()
    doc = {"format": cat["format"], "groups": cat["groups"],
           "actions": {"invert_z3": cat["actions"]["invert_z3"]}}
    calls = []
    apply = Homomorphism.apply
    monkeypatch.setattr(Homomorphism, "apply", lambda h, el: calls.append(el) or apply(h, el))
    assert isinstance(parse_document(doc).actions["invert_z3"], FiniteTableAction)
    assert len(calls) == 0


Z2 = FreeAbelian(2)
SWAP, SHEAR = ((0, 1), (1, 0)), ((1, 1), (0, 1))
SIGN_FLIPS = (((-1, 0), (0, 1)), ((1, 0), (0, -1)))


@pytest.mark.parametrize(
    "action",
    [
        MatrixAction(Z, Z2, (SWAP,)),
        MatrixAction(Z, Z2, (SHEAR,)),
        MatrixAction(Z2, Z2, SIGN_FLIPS),
        MatrixAction(Z, Z, (((-1,),),)),
    ],
    ids=["swap", "shear", "sign-flips", "sign-on-Z"],
)
def test_matrix_action_on_z_k_applies_as_the_fraction_product(action):
    # On Z^k, _apply multiplies an int copy of b's matrix; it must give the
    # exact int element that the Fraction matrix product gives.
    X, window = action.acted, Window(2, 2, 2)
    for b in action.acting.window_elements(window):
        m = action.matrix_for(b)
        for x in X.window_elements(window):
            got = action.apply(b, x)
            X.check(got)
            assert got == X.from_coords(mat_vec(m, X.coords(x))), (b, x)
