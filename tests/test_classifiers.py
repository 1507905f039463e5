import pytest
from fractions import Fraction

from ordsplit import classifiers, cones, document
from ordsplit.actions import (
    FiniteTableAction,
    MatrixAction,
    SignAction,
    TrivialAction,
)
from ordsplit.classifiers import (
    AutEvalAction,
    CorestrictionHom,
    AutOrderCone,
    FiniteAutGroup,
    OrthantPermAutGroup,
    RatScalingAutGroup,
    admissible_check,
    aut_cone,
    build_classifier,
    classify_into,
    monotone_aut,
    no_classifier_witness,
    sclass_membership,
    _uniqueness_check,
)
from ordsplit.cones import (
    ExtensionalCone,
    FullCone,
    OrthantCone,
    TrivialCone,
    check_cone_axioms,
)
from ordsplit.extensions import ExtensionShape, lex_cone, point
from ordsplit.groups import CyclicGroup, FreeAbelian, RationalVector, ShapeError, StructureError
from ordsplit.homs import TableHom
from ordsplit.points import is_rali
from ordsplit.catalog import builtin_catalog
from ordsplit.verdict import SaturationBudget, Window

from helpers import SMALL_BUDGET, assert_state, klein_four, symmetric_cayley

Z = FreeAbelian(1)
Q = RationalVector(1)
ZN = OrthantCone(Z)
QP = OrthantCone(Q)


def test_monotone_aut_symbolic_dispatch():
    assert isinstance(monotone_aut(ZN), OrthantPermAutGroup)
    assert isinstance(monotone_aut(QP), RatScalingAutGroup)
    z2n = OrthantCone(FreeAbelian(2))
    assert isinstance(monotone_aut(z2n), OrthantPermAutGroup)
    with pytest.raises(StructureError):
        monotone_aut(FullCone(Q))


def test_monotone_aut_finite_counts():
    k4 = TrivialCone(klein_four())
    assert monotone_aut(k4).order() == 6
    z3full = FullCone(CyclicGroup(3))
    assert monotone_aut(z3full).order() == 2
    # a nontrivial cone cuts the automorphism group down
    z4 = CyclicGroup(4)
    half = ExtensionalCone(z4, frozenset({0, 1, 2}))
    assert monotone_aut(half).order() == 1


def test_finite_aut_group_is_a_group():
    k4 = TrivialCone(klein_four())
    aut = monotone_aut(k4)
    els = aut.elements()
    assert len(els) == 6
    z = aut.zero()
    for a in els:
        assert aut.add(a, aut.neg(a)) == z
        for b in els:
            assert aut.add(a, b) in set(els)


def test_aut_cone_membership_scalings():
    aut = monotone_aut(QP)
    plus, minus, tilde = (AutOrderCone(aut, order) for order in ("plus", "minus", "tilde"))
    assert_state(plus.contains(Fraction(2)), "yes")
    assert_state(tilde.contains(Fraction(2)), "no")
    assert_state(tilde.contains(Fraction(1)), "yes")
    assert_state(minus.contains(Fraction(1, 2)), "yes")
    assert_state(minus.contains(Fraction(2)), "no")
    assert_state(plus.contains(Fraction(1, 2)), "no")
    with pytest.raises(StructureError):
        aut_cone(aut, "all")


def test_plus_and_minus_read_the_matrix_on_an_orthant_base():
    # alpha >= id on positives iff M - I >= 0 and on negatives iff I - M >= 0;
    # the witness pairs alpha with e_j (or -e_j) for the first failing column.
    aut = monotone_aut(QP)
    plus, minus = AutOrderCone(aut, "plus"), AutOrderCone(aut, "minus")
    assert plus.contains(Fraction(1, 2)).witness == (Fraction(1, 2), Fraction(1))
    assert minus.contains(Fraction(2)).witness == (Fraction(2), Fraction(-1))
    Z3 = FreeAbelian(3)
    aut = monotone_aut(OrthantCone(Z3))
    plus, minus = AutOrderCone(aut, "plus"), AutOrderCone(aut, "minus")
    swap = (0, 2, 1)  # e_1 <-> e_2
    v = plus.contains(swap)
    assert_state(v, "no")
    assert v.witness == (swap, (0, 1, 0))
    v = minus.contains(swap)
    assert_state(v, "no")
    assert v.witness == (swap, (0, -1, 0))
    for cone in (plus, minus):
        assert_state(cone.contains((0, 1, 2)), "yes")


def test_plus_minus_inverse_duality():
    aut = monotone_aut(QP)
    plus, minus = AutOrderCone(aut, "plus"), AutOrderCone(aut, "minus")
    for q in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(1, 3), Fraction(7, 4)):
        assert plus.contains(q).is_yes == minus.contains(1 / q).is_yes


def test_aut_cone_axioms_on_finite_instance():
    z3full = FullCone(CyclicGroup(3))
    aut = monotone_aut(z3full)
    for which in ("tilde", "plus", "minus"):
        order = aut_cone(aut, which)
        assert_state(check_cone_axioms(order, SMALL_BUDGET), "yes", which)


def test_admissibility():
    aut = monotone_aut(QP)
    assert_state(admissible_check(aut_cone(aut, "tilde"), SMALL_BUDGET), "yes")
    assert_state(admissible_check(aut_cone(aut, "plus"), SMALL_BUDGET), "yes")
    assert_state(admissible_check(aut_cone(aut, "minus"), SMALL_BUDGET), "yes")
    v = admissible_check(FullCone(aut), SMALL_BUDGET)
    assert_state(v, "no")


S3 = symmetric_cayley(3)
A3 = frozenset(S3.add(y, y) for y in S3.elements())  # the squares of S3


@pytest.mark.parametrize("order", ["plus", "minus"])
@pytest.mark.parametrize("G, positives, closed, aut_order, unit_count", [
    pytest.param(CyclicGroup(4), {0, 2}, True, 2, 2, id="Z4"),
    # Not closed, but kept by negation, which the minus order then refuses.
    pytest.param(CyclicGroup(5), {0, 1, 4}, False, 2, 1, id="Z5-not-closed"),
    pytest.param(S3, A3, True, 6, 6, id="S3-A3"),
])
def test_plus_and_minus_cones_on_a_finite_base_match_the_table(
    G, positives, closed, aut_order, unit_count, order
):
    aut = monotone_aut(ExtensionalCone(G, frozenset(positives)))
    assert isinstance(aut, FiniteAutGroup)
    els = G.elements()

    def leq(x, y):
        return G.add(G.neg(x), y) in positives

    def table(alpha):  # alpha(x) >= x whenever x >= 0 (plus) or x <= 0 (minus)
        image = dict(zip(els, alpha))
        signed = positives if order == "plus" else [x for x in els if G.neg(x) in positives]
        return all(leq(x, image[x]) for x in signed)

    def fixes_up_to_units(alpha):
        return all(leq(x, y) and leq(y, x) for x, y in zip(els, alpha))

    cone = AutOrderCone(aut, order)
    other = AutOrderCone(aut, "minus" if order == "plus" else "plus")
    for alpha in aut.elements():
        assert cone.contains(alpha, SMALL_BUDGET).is_yes == table(alpha)
        if closed:
            assert other.contains(alpha, SMALL_BUDGET).is_yes == table(alpha)
    units = [a for a in aut.elements() if table(a) and table(aut.neg(a))]
    expected = "yes" if all(fixes_up_to_units(u) for u in units) else "no"
    assert_state(admissible_check(aut_cone(aut, order), SMALL_BUDGET), expected)
    assert aut.order() == aut_order and len(units) == unit_count


def test_tilde_admissible_for_all_supported_kernels():
    kernels = [
        ZN,
        QP,
        FullCone(CyclicGroup(3)),
        TrivialCone(klein_four()),
    ]
    for x in kernels:
        aut = monotone_aut(x)
        assert_state(admissible_check(aut_cone(aut, "tilde"), SMALL_BUDGET), "yes", str(x))


def test_build_classifier_carrier_and_rali():
    k4 = TrivialCone(klein_four())
    cls = build_classifier(k4, aut_cone(monotone_aut(k4), "tilde"), SMALL_BUDGET)
    assert cls.carrier.order() == 24
    assert_state(is_rali(cls, SMALL_BUDGET), "yes")


def test_build_classifier_z_is_rali():
    cls = build_classifier(ZN, aut_cone(monotone_aut(ZN), "tilde"), SMALL_BUDGET)
    assert_state(is_rali(cls, SMALL_BUDGET), "yes")


def test_tilde_product_order_coincides_with_lex():
    x = QP
    cls = build_classifier(x, aut_cone(monotone_aut(x), "tilde"), SMALL_BUDGET)
    lex = lex_cone(cls)
    for el in cls.carrier.window_elements(Window(2, 3, 2)):
        a = cls.cone.contains(el, SMALL_BUDGET)
        b = lex.contains(el, SMALL_BUDGET)
        assert a.state == b.state


def test_build_classifier_rejects_inadmissible():
    aut = monotone_aut(QP)
    with pytest.raises(StructureError):
        build_classifier(QP, FullCone(aut), SMALL_BUDGET)


def test_classify_rali_point_into_tilde_classifier():
    pt = point(ExtensionShape(QP, ZN, TrivialAction(Z, Q)), "product")
    cls = build_classifier(QP, aut_cone(monotone_aut(QP), "tilde"), SMALL_BUDGET)
    rep = classify_into(pt, cls, SMALL_BUDGET)
    assert rep.base_monotone.is_yes
    assert rep.middle_monotone.is_yes
    assert rep.uniqueness.is_yes


def test_classify_scaling_point_into_tilde_fails_monotonicity():
    pt = point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), "minimal")
    cls = build_classifier(QP, aut_cone(monotone_aut(QP), "tilde"), SMALL_BUDGET)
    rep = classify_into(pt, cls, SMALL_BUDGET)
    assert rep.base_monotone.is_no


def test_classify_into_asks_base_monotonicity_once(monkeypatch):
    # The middle map's base part is cbar between the same base orders, so
    # classify_into hands base_monotone over instead of asking again.
    calls = []
    is_monotone = cones.is_monotone

    def counting(h, *args, **kwargs):
        if isinstance(h, CorestrictionHom):
            calls.append(h)
        return is_monotone(h, *args, **kwargs)

    monkeypatch.setattr(cones, "is_monotone", counting)
    monkeypatch.setattr(classifiers, "is_monotone", counting)
    query = {q["id"]: q for q in builtin_catalog().queries}["classify_rali_qz"]
    for doubled in (False, True):
        del calls[:]
        out = document.execute_query(query, SaturationBudget(), doubled)
        assert out["matched"] and out["verdict"] == {"state": "yes"}
        assert out["details"] == {
            "base_monotone": "yes", "middle_monotone": "yes", "uniqueness": "yes",
        }
        assert len(calls) == 1, (doubled, calls)


def test_classify_into_finite_classifier():
    z3full = FullCone(CyclicGroup(3))
    z2full = FullCone(CyclicGroup(2))
    inv = FiniteTableAction.from_homs(
        CyclicGroup(2), CyclicGroup(3),
        {0: TableHom.from_dict(CyclicGroup(3), CyclicGroup(3), {0: 0, 1: 1, 2: 2}),
         1: TableHom.from_dict(CyclicGroup(3), CyclicGroup(3), {0: 0, 1: 2, 2: 1})},
    )
    pt = point(ExtensionShape(z3full, z2full, inv), "product")
    assert_state(is_rali(pt, SMALL_BUDGET), "yes")
    cls = build_classifier(z3full, aut_cone(monotone_aut(z3full), "tilde"), SMALL_BUDGET)
    rep = classify_into(pt, cls, SMALL_BUDGET)
    assert rep.base_monotone.is_yes and rep.middle_monotone.is_yes and rep.uniqueness.is_yes


def test_sclass_membership_examples():
    plus = aut_cone(monotone_aut(QP), "plus")
    scaling_pt = point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), "minimal")
    assert_state(sclass_membership(scaling_pt, plus, SMALL_BUDGET), "yes")
    lex_pt = point(ExtensionShape(QP, ZN, TrivialAction(Z, Q)), "lex")
    v = sclass_membership(lex_pt, plus, SMALL_BUDGET)
    assert_state(v, "no")
    rali_pt = point(ExtensionShape(QP, ZN, TrivialAction(Z, Q)), "product")
    tilde = aut_cone(monotone_aut(QP), "tilde")
    assert_state(sclass_membership(rali_pt, tilde, SMALL_BUDGET), "yes")


def test_sclass_membership_condition_1_no():
    # phi_1 halves, a monotone automorphism that P+ leaves out: x/2 < x for x > 0.
    plus = aut_cone(monotone_aut(QP), "plus")
    halving = point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(1, 2))), "minimal")
    v = sclass_membership(halving, plus, SMALL_BUDGET)
    assert_state(v, "no")
    assert (v.witness, v.note) == (
        (1, Fraction(1, 2)), "positive base element acts outside the order (condition 1)"
    )
    # phi_1 = -id is not monotone on (Z, N), so it is no element of the group.
    sign = point(ExtensionShape(ZN, ZN, SignAction(Z, Z)), "product")
    v = sclass_membership(sign, aut_cone(monotone_aut(ZN), "plus"), SMALL_BUDGET)
    assert_state(v, "no")
    assert (v.witness, v.note) == (1, "positive base element acts outside the automorphism group")


def test_no_classifier_witness_rationals():
    w = no_classifier_witness(QP, SMALL_BUDGET)
    assert w is not None
    alpha, moved = w
    assert alpha >= 2
    aut = monotone_aut(QP)
    assert AutOrderCone(aut, "plus").contains(alpha).is_yes
    assert QP.sim(aut.realize(alpha).apply(moved), moved).is_no


def test_no_classifier_witness_none_cases():
    assert no_classifier_witness(ZN, SMALL_BUDGET) is None
    z3full = FullCone(CyclicGroup(3))
    assert no_classifier_witness(z3full, SMALL_BUDGET) is None


def test_no_classifier_requires_total_order():
    z3triv = TrivialCone(CyclicGroup(3))
    with pytest.raises(StructureError):
        no_classifier_witness(z3triv, SMALL_BUDGET)


def test_aut_eval_action_semidirect_law():
    k4 = TrivialCone(klein_four())
    aut = monotone_aut(k4)
    act = AutEvalAction(aut)
    carrier = build_classifier(k4, aut_cone(aut, "tilde"), SMALL_BUDGET).carrier
    for (x1, a1) in carrier.elements()[:8]:
        for (x2, a2) in carrier.elements()[:8]:
            got = carrier.add((x1, a1), (x2, a2))
            expect = (klein_four().add(x1, act.apply(a1, x2)), aut.add(a1, a2))
            assert got == expect


def test_orthant_perm_aut_group():
    z2n = OrthantCone(FreeAbelian(2))
    aut = monotone_aut(z2n)
    assert aut.order() == 2
    swap = (1, 0)
    h = aut.realize(swap)
    assert h.apply((3, 5)) == (5, 3)
    assert_state(AutOrderCone(aut, "plus").contains(swap), "no")
    assert_state(AutOrderCone(aut, "tilde").contains(aut.zero()), "yes")
    assert_state(AutOrderCone(aut, "tilde").contains(swap), "no")

Z2V = FreeAbelian(2)
Z2N = OrthantCone(Z2V)
SHEAR = MatrixAction(FreeAbelian(1), Z2V, (((1, 1), (0, 1)),))
SWAP = MatrixAction(FreeAbelian(1), Z2V, (((0, 1), (1, 0)),))


def test_orthant_perm_aut_elements():
    assert monotone_aut(Z2N).elements() == [(0, 1), (1, 0)]


@pytest.mark.parametrize("G, cone", [
    pytest.param(FreeAbelian(1), OrthantCone, id="1"),
    pytest.param(FreeAbelian(2), OrthantCone, id="2"),
    pytest.param(FreeAbelian(3), OrthantCone, id="3"),
    pytest.param(CyclicGroup(4), FullCone, id="Z4-full"),
    pytest.param(CyclicGroup(4), TrivialCone, id="Z4-trivial"),
    pytest.param(klein_four(), FullCone, id="K4-full"),
    pytest.param(klein_four(), TrivialCone, id="K4-trivial"),
    pytest.param(symmetric_cayley(3), FullCone, id="S3-full"),
    pytest.param(symmetric_cayley(3), TrivialCone, id="S3-trivial"),
])
def test_orthant_perm_aut_arithmetic_matches_realize(G, cone):
    # add is composition and neg is inversion of the realized maps, on the
    # coordinate permutations of Z^k and the automorphisms of finite groups.
    aut = monotone_aut(cone(G))
    window = G.window_elements(Window(1, 1, 1))
    for a in aut.elements():
        inv = aut.realize(aut.neg(a))
        for b in aut.elements():
            ab = aut.realize(aut.add(a, b))
            for x in window:
                assert ab.apply(x) == aut.realize(a).apply(aut.realize(b).apply(x))
        for x in window:
            assert inv.apply(aut.realize(a).apply(x)) == x
        assert aut.add(a, aut.neg(a)) == aut.zero()


def test_orthant_perm_aut_from_action():
    aut = monotone_aut(Z2N)
    assert aut.from_action(SWAP, 1) == (1, 0)
    assert aut.from_action(SWAP, 2) == (0, 1)
    assert aut.from_action(SHEAR, 1) is None


@pytest.mark.parametrize("order", ["tilde", "plus", "minus"])
def test_orthant_perm_aut_orders_admissible(order):
    aut = monotone_aut(Z2N)
    assert_state(admissible_check(aut_cone(aut, order), SMALL_BUDGET), "yes")


def test_aut_eval_action_checks_the_automorphism_it_tests():
    # is_identity_for refuses what apply refuses, instead of answering for it.
    for aut, bad, good in (
        (monotone_aut(QP), True, Fraction(1)),
        (monotone_aut(ZN), 5, (0,)),
        (monotone_aut(Z2N), (0, True), (0, 1)),
    ):
        act = AutEvalAction(aut)
        with pytest.raises(ShapeError):
            act.is_identity_for(bad)
        with pytest.raises(ShapeError):
            act.apply(bad, aut.base.group.generators()[0])
        assert act.is_identity_for(good)
    assert not AutEvalAction(monotone_aut(Z2N)).is_identity_for((1, 0))


def test_each_automorphism_group_realizes_phi_b_from_its_own_element():
    # from_action reads phi_b, and realize turns that element back into phi_b:
    # the canonical map's uniqueness rests on this, so it is not re-checked
    # per query.
    z3full = FullCone(CyclicGroup(3))
    inv = FiniteTableAction.from_homs(
        CyclicGroup(2), CyclicGroup(3),
        {0: TableHom.from_dict(CyclicGroup(3), CyclicGroup(3), {0: 0, 1: 1, 2: 2}),
         1: TableHom.from_dict(CyclicGroup(3), CyclicGroup(3), {0: 0, 1: 2, 2: 1})},
    )
    z2full = FullCone(CyclicGroup(2))
    cases = [
        (z3full, z2full, inv, FiniteAutGroup),
        (Z2N, ZN, SWAP, OrthantPermAutGroup),
        (QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2)), RatScalingAutGroup),
        (QP, ZN, MatrixAction.scaling(Z, Q, Fraction(1, 3)), RatScalingAutGroup),
    ]
    for x_cone, b_cone, action, kind in cases:
        aut = monotone_aut(x_cone)
        assert type(aut) is kind
        for b in b_cone.group.window_elements(Window(3, 6, 3)):
            h = aut.realize(aut.from_action(action, b))
            for g in x_cone.group.generators():
                assert h.apply(g) == action.apply(b, g), (kind, b, g)
        pt = point(ExtensionShape(x_cone, b_cone, action), "product")
        cbar = CorestrictionHom(pt.b.group, aut, pt.action)
        assert_state(_uniqueness_check(pt, aut, cbar), "yes")
    # phi_b outside the automorphism group is refused, not answered.
    pt = point(ExtensionShape(Z2N, ZN, SHEAR), "product")
    aut = monotone_aut(Z2N)
    with pytest.raises(StructureError, match="not a monotone automorphism"):
        _uniqueness_check(pt, aut, CorestrictionHom(pt.b.group, aut, pt.action))