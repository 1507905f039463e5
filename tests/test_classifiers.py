import pytest
from fractions import Fraction

from ordsplit.actions import FiniteTableAction, MatrixAction, ScalingAction, TrivialAction
from ordsplit.classifiers import (
    AutEvalAction,
    FiniteAutGroup,
    MinusCone,
    OrthantPermAutGroup,
    PlusCone,
    RatScalingAutGroup,
    TildeCone,
    TrivialAutGroup,
    admissible_check,
    aut_cone,
    build_classifier,
    classify_into,
    monotone_aut,
    no_classifier_witness,
    sclass_membership,
)
from ordsplit.cones import (
    ExtensionalCone,
    FullCone,
    OrthantCone,
    PreorderedGroup,
    TrivialCone,
    check_cone_axioms,
)
from ordsplit.extensions import ExtensionShape, lex_cone, point
from ordsplit.groups import CyclicGroup, FreeAbelian, RationalVector, StructureError
from ordsplit.homs import TableHom
from ordsplit.points import is_rali
from ordsplit.verdict import Window

from helpers import SMALL_BUDGET, assert_state, klein_four

Z = FreeAbelian(1)
Q = RationalVector(1)
ZN = PreorderedGroup(Z, OrthantCone(Z))
QP = PreorderedGroup(Q, OrthantCone(Q))


def test_monotone_aut_symbolic_dispatch():
    assert isinstance(monotone_aut(ZN), TrivialAutGroup)
    assert isinstance(monotone_aut(QP), RatScalingAutGroup)
    z2n = PreorderedGroup(FreeAbelian(2), OrthantCone(FreeAbelian(2)))
    assert isinstance(monotone_aut(z2n), OrthantPermAutGroup)
    with pytest.raises(StructureError):
        monotone_aut(PreorderedGroup(Q, FullCone(Q)))


def test_monotone_aut_finite_counts():
    k4 = PreorderedGroup(klein_four(), TrivialCone(klein_four()))
    assert monotone_aut(k4).order() == 6
    z3full = PreorderedGroup(CyclicGroup(3), FullCone(CyclicGroup(3)))
    assert monotone_aut(z3full).order() == 2
    # a nontrivial cone cuts the automorphism group down
    z4 = CyclicGroup(4)
    half = PreorderedGroup(z4, ExtensionalCone(z4, frozenset({0, 1, 2})))
    assert monotone_aut(half).order() == 1


def test_finite_aut_group_is_a_group():
    k4 = PreorderedGroup(klein_four(), TrivialCone(klein_four()))
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
    plus, minus, tilde = PlusCone(aut), MinusCone(aut), TildeCone(aut)
    assert_state(plus.contains(Fraction(2)), "yes")
    assert_state(tilde.contains(Fraction(2)), "no")
    assert_state(tilde.contains(Fraction(1)), "yes")
    assert_state(minus.contains(Fraction(1, 2)), "yes")
    assert_state(minus.contains(Fraction(2)), "no")
    assert_state(plus.contains(Fraction(1, 2)), "no")


def test_plus_minus_inverse_duality():
    aut = monotone_aut(QP)
    plus, minus = PlusCone(aut), MinusCone(aut)
    for q in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(1, 3), Fraction(7, 4)):
        assert plus.contains(q).is_yes == minus.contains(1 / q).is_yes


def test_aut_cone_axioms_on_finite_instance():
    z3full = PreorderedGroup(CyclicGroup(3), FullCone(CyclicGroup(3)))
    aut = monotone_aut(z3full)
    for which in ("tilde", "plus", "minus"):
        order = aut_cone(aut, which, SMALL_BUDGET)
        assert_state(check_cone_axioms(order.cone, SMALL_BUDGET), "yes", which)


def test_admissibility():
    aut = monotone_aut(QP)
    assert_state(admissible_check(aut_cone(aut, "tilde"), SMALL_BUDGET), "yes")
    assert_state(admissible_check(aut_cone(aut, "plus"), SMALL_BUDGET), "yes")
    assert_state(admissible_check(aut_cone(aut, "minus"), SMALL_BUDGET), "yes")
    v = admissible_check(PreorderedGroup(aut, FullCone(aut)), SMALL_BUDGET)
    assert_state(v, "no")


@pytest.mark.parametrize("n, positives", [
    (4, {0, 2}),
    # Not closed, but kept by negation, which the minus order then refuses.
    (5, {0, 1, 4}),
])
def test_minus_cone_on_a_finite_base_matches_the_table(n, positives):
    G = CyclicGroup(n)
    aut = monotone_aut(PreorderedGroup(G, ExtensionalCone(G, frozenset(positives))))
    assert isinstance(aut, FiniteAutGroup)

    def inverse(alpha):
        inv = [None] * n
        for x, y in enumerate(alpha):
            inv[y] = x
        return tuple(inv)

    def minus(alpha):  # alpha(x) >= x whenever x <= 0
        return all((alpha[x] - x) % n in positives for x in range(n) if (-x) % n in positives)

    def fixes_up_to_units(alpha):
        return all(
            (alpha[x] - x) % n in positives and (x - alpha[x]) % n in positives for x in range(n)
        )

    order = aut_cone(aut, "minus", SMALL_BUDGET)
    for alpha in aut.elements():
        assert MinusCone(aut).contains(alpha, SMALL_BUDGET).is_yes == minus(alpha)
    units = [a for a in aut.elements() if minus(a) and minus(inverse(a))]
    expected = "yes" if all(fixes_up_to_units(u) for u in units) else "no"
    assert_state(admissible_check(order, SMALL_BUDGET), expected)
    assert aut.order() == 2 and len(units) == (2 if n == 4 else 1)


def test_tilde_admissible_for_all_supported_kernels():
    kernels = [
        ZN,
        QP,
        PreorderedGroup(CyclicGroup(3), FullCone(CyclicGroup(3))),
        PreorderedGroup(klein_four(), TrivialCone(klein_four())),
    ]
    for x in kernels:
        aut = monotone_aut(x)
        assert_state(admissible_check(aut_cone(aut, "tilde"), SMALL_BUDGET), "yes", str(x))


def test_build_classifier_carrier_and_rali():
    k4 = PreorderedGroup(klein_four(), TrivialCone(klein_four()))
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
        build_classifier(QP, PreorderedGroup(aut, FullCone(aut)), SMALL_BUDGET)


def test_classify_rali_point_into_tilde_classifier():
    pt = point(ExtensionShape(QP, ZN, TrivialAction(Z, Q)), "product")
    cls = build_classifier(QP, aut_cone(monotone_aut(QP), "tilde"), SMALL_BUDGET)
    rep = classify_into(pt, cls, SMALL_BUDGET)
    assert rep.base_monotone.is_yes
    assert rep.middle_monotone.is_yes
    assert rep.uniqueness.is_yes


def test_classify_scaling_point_into_tilde_fails_monotonicity():
    pt = point(ExtensionShape(QP, ZN, ScalingAction(Z, Q, Fraction(2))), "minimal")
    cls = build_classifier(QP, aut_cone(monotone_aut(QP), "tilde"), SMALL_BUDGET)
    rep = classify_into(pt, cls, SMALL_BUDGET)
    assert rep.base_monotone.is_no


def test_classify_into_finite_classifier():
    z3full = PreorderedGroup(CyclicGroup(3), FullCone(CyclicGroup(3)))
    z2full = PreorderedGroup(CyclicGroup(2), FullCone(CyclicGroup(2)))
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
    plus = aut_cone(monotone_aut(QP), "plus", SMALL_BUDGET)
    scaling_pt = point(ExtensionShape(QP, ZN, ScalingAction(Z, Q, Fraction(2))), "minimal")
    assert_state(sclass_membership(scaling_pt, plus, SMALL_BUDGET), "yes")
    lex_pt = point(ExtensionShape(QP, ZN, TrivialAction(Z, Q)), "lex")
    v = sclass_membership(lex_pt, plus, SMALL_BUDGET)
    assert_state(v, "no")
    rali_pt = point(ExtensionShape(QP, ZN, TrivialAction(Z, Q)), "product")
    tilde = aut_cone(monotone_aut(QP), "tilde", SMALL_BUDGET)
    assert_state(sclass_membership(rali_pt, tilde, SMALL_BUDGET), "yes")


def test_no_classifier_witness_rationals():
    w = no_classifier_witness(QP, SMALL_BUDGET)
    assert w is not None
    alpha, moved = w
    assert alpha >= 2
    aut = monotone_aut(QP)
    assert PlusCone(aut).contains(alpha).is_yes
    assert QP.sim(aut.realize(alpha).apply(moved), moved).is_no


def test_no_classifier_witness_none_cases():
    assert no_classifier_witness(ZN, SMALL_BUDGET) is None
    z3full = PreorderedGroup(CyclicGroup(3), FullCone(CyclicGroup(3)))
    assert no_classifier_witness(z3full, SMALL_BUDGET) is None


def test_no_classifier_requires_total_order():
    z3triv = PreorderedGroup(CyclicGroup(3), TrivialCone(CyclicGroup(3)))
    with pytest.raises(StructureError):
        no_classifier_witness(z3triv, SMALL_BUDGET)


def test_aut_eval_action_semidirect_law():
    k4 = PreorderedGroup(klein_four(), TrivialCone(klein_four()))
    aut = monotone_aut(k4)
    act = AutEvalAction(aut)
    carrier = build_classifier(k4, aut_cone(aut, "tilde"), SMALL_BUDGET).carrier
    for (x1, a1) in carrier.elements()[:8]:
        for (x2, a2) in carrier.elements()[:8]:
            got = carrier.add((x1, a1), (x2, a2))
            expect = (klein_four().add(x1, act.apply(a1, x2)), aut.add(a1, a2))
            assert got == expect


def test_orthant_perm_aut_group():
    z2n = PreorderedGroup(FreeAbelian(2), OrthantCone(FreeAbelian(2)))
    aut = monotone_aut(z2n)
    assert aut.order() == 2
    swap = (1, 0)
    h = aut.realize(swap)
    assert h.apply((3, 5)) == (5, 3)
    assert_state(PlusCone(aut).contains(swap), "no")
    assert_state(TildeCone(aut).contains(aut.zero()), "yes")
    assert_state(TildeCone(aut).contains(swap), "no")

Z2V = FreeAbelian(2)
Z2N = PreorderedGroup(Z2V, OrthantCone(Z2V))
SHEAR = MatrixAction(FreeAbelian(1), Z2V, (((1, 1), (0, 1)),))
SWAP = MatrixAction(FreeAbelian(1), Z2V, (((0, 1), (1, 0)),))


def test_orthant_perm_aut_elements():
    assert monotone_aut(Z2N).elements() == [(0, 1), (1, 0)]


@pytest.mark.parametrize("rank", [2, 3])
def test_orthant_perm_aut_arithmetic_matches_realize(rank):
    # add is composition and neg is inversion of the realized coordinate maps.
    G = FreeAbelian(rank)
    aut = monotone_aut(PreorderedGroup(G, OrthantCone(G)))
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
    assert_state(admissible_check(aut_cone(aut, order, SMALL_BUDGET), SMALL_BUDGET), "yes")
