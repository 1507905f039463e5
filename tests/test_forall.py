"""The three-valued contract of the "for all" scans.

Each scan checks a condition on every generator or every window element.
A counterexample is a `no` even after an undecided element; an undecided
element with no counterexample is an `unknown` with the scan's own note.
A stub cone makes chosen memberships undecided.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ordsplit.actions import ScalingAction, TrivialAction
from ordsplit.classifiers import aut_cone, monotone_aut, sclass_membership
from ordsplit.cones import (
    Cone,
    ExtensionalCone,
    FullCone,
    OrthantCone,
    PreorderedGroup,
    TrivialCone,
    check_cone_axioms,
    cone_subset,
    is_monotone,
)
from ordsplit.extensions import (
    ExtensionShape,
    FamilyCone,
    UpSetFibers,
    _kernel_reflects,
    point,
    pointwise_sim_id,
    product_cone,
    validate_family,
)
from ordsplit.groups import FreeAbelian, RationalVector
from ordsplit.homs import IdentityHom, LinearHom, ScalarHom
from ordsplit.points import hom_leq
from ordsplit.verdict import unknown

from helpers import SMALL_BUDGET, assert_state

Z = FreeAbelian(1)
Z2 = FreeAbelian(2)
Q = RationalVector(1)
STUB_NOTE = "undecided by the stub"


@dataclass(frozen=True)
class Undecided(Cone):
    """A real cone that answers unknown on the chosen elements."""

    base: Cone
    undecided: frozenset = frozenset()
    gens: Optional[tuple] = None
    closed: bool = False

    @property
    def group(self):
        return self.base.group

    def _contains(self, x, budget):
        if x in self.undecided:
            return unknown(STUB_NOTE)
        return self.base._contains(x, budget)

    def finite_generators(self):
        return self.gens

    def known_cone(self):
        return self.closed


def pre(cone):
    return PreorderedGroup(cone.group, cone)


NAT = OrthantCone(Z)
# The orthant on Z, exposing its generator 1.
NAT_GEN = Undecided(NAT, gens=(1,))
# A closed cone whose only check on the generator 1 is undecided; 2 is out.
TRIV_UNDECIDED_AT_1 = Undecided(TrivialCone(Z), frozenset({1}), closed=True)


def test_verdict_unknown_note_per_scan():
    half = Undecided(NAT, frozenset({2}))
    b = SMALL_BUDGET
    v = cone_subset(half, NAT, b)
    assert_state(v, "unknown")
    assert v.note == "subset check hit undecided memberships"
    v = is_monotone(IdentityHom(Z), pre(half), pre(NAT), b)
    assert_state(v, "unknown")
    assert v.note == "monotonicity hit undecided memberships"
    v = hom_leq(IdentityHom(Z), ScalarHom(Z, Z, Fraction(2)), pre(half), pre(NAT), b)
    assert_state(v, "unknown")
    assert v.note == "pointwise comparison hit undecided memberships"
    v = check_cone_axioms(half, b)
    assert_state(v, "unknown")
    assert v.note == "closure checks hit undecided memberships"
    # Every window membership is decided; the sum 1 + 3 is not.
    v = check_cone_axioms(Undecided(NAT, frozenset({4})), b)
    assert_state(v, "unknown")
    assert v.note == "closure checks hit undecided memberships"


def test_verdict_later_no_wins_over_earlier_unknown():
    # -3 is the first window element; -2 is the first counterexample.
    full = Undecided(FullCone(Z), frozenset({-3}))
    b = SMALL_BUDGET
    v = cone_subset(full, NAT, b)
    assert_state(v, "no")
    assert (v.witness, v.note) == (-2, "element of the first cone only")
    v = is_monotone(IdentityHom(Z), pre(full), pre(NAT), b)
    assert_state(v, "no")
    assert (v.witness, v.note) == (-2, "positive element with non-positive image")
    v = hom_leq(IdentityHom(Z), ScalarHom(Z, Z, Fraction(2)), pre(full), pre(NAT), b)
    assert_state(v, "no")
    assert (v.witness, v.note) == (-2, "comparison fails on a positive element")
    pair = Undecided(ExtensionalCone(Z, frozenset({0, 1})), frozenset({-3}))
    v = check_cone_axioms(pair, b)
    assert_state(v, "no")
    assert (v.witness, v.note) == ((1, 1), "not closed under addition")


def test_generator_unknown_falls_through_to_the_window_scan():
    b = SMALL_BUDGET
    v = cone_subset(NAT_GEN, TRIV_UNDECIDED_AT_1, b)
    assert_state(v, "no")
    assert (v.witness, v.note) == (2, "element of the first cone only")
    v = is_monotone(IdentityHom(Z), pre(NAT_GEN), pre(TRIV_UNDECIDED_AT_1), b)
    assert_state(v, "no")
    assert (v.witness, v.note) == (2, "positive element with non-positive image")


def test_generator_unknown_is_returned_as_is():
    b = SMALL_BUDGET
    # -x + 2x = x, so the comparison on the generator 1 asks the stub about 1.
    v = hom_leq(
        IdentityHom(Z), ScalarHom(Z, Z, Fraction(2)), pre(NAT_GEN), pre(TRIV_UNDECIDED_AT_1), b
    )
    assert_state(v, "unknown")
    assert v.note == STUB_NOTE
    # diag(1, 2) moves the generator (0, 1) by (0, 1), which the stub leaves open.
    h = LinearHom(Z2, Z2, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))))
    v = pointwise_sim_id(h, pre(Undecided(FullCone(Z2), frozenset({(0, 1)}))), b)
    assert_state(v, "unknown")
    assert v.note == STUB_NOTE


def test_pointwise_sim_id_window_scan():
    b = SMALL_BUDGET
    h = ScalarHom(Q, Q, Fraction(2))
    # h(x) ~ x asks about x and -x; the scalar shortcut asks about +-1.
    ones = frozenset({Fraction(1), Fraction(-1)})
    v = pointwise_sim_id(h, pre(Undecided(FullCone(Q), ones)), b)
    assert_state(v, "unknown")
    assert v.note == "pointwise comparison hit undecided memberships"
    first, second = Q.window_elements(b.window)[:2]
    cone = Undecided(TrivialCone(Q), ones | {first, -first})
    v = pointwise_sim_id(h, pre(cone), b)
    assert_state(v, "no")
    assert (v.witness, v.note) == (second, "automorphism moves an element")


def test_kernel_reflects_scan():
    b = SMALL_BUDGET
    shape = ExtensionShape(pre(NAT), pre(NAT), TrivialAction(Z, Z))
    v = _kernel_reflects(Undecided(product_cone(shape), frozenset({(2, 0)})), shape, b)
    assert_state(v, "unknown")
    assert v.note == "reflection check hit undecided memberships"
    v = _kernel_reflects(Undecided(FullCone(shape.carrier), frozenset({(-3, 0)})), shape, b)
    assert_state(v, "no")
    assert (v.witness, v.note) == ((-2, 0), "fibre order not reflected")


def test_family_conditions_unknown_note():
    shape = ExtensionShape(pre(NAT), pre(Undecided(NAT, frozenset({2}))), TrivialAction(Z, Z))
    v = validate_family(FamilyCone(shape, UpSetFibers((0, 1, 2, 4))), SMALL_BUDGET).conditions
    assert_state(v, "unknown")
    assert v.note == "family conditions hit undecided memberships"


def test_sclass_membership_undecided_unit():
    # n acts on Q by 2^n; whether 2 is a unit of the order asks about 1/2.
    qp = pre(OrthantCone(Q))
    pt = point(ExtensionShape(qp, pre(NAT), ScalingAction(Z, Q, Fraction(2))), "minimal")
    plus = aut_cone(monotone_aut(qp), "plus", SMALL_BUDGET)
    order = PreorderedGroup(plus.group, Undecided(plus.cone, frozenset({Fraction(1, 2)})))
    v = sclass_membership(pt, order, SMALL_BUDGET)
    assert_state(v, "unknown")
    assert v.note == "condition 2 hit undecided memberships"
