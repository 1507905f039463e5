import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit.actions import (
    FiniteTableAction,
    ScalingAction,
    SignAction,
    TrivialAction,
)
from ordsplit.cones import (
    FullCone,
    GeneratedCone,
    OrthantCone,
    PreorderedGroup,
    TrivialCone,
)
from ordsplit.extensions import (
    INF,
    ExhaustiveFinite,
    ExplicitFibers,
    ExtensionShape,
    FamilyCone,
    SplitExtension,
    SuperadditiveWindow,
    UpSetFibers,
    compatible_exists,
    cone_to_family,
    enumerate_compatible_cones,
    is_compatible,
    is_minimal_equal_product,
    lex_cone,
    minimal_cone,
    normalize,
    point,
    product_cone,
    semidirect,
    superadditive_sequences,
    validate_family,
)
from ordsplit.groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
)
from ordsplit.homs import (
    KernelHom,
    ProjectionHom,
    SectionHom,
    TableHom,
)
from ordsplit.verdict import SaturationBudget, Window

from helpers import (
    SMALL_BUDGET,
    assert_state,
    oracle_all_compatible_cones,
    random_finite_extension,
    symmetric_cayley,
)

Z = FreeAbelian(1)
Q = RationalVector(1)
ZN = PreorderedGroup(Z, OrthantCone(Z))
ZF = PreorderedGroup(Z, FullCone(Z))
Z0 = PreorderedGroup(Z, TrivialCone(Z))
QP = PreorderedGroup(Q, OrthantCone(Q))


def trivial_shape():
    return ExtensionShape(ZN, ZN, TrivialAction(Z, Z))


def sign_bad_shape():
    return ExtensionShape(ZN, ZF, SignAction(Z, Z))


def sign_strong_shape():
    return ExtensionShape(Z0, ZN, SignAction(Z, Z))


def scaling_shape():
    return ExtensionShape(QP, ZN, ScalingAction(Z, Q, Fraction(2)))


def test_a_point_is_a_shape_with_a_cone():
    shape = trivial_shape()
    pt = point(shape, "product")
    assert isinstance(pt, ExtensionShape)
    assert shape.carrier is shape.carrier and pt.carrier is pt.carrier
    assert pt.carrier == shape.carrier
    with pytest.raises(ShapeError):
        SplitExtension(shape.x, shape.b, shape.action, product_cone(sign_strong_shape()))
    with pytest.raises(StructureError, match="does not match the kernel/base groups"):
        SplitExtension(QP, ZN, shape.action, pt.cone)


def test_semidirect_validates_action():
    sd = semidirect(Z, Z, SignAction(Z, Z))
    assert isinstance(sd, Semidirect)
    with pytest.raises(StructureError):
        semidirect(Q, Z, SignAction(Z, Z))


def test_product_and_lex_cone_examples():
    shape = trivial_shape()
    prod, lex = product_cone(shape), lex_cone(shape)
    assert_state(lex.contains((-5, 1)), "yes")
    assert_state(prod.contains((-5, 1)), "no")
    assert_state(lex.contains((-5, 0)), "no")


def test_lex_cone_full_base_ignores_base_part():
    shape = ExtensionShape(ZN, ZF, TrivialAction(Z, Z))
    lex = lex_cone(shape)
    for b in (-3, 0, 5):
        assert_state(lex.contains((2, b)), "yes")
        assert_state(lex.contains((-2, b)), "no")


def test_compatible_exists_three_examples():
    v = compatible_exists(sign_bad_shape(), SMALL_BUDGET)
    assert_state(v, "no")
    assert "monotone" in v.note
    assert_state(compatible_exists(scaling_shape(), SMALL_BUDGET), "yes")
    assert_state(compatible_exists(trivial_shape(), SMALL_BUDGET), "yes")


def test_compatible_exists_returns_lex_certificate():
    v = compatible_exists(trivial_shape(), SMALL_BUDGET)
    assert v.witness is not None
    assert_state(v.witness.contains((-5, 1)), "yes")


def test_is_compatible_product_on_trivial():
    shape = trivial_shape()
    assert_state(is_compatible(product_cone(shape), shape, "interval", SMALL_BUDGET), "yes")
    assert_state(is_compatible(product_cone(shape), shape, "definitional", SMALL_BUDGET), "yes")


def test_is_compatible_lex_on_sign_extension_no_with_witness():
    shape = sign_bad_shape()
    for mode in ("interval", "definitional"):
        v = is_compatible(lex_cone(shape), shape, mode, SMALL_BUDGET)
        assert_state(v, "no")
        assert v.witness is not None
        # the witness pair really does break closure under addition
        a, b = v.witness
        carrier = shape.carrier
        lex = lex_cone(shape)
        assert lex.contains(a).is_yes and lex.contains(b).is_yes
        assert lex.contains(carrier.add(a, b)).is_no


def test_is_compatible_full_cone_fails_projection():
    shape = trivial_shape()
    v = is_compatible(FullCone(shape.carrier), shape, "definitional", SMALL_BUDGET)
    assert_state(v, "no")


def test_modes_never_contradict_on_catalog_cones():
    for shape in (trivial_shape(), scaling_shape(), sign_strong_shape()):
        for cone in (product_cone(shape), lex_cone(shape)):
            a = is_compatible(cone, shape, "interval", SMALL_BUDGET)
            b = is_compatible(cone, shape, "definitional", SMALL_BUDGET)
            assert not (a.is_yes and b.is_no)
            assert not (a.is_no and b.is_yes)


def test_minimal_cone_requires_compatibility():
    with pytest.raises(StructureError):
        minimal_cone(sign_bad_shape(), SMALL_BUDGET)


def test_minimal_cone_trivial_action_is_product():
    shape = trivial_shape()
    mc = minimal_cone(shape, SMALL_BUDGET)
    prod = product_cone(shape)
    for el in shape.carrier.window_elements(Window(3, 4, 2)):
        assert mc.contains(el, SMALL_BUDGET).state == prod.contains(el, SMALL_BUDGET).state


def test_minimal_cone_scaling_uses_conjugator():
    mc = minimal_cone(scaling_shape(), SMALL_BUDGET)
    v = mc.contains((Fraction(-1), 1), SMALL_BUDGET)
    assert_state(v, "yes")
    # r = x / (1 - 2^b) for x=-1, b=1 gives r=1; verify by direct conjugation.
    carrier = scaling_shape().carrier
    r = Fraction(-1) / (1 - Fraction(2))
    assert carrier.conjugate((r, 0), (Fraction(0), 1)) == (Fraction(-1), 1)


def test_minimal_cone_sign_membership():
    mc = minimal_cone(sign_strong_shape(), SMALL_BUDGET)
    assert_state(mc.contains((2, 1), SMALL_BUDGET), "yes")
    v = mc.contains((1, 1), SMALL_BUDGET)
    assert v.is_unknown or v.is_no
    assert_state(mc.contains((-2, 2), SMALL_BUDGET), "yes")


def test_is_minimal_equal_product():
    assert_state(is_minimal_equal_product(trivial_shape(), SMALL_BUDGET), "yes")
    v = is_minimal_equal_product(scaling_shape(), SMALL_BUDGET)
    assert_state(v, "no")
    trivial_base = ExtensionShape(Z0, Z0, SignAction(Z, Z))
    assert_state(is_minimal_equal_product(trivial_base, SMALL_BUDGET), "yes")


# --- normalization --------------------------------------------------------------


def test_normalize_direct_product_is_trivial():
    A = DirectProduct((Z, Z))
    action, theta = normalize(A, ProjectionHom(A), SectionHom(A), KernelHom(A))
    assert isinstance(action, TrivialAction)
    assert theta.apply((3, 4)) == (3, 4)


def test_normalize_s3_gives_inversion_action():
    S3 = symmetric_cayley(3)
    Z2, Z3 = CyclicGroup(2), CyclicGroup(3)
    # A3 = {identity, the two 3-cycles}; indices depend on the sorted table.
    from ordsplit.groups import element_order

    cycles = sorted(a for a in S3.elements() if element_order(S3, a) == 3)
    k = TableHom.from_dict(Z3, S3, {0: S3.zero(), 1: cycles[0], 2: cycles[1]})
    sign_of = {a: (0 if a == S3.zero() or a in cycles else 1) for a in S3.elements()}
    f = TableHom.from_dict(S3, Z2, sign_of)
    t = next(a for a in S3.elements() if sign_of[a] == 1)
    s = TableHom.from_dict(Z2, S3, {0: S3.zero(), 1: t})
    action, theta = normalize(S3, f, s, k)
    assert isinstance(action, FiniteTableAction)
    inv_map = action.as_hom(1).mapping()
    assert inv_map == {0: 0, 1: 2, 2: 1}
    # theta sends s(b) to (0, b), as forced by its formula.
    for b in (0, 1):
        assert theta.apply(s.apply(b)) == (Z3.zero(), b)


def test_normalize_rejects_broken_section():
    A = DirectProduct((Z, Z))
    bad_s = KernelHom(A)  # lands in the wrong factor: f(s(b)) = 0 != b
    with pytest.raises(StructureError):
        normalize(A, ProjectionHom(A), bad_s, KernelHom(A))


# --- families -------------------------------------------------------------------


def test_validate_family_doubling_sequence():
    fam = FamilyCone(trivial_shape(), UpSetFibers((0, 1, 2, 4)))
    res = validate_family(fam, SMALL_BUDGET)
    assert_state(res.conditions, "yes")
    assert_state(res.orbit_remark, "yes")


def test_validate_family_superadditivity_failure():
    fam = FamilyCone(trivial_shape(), UpSetFibers((0, 1, 1)))
    res = validate_family(fam, SMALL_BUDGET)
    assert_state(res.conditions, "no")
    assert res.conditions.witness == (1, 1)


def test_validate_family_wrong_zero_fiber():
    fibers = {0: frozenset({0, 1}), 1: frozenset(range(-3, 4)),
              2: frozenset(range(-3, 4)), 3: frozenset(range(-3, 4))}
    fam = FamilyCone(trivial_shape(), ExplicitFibers(tuple(sorted(fibers.items()))))
    res = validate_family(fam, SMALL_BUDGET)
    assert_state(res.conditions, "no")
    assert res.conditions.witness == 2


def test_family_cone_membership_threshold():
    cone = FamilyCone(trivial_shape(), UpSetFibers((0, 1, 2, 3)))
    assert_state(cone.contains((-1, 1)), "yes")
    assert_state(cone.contains((-2, 1)), "no")
    assert_state(cone.contains((1, -1)), "no")


def test_family_round_trips():
    shape = trivial_shape()
    cone = FamilyCone(shape, UpSetFibers((0, 1, 2, 4)))
    fam2 = cone_to_family(cone, shape, Window(3, 4, 2))
    cone2 = FamilyCone(shape, fam2.sets)
    for el in shape.carrier.window_elements(Window(3, 4, 2)):
        assert cone.contains(el).state == cone2.contains(el).state


def test_lex_cone_equals_all_infinite_thresholds():
    shape = trivial_shape()
    cone = FamilyCone(shape, UpSetFibers((0, INF, INF, INF)))
    lex = lex_cone(shape)
    for el in shape.carrier.window_elements(Window(3, 4, 2)):
        assert cone.contains(el).state == lex.contains(el).state


def test_product_cone_family_snapshot():
    shape = trivial_shape()
    fam = cone_to_family(product_cone(shape), shape, Window(3, 4, 2))
    assert fam.sets.contains(1, 0)
    assert not fam.sets.contains(1, -1)
    assert not fam.sets.contains(-1, 0)


def test_cone_to_family_of_sign_minimal_validates():
    # Snapshot wider than the validation window so fibre sums stay inside.
    shape = sign_strong_shape()
    wide = SaturationBudget(2, 6, Window(8, 8, 4))
    mc = minimal_cone(shape, wide)
    fam = cone_to_family(mc, shape, Window(8, 8, 4), wide)
    res = validate_family(fam, SMALL_BUDGET)
    assert not res.conditions.is_no
    assert not res.orbit_remark.is_no


# --- enumeration ----------------------------------------------------------------


def test_superadditive_sequences_window_2_2():
    seqs = superadditive_sequences(2, 2)
    assert len(seqs) == 8
    assert (0, 0) in seqs and (1, 2) in seqs and (INF, INF) in seqs
    assert (1, 1) not in seqs


def test_enumerate_superadditive_2_2():
    rep = enumerate_compatible_cones(trivial_shape(), SuperadditiveWindow(2, 2))
    assert rep.count == 8
    assert rep.meets_closed
    assert rep.compatible.is_yes


def test_enumerate_superadditive_growth():
    rep_small = enumerate_compatible_cones(trivial_shape(), SuperadditiveWindow(2, 2))
    rep_big = enumerate_compatible_cones(trivial_shape(), SuperadditiveWindow(3, 4))
    assert rep_big.count > rep_small.count


def test_enumerate_finite_unique_or_empty():
    Z3, Z2 = CyclicGroup(3), CyclicGroup(2)
    inv = FiniteTableAction.from_homs(
        Z2, Z3, {0: TableHom.from_dict(Z3, Z3, {0: 0, 1: 1, 2: 2}),
                 1: TableHom.from_dict(Z3, Z3, {0: 0, 1: 2, 2: 1})}
    )
    ok_shape = ExtensionShape(
        PreorderedGroup(Z3, FullCone(Z3)), PreorderedGroup(Z2, FullCone(Z2)), inv
    )
    rep = enumerate_compatible_cones(ok_shape, ExhaustiveFinite())
    assert rep.count == 1
    assert rep.meets_closed and rep.joins_closed_in_window
    bad_shape = ExtensionShape(
        PreorderedGroup(Z3, TrivialCone(Z3)), PreorderedGroup(Z2, FullCone(Z2)), inv
    )
    rep2 = enumerate_compatible_cones(bad_shape, ExhaustiveFinite())
    assert rep2.count == 0
    assert_state(compatible_exists(bad_shape, SMALL_BUDGET), "no")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_finite_carrier_has_the_componentwise_set_as_its_only_candidate(seed):
    # No base element of a finite closed cone is strictly positive, so the
    # compatible interval holds the componentwise set or nothing.
    x_pre, b_pre, action = random_finite_extension(random.Random(seed))
    shape = ExtensionShape(x_pre, b_pre, action)
    oracle = oracle_all_compatible_cones(
        shape.carrier, x_pre.cone.elements, b_pre.cone.elements
    )
    rep = enumerate_compatible_cones(shape, ExhaustiveFinite())
    assert rep.count == len(oracle) <= 1
    assert {c.elements for c in rep.cones} == oracle
    if compatible_exists(shape, SMALL_BUDGET).is_yes:
        mc = minimal_cone(shape, SMALL_BUDGET)
        assert mc == product_cone(shape)
        (only,) = oracle
        assert frozenset(e for e in shape.carrier.elements() if mc.contains(e).is_yes) == only
    else:
        assert not oracle


def test_enumerated_lattice_cones_all_pass_is_compatible():
    shape = trivial_shape()
    rep = enumerate_compatible_cones(shape, SuperadditiveWindow(2, 2))
    small = SaturationBudget(2, 4, Window(2, 4, 2))
    for cone in rep.cones:
        assert_state(is_compatible(cone, shape, "definitional", small), "yes", str(cone))


def test_minimal_cone_below_every_enumerated_cone():
    shape = trivial_shape()
    mc = minimal_cone(shape, SMALL_BUDGET)
    rep = enumerate_compatible_cones(shape, SuperadditiveWindow(2, 2))
    for cone in rep.cones:
        for el in shape.carrier.window_elements(Window(2, 2, 1)):
            if mc.contains(el, SMALL_BUDGET).is_yes:
                assert cone.contains(el, SMALL_BUDGET).is_yes


def test_enumerate_superadditive_rejects_other_shapes():
    with pytest.raises(StructureError):
        enumerate_compatible_cones(scaling_shape(), SuperadditiveWindow(2, 2))


def test_minimal_cone_of_a_trivial_action_is_the_product_cone():
    # Closedness of the componentwise cone is decided once, in minimal_cone.
    shape = trivial_shape()
    assert minimal_cone(shape, SMALL_BUDGET) == product_cone(shape)
    assert isinstance(minimal_cone(scaling_shape(), SMALL_BUDGET), GeneratedCone)


def test_validate_family_asks_each_cone_once_per_window_element(monkeypatch):
    # Window(4, 8, 4) holds 9 integers: 9 base queries (condition 1, reused
    # by conditions 3-4 and the orbit remark) and 9 fibre queries (condition 2).
    calls = []
    orthant_contains = OrthantCone.contains

    def counting(self, x, budget=SMALL_BUDGET):
        calls.append(x)
        return orthant_contains(self, x, budget)

    monkeypatch.setattr(OrthantCone, "contains", counting)
    fam = FamilyCone(trivial_shape(), UpSetFibers((0, 1, 2, 4)))
    fv = validate_family(fam, SaturationBudget(2, 6, Window(4, 8, 4)))
    assert_state(fv.conditions, "yes")
    assert_state(fv.orbit_remark, "yes")
    assert len(calls) == 18
    assert sorted(calls) == sorted(list(range(-4, 5)) * 2)
