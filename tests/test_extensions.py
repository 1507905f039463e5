import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit import extensions
from ordsplit.actions import (
    FiniteTableAction,
    MatrixAction,
    SignAction,
    TrivialAction,
)
from ordsplit.cones import (
    ExtensionalCone,
    FibreCone,
    FullCone,
    OrthantCone,
    TrivialCone,
    generated_cone,
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
    enumerate_compatible_cones,
    is_compatible,
    lex_cone,
    minimal_cone,
    normalize,
    point,
    product_cone,
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
    enumerate_homomorphisms,
)
from ordsplit.verdict import SaturationBudget, Window

from helpers import (
    SMALL_BUDGET,
    assert_state,
    cone_to_family,
    definitional_compatible,
    is_minimal_equal_product,
    klein_four,
    oracle_all_compatible_cones,
    oracle_cone_closure,
    oracle_family_conjugation,
    oracle_family_orbit_remark,
    random_finite_extension,
    symmetric_cayley,
)

Z = FreeAbelian(1)
Q = RationalVector(1)
Z2 = FreeAbelian(2)
ZN = OrthantCone(Z)
ZF = FullCone(Z)
Z0 = TrivialCone(Z)
QP = OrthantCone(Q)


def trivial_shape():
    return ExtensionShape(ZN, ZN, TrivialAction(Z, Z))


def sign_bad_shape():
    return ExtensionShape(ZN, ZF, SignAction(Z, Z))


def sign_strong_shape():
    return ExtensionShape(Z0, ZN, SignAction(Z, Z))


def scaling_shape():
    return ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2)))


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


def test_semidirect_refuses_a_mismatched_action():
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    assert sd.action == SignAction(Z, Z)
    with pytest.raises(StructureError, match="does not act on the given groups"):
        Semidirect(Q, Z, SignAction(Z, Z))


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


def test_compatible_exists_with_window_known_base_units(monkeypatch):
    # The units of a generated base cone come from a window scan.  Under a
    # trivial action every unit acts as the identity, so none is scanned and
    # the lex cone certifies the yes; the sign action still needs the units.
    scanned = []
    real = extensions.units_subgroup
    monkeypatch.setattr(extensions, "units_subgroup", lambda *a: scanned.append(a) or real(*a))
    base = generated_cone(Z2, [(1, 0), (0, 1)])
    shape = ExtensionShape(ZN, base, TrivialAction(Z2, Z))
    v = compatible_exists(shape, SMALL_BUDGET)
    assert_state(v, "yes")
    assert (v.witness, v.note) == (lex_cone(shape), "lexicographic cone is compatible")
    assert scanned == []
    base = generated_cone(Z, [1])
    v = compatible_exists(ExtensionShape(Z0, base, SignAction(Z, Z)), SMALL_BUDGET)
    assert_state(v, "unknown")
    assert v.note == "units of the base are only window-known"
    assert len(scanned) == 1


def test_compatible_exists_returns_lex_certificate():
    v = compatible_exists(trivial_shape(), SMALL_BUDGET)
    assert v.witness is not None
    assert_state(v.witness.contains((-5, 1)), "yes")


def test_is_compatible_product_on_trivial():
    shape = trivial_shape()
    assert_state(is_compatible(product_cone(shape), shape, SMALL_BUDGET), "yes")
    assert_state(definitional_compatible(product_cone(shape), shape, SMALL_BUDGET), "yes")


def test_is_compatible_lex_on_sign_extension_no_with_witness():
    shape = sign_bad_shape()
    for route in (is_compatible, definitional_compatible):
        v = route(lex_cone(shape), shape, SMALL_BUDGET)
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
    v = definitional_compatible(FullCone(shape.carrier), shape, SMALL_BUDGET)
    assert_state(v, "no")


def test_modes_never_contradict_on_catalog_cones():
    for shape in (trivial_shape(), scaling_shape(), sign_strong_shape()):
        for cone in (product_cone(shape), lex_cone(shape)):
            a = is_compatible(cone, shape, SMALL_BUDGET)
            b = definitional_compatible(cone, shape, SMALL_BUDGET)
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
    assert_state(mc.contains((1, 1), SMALL_BUDGET), "no")  # the fibre over 1 is 2Z
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


def test_normalize_refuses_structure_maps_that_are_not_homomorphisms():
    # Generators decide f s = id only between homomorphisms, so each finite
    # structure map is checked first: here the section sends 1 to the
    # reflection t, and 0 to t as well.
    S3 = symmetric_cayley(3)
    Z2, Z3 = CyclicGroup(2), CyclicGroup(3)
    k = next(h for h in enumerate_homomorphisms(Z3, S3) if len(set(h.mapping().values())) == 3)
    f = next(h for h in enumerate_homomorphisms(S3, Z2) if set(h.mapping().values()) == {0, 1})
    t = next(a for a in S3.elements() if f.apply(a) == 1)
    bad_s = TableHom.from_dict(Z2, S3, {0: t, 1: t})
    with pytest.raises(StructureError, match="section map is not a homomorphism"):
        normalize(S3, f, bad_s, k)


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


def test_a_finite_base_over_an_infinite_kernel_records_the_window():
    # Z_2 is scanned whole, but condition 2 scans only Z's window: the clean
    # Yes is window-verified on the carrier Z x| Z_2, with its window.
    Z_2 = CyclicGroup(2)
    fibers = ExplicitFibers(((0, frozenset({0})), (1, frozenset({0}))))
    fam = FamilyCone(ExtensionShape(Z0, FullCone(Z_2), TrivialAction(Z_2, Z)), fibers)
    v = validate_family(fam, SMALL_BUDGET).conditions
    assert (v.state.value, v.note, v.budget_used) == ("yes", "window-verified", (("window", 3),))


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
        FullCone(Z3), FullCone(Z2), inv
    )
    rep = enumerate_compatible_cones(ok_shape, ExhaustiveFinite())
    assert rep.count == 1
    assert rep.meets_closed and rep.joins_closed_in_window
    bad_shape = ExtensionShape(
        TrivialCone(Z3), FullCone(Z2), inv
    )
    rep2 = enumerate_compatible_cones(bad_shape, ExhaustiveFinite())
    assert rep2.count == 0
    assert_state(compatible_exists(bad_shape, SMALL_BUDGET), "no")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_finite_carrier_has_the_componentwise_set_as_its_only_candidate(seed):
    # No base element of a finite closed cone is strictly positive, so the
    # compatible interval holds the componentwise set or nothing.
    x_cone, b_cone, action = random_finite_extension(random.Random(seed))
    shape = ExtensionShape(x_cone, b_cone, action)
    oracle = oracle_all_compatible_cones(
        shape.carrier, x_cone.elements, b_cone.elements
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
        assert_state(is_compatible(cone, shape, small), "yes", str(cone))
        assert_state(definitional_compatible(cone, shape, small), "yes", str(cone))


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
    assert isinstance(minimal_cone(scaling_shape(), SMALL_BUDGET), FibreCone)


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


def _random_threshold_family(rng):
    values = [0, 1, 2, 3, 5, INF]
    seq = (0,) + tuple(rng.choice(values) for _ in range(rng.randint(1, 5)))
    return FamilyCone(trivial_shape(), UpSetFibers(seq))


def _random_finite_family(rng):
    # Trivially acted finite abelian shapes; each fibre is empty, the fibre
    # cone, or a random set, so conditions 1-2 pass or fail at random.
    X = rng.choice([CyclicGroup(2), CyclicGroup(3), klein_four()])
    B = rng.choice([CyclicGroup(2), CyclicGroup(3), CyclicGroup(4), klein_four()])
    nonzero = [g for g in X.elements() if g != X.zero()]
    px = oracle_cone_closure(X, rng.sample(nonzero, rng.randint(0, 1)))
    pb = oracle_cone_closure(B, rng.sample([g for g in B.elements() if g != B.zero()], 1))
    shape = ExtensionShape(
        ExtensionalCone(X, px),
        ExtensionalCone(B, pb),
        TrivialAction(B, X),
    )
    fibers = []
    for b in B.elements():
        kind = rng.choice(["cone", "cone", "random"]) if b in pb else rng.choice(["empty", "random"])
        if kind == "random":
            fibre = frozenset(x for x in X.elements() if rng.random() < 0.5)
        else:
            fibre = px if kind == "cone" else frozenset()
        fibers.append((b, fibre))
    return FamilyCone(shape, ExplicitFibers(tuple(fibers)))


def test_untwisted_families_match_the_window_loops(monkeypatch):
    # Under a trivial action over abelian groups, condition 4 and the orbit
    # remark hold on every sample; the verdicts, witnesses and notes of
    # conditions 1-3 are those of the brute-force loops.
    rng = random.Random(20)
    budget = SaturationBudget(2, 4, Window(4, 8, 4))
    seen = set()
    for make in [_random_threshold_family] * 40 + [_random_finite_family] * 40:
        fam = make(rng)
        B = fam.shape.b
        base_in = {b: B.contains(b) for b in B.group.window_elements(budget.window)}
        positives = [b for b, v in base_in.items() if v.is_yes]
        assert_state(oracle_family_conjugation(fam, base_in, positives, budget.window), "yes")
        assert_state(oracle_family_orbit_remark(fam, base_in, positives, budget.window), "yes")
        got = validate_family(fam, budget)
        with monkeypatch.context() as m:
            m.setattr(extensions, "_family_conjugation", oracle_family_conjugation)
            m.setattr(extensions, "_family_orbit_remark", oracle_family_orbit_remark)
            want = validate_family(fam, budget)
        assert got.conditions == want.conditions, fam
        assert_state(got.orbit_remark, "yes")
        seen.add((type(fam.sets).__name__, got.conditions.state.value, got.conditions.note))
    # Both fibre kinds pass and fail, and some family fails each of 1-3.
    assert {(kind, state) for kind, state, _ in seen} == {
        (kind, state) for kind in ("UpSetFibers", "ExplicitFibers") for state in ("yes", "no")
    }
    fails = {note for _, state, note in seen if state == "no"}
    assert all(any(f"(condition {i})" in note for note in fails) for i in (1, 2, 3))


def test_a_sign_acted_family_is_still_scanned():
    # Sign acts on (Z, N) by a non-monotone map, so the lexicographic fibres
    # pass conditions 1-3 and fail conjugation stability in the window.
    fam = FamilyCone(ExtensionShape(ZN, ZN, SignAction(Z, Z)), UpSetFibers((0, INF, INF, INF)))
    fv = validate_family(fam, SMALL_BUDGET)
    assert (fv.conditions.state.value, fv.conditions.witness, fv.conditions.note) == (
        "no", ((-3, -3), (1, 0)), "conjugation stability fails (condition 4)"
    )
    assert (fv.orbit_remark.state.value, fv.orbit_remark.witness, fv.orbit_remark.note) == (
        "no", (-3, 0, 1), "orbit image escapes the conjugate fibre"
    )
