import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit.actions import SignAction, ScalingAction, TrivialAction
from ordsplit.cones import (
    ConeGenerators,
    ExplicitGenerators,
    ExtensionalCone,
    FullCone,
    GeneratedCone,
    IntersectionCone,
    LexCone,
    OrthantCone,
    PreorderedGroup,
    ProductCone,
    TrivialCone,
    check_cone_axioms,
    cone_subset,
    generated_cone,
    is_monotone,
    _finite_closure,
    units_subgroup,
)
from ordsplit.extensions import ExtensionShape, FamilyCone, UpSetFibers, minimal_cone, point
from ordsplit.groups import (
    CyclicGroup,
    FreeAbelian,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
)
from ordsplit.homs import IdentityHom, ScalarHom
from ordsplit.points import pullback
from ordsplit.verdict import SaturationBudget, Window

from helpers import (
    SMALL_BUDGET,
    assert_state,
    oracle_cone_closure,
    random_finite_extension,
    symmetric_cayley,
)

Z = FreeAbelian(1)
Q = RationalVector(1)
Z2V = FreeAbelian(2)
ZN = PreorderedGroup(Z, OrthantCone(Z))
ZF = PreorderedGroup(Z, FullCone(Z))
Z0 = PreorderedGroup(Z, TrivialCone(Z))
QP = PreorderedGroup(Q, OrthantCone(Q))


def test_orthant_membership():
    c = OrthantCone(Z2V)
    assert_state(c.contains((3, 0)), "yes")
    assert_state(c.contains((-1, 2)), "no")


def test_trivial_and_full():
    t = TrivialCone(Z)
    assert_state(t.contains(0), "yes")
    assert_state(t.contains(5), "no")
    assert_state(FullCone(Z).contains(-7), "yes")


def test_generated_cone_membership_and_certificate():
    g = generated_cone(Z2V, [(1, 0), (1, 1)])
    v = g.contains((3, 1), SMALL_BUDGET)
    assert_state(v, "yes")
    v = g.contains((1, 2), SMALL_BUDGET)
    assert_state(v, "no", "separating functional exists")
    assert "functional" in v.note


def test_generated_cone_empty_is_trivial():
    assert isinstance(generated_cone(Z2V, []), TrivialCone)


def test_generated_cone_finite_matches_oracle():
    S3 = symmetric_cayley(3)
    for seed in ([1], [2], [1, 4], [5]):
        got = generated_cone(S3, seed)
        expected = oracle_cone_closure(S3, seed)
        assert isinstance(got, ExtensionalCone)
        assert got.elements == expected


def test_generated_cone_refuses_a_finite_carrier():
    # generated_cone closes finite carriers exactly; GeneratedCone never sees one.
    Z4 = CyclicGroup(4)
    sd = Semidirect(Z4, Z4, TrivialAction(Z4, Z4))
    for G, source in (
        (Z4, ExplicitGenerators((1,))),
        (sd, ConeGenerators(ProductCone(sd, TrivialCone(Z4), FullCone(Z4)))),
    ):
        with pytest.raises(StructureError):
            GeneratedCone(G, source)
    assert generated_cone(Z4, [2]) == ExtensionalCone(Z4, frozenset({0, 2}))


def test_generated_cone_refuses_a_bad_generator_when_built():
    # Saturation adds and conjugates unchecked, so the generators are checked up front.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    for bad in ((0, True), (Fraction(1), 0), 3):
        with pytest.raises(ShapeError):
            GeneratedCone(sd, ExplicitGenerators(((0, 1), bad)))
    with pytest.raises(ShapeError):
        GeneratedCone(sd, ConeGenerators(OrthantCone(Z)))


def test_generated_cone_s3_transposition_is_everything():
    S3 = symmetric_cayley(3)
    from ordsplit.groups import element_order

    t = next(a for a in S3.elements() if element_order(S3, a) == 2)
    cone = generated_cone(S3, [t])
    assert len(cone.elements) == 6


def test_generated_cone_sign_carrier_conjugates():
    # Conjugating (0,1) by (y,0) reaches (2y,1): membership of (2,1) is a Yes.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    cone = GeneratedCone(
        sd,
        ConeGenerators(ProductCone(sd, TrivialCone(Z), OrthantCone(Z))),
        certified_compatible=True,
    )
    assert_state(cone.contains((2, 1), SMALL_BUDGET), "yes")
    v = cone.contains((1, 1), SMALL_BUDGET)
    assert v.is_unknown or v.is_no


def test_generated_cone_explicit_sign_generator():
    # On the sign carrier, conjugating (0,1) by (y,0) reaches (2y,1); odd
    # fibre parts are excluded by the residue obstruction.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    cone = generated_cone(sd, [(0, 1)])
    assert_state(cone.contains((2, 1), SMALL_BUDGET), "yes")
    assert_state(cone.contains((1, 1), SMALL_BUDGET), "no")
    assert sd.conjugate((1, 0), (0, 1)) == (2, 1)


def test_leq_basics():
    assert_state(ZN.leq(2, 5), "yes")
    assert_state(Z0.leq(0, 1), "no")
    assert_state(ZF.leq(7, -3), "yes")


def test_sim_and_strictly_positive():
    assert_state(ZF.sim(3, -5), "yes")
    assert_state(ZN.strictly_positive(1), "yes")
    assert_state(ZN.strictly_positive(0), "no")
    Z6 = CyclicGroup(6)
    evens = PreorderedGroup(Z6, ExtensionalCone(Z6, frozenset({0, 2, 4})))
    assert_state(evens.sim(2, 0), "yes")


def test_no_strictly_positive_on_finite_groups():
    # Finite positives are units, so nothing is strictly positive.
    Z6 = CyclicGroup(6)
    evens = PreorderedGroup(Z6, ExtensionalCone(Z6, frozenset({0, 2, 4})))
    for b in Z6.elements():
        assert not evens.strictly_positive(b).is_yes


def test_units_subgroup():
    assert units_subgroup(ZN).elements == frozenset({0})
    full = units_subgroup(ZF)
    assert full.exact and full.elements is None and full.generators == (1,)
    Z6 = CyclicGroup(6)
    evens = PreorderedGroup(Z6, ExtensionalCone(Z6, frozenset({0, 2, 4})))
    assert units_subgroup(evens).elements == frozenset({0, 2, 4})
    assert units_subgroup(QP).elements == frozenset({Fraction(0)})


def test_is_monotone_examples():
    assert_state(is_monotone(IdentityHom(Z), ZN, ZN), "yes")
    v = is_monotone(ScalarHom(Z, Z, Fraction(-1)), ZN, ZN)
    assert_state(v, "no")
    assert v.witness == 1
    assert_state(is_monotone(ScalarHom(Q, Q, Fraction(2)), QP, QP), "yes")


def test_is_monotone_generator_reduction_matches_bruteforce():
    S3 = symmetric_cayley(3)
    cone_elems = oracle_cone_closure(S3, [3])
    src = PreorderedGroup(S3, ExtensionalCone(S3, cone_elems))
    from ordsplit.homs import enumerate_automorphisms

    for h in enumerate_automorphisms(S3):
        got = is_monotone(h, src, src)
        brute = all(h.apply(x) in cone_elems for x in cone_elems)
        assert got.is_yes == brute


def test_cone_axioms_checker():
    assert_state(check_cone_axioms(OrthantCone(Z2V), SMALL_BUDGET), "yes")
    bad = ExtensionalCone(Z, frozenset({0, 1, 2}))  # not closed: 1+2=3 missing
    v = check_cone_axioms(bad, SMALL_BUDGET)
    assert_state(v, "no")


def test_cone_subset_and_intersection():
    nat = OrthantCone(Z)
    assert_state(cone_subset(TrivialCone(Z), nat, SMALL_BUDGET), "yes")
    assert_state(cone_subset(FullCone(Z), nat, SMALL_BUDGET), "no")
    both = IntersectionCone(Z, (nat, FullCone(Z)))
    assert_state(both.contains(3), "yes")
    assert_state(both.contains(-3), "no")


def test_cone_carrier_mismatch_raises():
    with pytest.raises(ShapeError):
        PreorderedGroup(Z, OrthantCone(Q))
    with pytest.raises(ShapeError):
        OrthantCone(Z).contains(Fraction(1, 2))


@settings(max_examples=50)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_leq_translation_invariance(x, y, g):
    if ZN.leq(x, y).is_yes:
        assert ZN.leq(g + x, g + y).is_yes
        assert ZN.leq(x + g, y + g).is_yes


@settings(max_examples=50)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_leq_transitive(x, y, z):
    if ZN.leq(x, y).is_yes and ZN.leq(y, z).is_yes:
        assert ZN.leq(x, z).is_yes


@settings(max_examples=30)
@given(st.integers(-5, 5))
def test_leq_reflexive(x):
    assert ZN.leq(x, x).is_yes


def test_minus_plus_membership_symmetric():
    # -x+y in P iff y-x in P (conjugation closure), on a nonabelian carrier.
    S3 = symmetric_cayley(3)
    cone = ExtensionalCone(S3, oracle_cone_closure(S3, [3]))
    for x in S3.elements():
        for y in S3.elements():
            left = cone.contains(S3.add(S3.neg(x), y)).is_yes
            right = cone.contains(S3.add(y, S3.neg(x))).is_yes
            assert left == right


def test_cone_yes_closed_under_window_ops():
    # The lex cone on the scaling carrier is a genuine cone; membership Yes
    # must be stable under window sums and conjugations.
    sd = Semidirect(Q, Z, ScalingAction(Z, Q, Fraction(2)))
    cone = LexCone(sd, QP, PreorderedGroup(Z, OrthantCone(Z)))
    w = Window(2, 2, 2)
    members = [x for x in sd.window_elements(w) if cone.contains(x).is_yes]
    assert_state(cone.contains(sd.zero()), "yes")
    for a in members[:20]:
        for b in members[:20]:
            s = sd.add(a, b)
            assert not cone.contains(s).is_no
    carrier_els = sd.window_elements(Window(1, 2, 2))
    for g in carrier_els:
        for a in members[:12]:
            assert not cone.contains(sd.conjugate(g, a)).is_no


def test_generated_cone_cache_safe_under_concurrent_queries():
    from concurrent.futures import ThreadPoolExecutor

    sd = Semidirect(Z, Z, SignAction(Z, Z))
    cone = GeneratedCone(
        sd,
        ConeGenerators(ProductCone(sd, TrivialCone(Z), OrthantCone(Z))),
        certified_compatible=True,
    )
    queries = [(2 * k, b) for k in range(-3, 4) for b in range(0, 4)]
    expected = {q: cone.contains(q, SMALL_BUDGET).state for q in queries}
    fresh = GeneratedCone(
        sd,
        ConeGenerators(ProductCone(sd, TrivialCone(Z), OrthantCone(Z))),
        certified_compatible=True,
    )
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda q: fresh.contains(q, SMALL_BUDGET).state, queries * 3))
    for q, state in zip(queries * 3, results):
        assert state == expected[q]


def test_generated_membership_budget_monotone():
    g = generated_cone(Z2V, [(2, 1), (0, 1)])
    small = SaturationBudget(1, 2, Window(2, 4, 2))
    big = SaturationBudget(2, 8, Window(4, 8, 4))
    for el in [(4, 2), (2, 3), (6, 4)]:
        v1 = g.contains(el, small)
        v2 = g.contains(el, big)
        if v1.is_yes:
            assert v2.is_yes
        if v1.is_no:
            assert v2.is_no


def test_public_contains_refuses_malformed_elements():
    # contains checks and _contains trusts: a composite cone hands its parts
    # components it never checks again, so its own contains must refuse.
    for bad in (True, Fraction(1)):
        with pytest.raises(ShapeError):
            OrthantCone(Z).contains(bad)
    shape = ExtensionShape(Z0, ZN, SignAction(Z, Z))
    sd = shape.carrier
    product = ProductCone(sd, TrivialCone(Z), OrthantCone(Z))
    composites = [
        product,
        pullback(point(shape, "minimal"), ScalarHom(Z, Z, Fraction(2)), ZN, SMALL_BUDGET).cone,
        minimal_cone(shape, SMALL_BUDGET),
        LexCone(sd, Z0, ZN),
        FamilyCone(shape, UpSetFibers((0, 1))),
        IntersectionCone(sd, (product, LexCone(sd, Z0, ZN))),
    ]
    assert [type(c).__name__ for c in composites] == [
        "ProductCone", "PullbackCone", "GeneratedCone", "LexCone", "FamilyCone", "IntersectionCone",
    ]
    for cone in composites:
        for bad in ((1,), (1, 0, 0), [0, 1], (True, 0), (0, Fraction(1))):
            with pytest.raises(ShapeError):
                cone.contains(bad, SMALL_BUDGET)


def test_composite_cones_refuse_parts_on_other_carriers():
    sd = Semidirect(Z, Z, TrivialAction(Z, Z))
    with pytest.raises(ShapeError):
        ProductCone(sd, OrthantCone(Q), OrthantCone(Z))
    with pytest.raises(ShapeError):
        LexCone(sd, ZN, QP)


def test_lex_membership_asks_each_base_sign_once(monkeypatch):
    # 0 <= b and b <= 0 are asked once each, whether or not b turns out
    # strictly positive; strictly_positive followed by sim asked each twice.
    # The fibre order is full, so every orthant query is a base query.
    # LexCone asks its parts' trusting _contains.
    calls = []
    orthant_contains = OrthantCone._contains

    def counting(self, x, budget):
        calls.append(x)
        return orthant_contains(self, x, budget)

    monkeypatch.setattr(OrthantCone, "_contains", counting)
    lex = LexCone(Semidirect(Z, Z, TrivialAction(Z, Z)), ZF, ZN)
    for el, state in [((1, 0), "yes"), ((-1, 0), "yes"), ((5, -1), "no"), ((-5, 1), "yes")]:
        calls.clear()
        assert_state(lex.contains(el, SMALL_BUDGET), state, str(el))
        assert len(calls) == 2, (el, calls)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_finite_closure_matches_the_fixpoint_oracle(seed, k):
    rng = random.Random(seed)
    x_pre, b_pre, action = random_finite_extension(rng)
    carrier = Semidirect(x_pre.group, b_pre.group, action)
    S = rng.sample(carrier.elements(), k)
    assert _finite_closure(carrier, S) == oracle_cone_closure(carrier, S)
