"""Acceptance criteria, one test per criterion, each printing a PASS line.

Brute-force oracles (closed-set enumeration, full subset scans, inline
superadditive filters) are independent of the machinery they check: they use
only raw group arithmetic.
"""

import itertools
import random
from fractions import Fraction

from ordsplit.actions import MatrixAction, SignAction, TrivialAction
from ordsplit.catalog import SCENARIO_COUNT, builtin_catalog
from ordsplit.classifiers import (
    AutOrderCone,
    admissible_check,
    aut_cone,
    build_classifier,
    classify_into,
    monotone_aut,
    no_classifier_witness,
)
from ordsplit.cones import (
    ExtensionalCone,
    FullCone,
    OrthantCone,
    TrivialCone,
    check_cone_axioms,
    cones_equal,
)
from ordsplit.document import render_report_json, run
from ordsplit.extensions import (
    INF,
    ExhaustiveFinite,
    ExtensionShape,
    SuperadditiveWindow,
    compatible_exists,
    enumerate_compatible_cones,
    is_compatible,
    lex_cone,
    minimal_cone,
    point,
    product_cone,
)
from ordsplit.groups import FreeAbelian, RationalVector
from ordsplit.homs import IdentityHom, LinearHom, PairHom, ProjectionHom, SectionHom
from ordsplit.points import (
    PointMorphism,
    hom_leq,
    is_rali,
    is_strong,
    pullback,
    ssfl_check,
)
from ordsplit.verdict import Window

from helpers import (
    SMALL_BUDGET,
    assert_state,
    compose,
    definitional_compatible,
    oracle_all_compatible_cones,
    oracle_is_compatible_set,
    random_finite_extension,
)

Z = FreeAbelian(1)
Q = RationalVector(1)
ZN = OrthantCone(Z)
Z0 = TrivialCone(Z)
QP = OrthantCone(Q)

CORPUS_SEED = 20260809
CORPUS_SIZE = 22


def _corpus():
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        out.append(random_finite_extension(rng))
    return out


def _positive_set(cone):
    return frozenset(x for x in cone.group.elements() if cone.contains(x).is_yes)


def sign_strong_point():
    return point(ExtensionShape(Z0, ZN, SignAction(Z, Z)), "minimal")


def scaling_point():
    return point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), "minimal")


def test_acceptance_1_interval_oracle_equivalence():
    """Definitional brute force equals the interval description exactly."""
    checked = 0
    for x_cone, b_cone, action in _corpus():
        shape = ExtensionShape(x_cone, b_cone, action)
        carrier = shape.carrier
        px, pb = _positive_set(x_cone), _positive_set(b_cone)
        oracle = oracle_all_compatible_cones(carrier, px, pb)
        # Implementation side: subsets between the componentwise and lex cones
        # that satisfy the cone axioms.
        prod, lex = product_cone(shape), lex_cone(shape)
        els = carrier.elements()
        floor = frozenset(e for e in els if prod.contains(e).is_yes)
        ceil = frozenset(e for e in els if lex.contains(e).is_yes)
        interval_cones = set()
        if floor <= ceil:
            extra = sorted(ceil - floor, key=repr)
            assert len(extra) <= 16, "finite interval should be thin"
            for bits in itertools.product((False, True), repeat=len(extra)):
                chosen = frozenset(e for e, keep in zip(extra, bits) if keep)
                cand = floor | chosen
                if check_cone_axioms(ExtensionalCone(carrier, cand)).is_yes:
                    interval_cones.add(cand)
        assert oracle == interval_cones, f"mismatch on {shape}"
        # both library routes accept every compatible cone
        for S in oracle:
            cone = ExtensionalCone(carrier, S)
            assert_state(is_compatible(cone, shape, SMALL_BUDGET), "yes", str(shape))
            assert_state(definitional_compatible(cone, shape, SMALL_BUDGET), "yes", str(shape))
        # the packaged enumerator agrees as well
        rep = enumerate_compatible_cones(shape, ExhaustiveFinite())
        assert {c.elements for c in rep.cones} == oracle
        # literal all-subsets scan on very small carriers validates the oracle
        if carrier.order() <= 10:
            scan = set()
            for bits in itertools.product((False, True), repeat=carrier.order()):
                S = frozenset(e for e, keep in zip(els, bits) if keep)
                if oracle_is_compatible_set(carrier, S, px, pb):
                    scan.add(S)
            assert scan == oracle
        checked += 1
    assert checked >= 20
    print(f"\nACCEPTANCE 1: PASS - interval = definitional on {checked} random finite extensions")


def test_acceptance_2_lexicographic_equivalence():
    """Existence, lex compatibility, and nonempty enumeration coincide."""
    mismatches = []
    for x_cone, b_cone, action in _corpus():
        shape = ExtensionShape(x_cone, b_cone, action)
        exists = compatible_exists(shape, SMALL_BUDGET)
        lex_ok = is_compatible(lex_cone(shape), shape, SMALL_BUDGET)
        lex_def = definitional_compatible(lex_cone(shape), shape, SMALL_BUDGET)
        count = enumerate_compatible_cones(shape, ExhaustiveFinite()).count
        states = (exists.is_yes, lex_ok.is_yes, lex_def.is_yes, count > 0)
        if len(set(states)) != 1:
            mismatches.append((shape, exists, lex_ok, lex_def, count))
    assert not mismatches, mismatches
    # symbolic catalog instances
    sign_bad = ExtensionShape(ZN, FullCone(Z), SignAction(Z, Z))
    v = compatible_exists(sign_bad, SMALL_BUDGET)
    assert v.is_no and "monotone" in v.note
    assert is_compatible(lex_cone(sign_bad), sign_bad, SMALL_BUDGET).is_no
    assert definitional_compatible(lex_cone(sign_bad), sign_bad, SMALL_BUDGET).is_no
    for shape in (
        ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))),
        ExtensionShape(ZN, ZN, TrivialAction(Z, Z)),
        ExtensionShape(Z0, ZN, SignAction(Z, Z)),
    ):
        assert compatible_exists(shape, SMALL_BUDGET).is_yes
        assert is_compatible(lex_cone(shape), shape, SMALL_BUDGET).is_yes
        assert definitional_compatible(lex_cone(shape), shape, SMALL_BUDGET).is_yes
    print(f"\nACCEPTANCE 2: PASS - three-way equivalence on {CORPUS_SIZE} finite + 4 symbolic instances")


def test_acceptance_3_lattice_meets_and_growth():
    """Meet closure inside the superadditive window, with pinned counts."""

    def brute_count(length, maxv):
        # independent filter, no package calls
        values = list(range(maxv + 1)) + [INF]
        seqs = []
        for seq in itertools.product(values, repeat=length):
            x = (0,) + seq
            if all(
                x[i + j] >= x[i] + x[j]
                for i in range(1, length + 1)
                for j in range(1, length + 1 - i)
            ):
                seqs.append(seq)
        return seqs

    pinned_2_2, pinned_3_4 = 8, 33
    brute_2_2, brute_3_4 = brute_count(2, 2), brute_count(3, 4)
    assert len(brute_2_2) == pinned_2_2
    assert len(brute_3_4) == pinned_3_4
    shape = ExtensionShape(ZN, ZN, TrivialAction(Z, Z))
    rep = enumerate_compatible_cones(shape, SuperadditiveWindow(3, 4))
    assert rep.count == pinned_3_4
    assert rep.compatible.is_yes
    rep_small = enumerate_compatible_cones(shape, SuperadditiveWindow(2, 2))
    assert rep_small.count == pinned_2_2
    assert rep.count > rep_small.count
    # meet closure, independently: pointwise min stays in the brute set
    pool = set(brute_3_4)
    for a in pool:
        for b in pool:
            assert tuple(min(x, y) for x, y in zip(a, b)) in pool
    assert rep.meets_closed
    print("\nACCEPTANCE 3: PASS - meets closed; counts 8 @ (2,2) and 33 @ (3,4), growth strict")


def _catalog_points():
    doc = builtin_catalog()
    return sorted(doc.points.items())


def test_acceptance_4_rali_two_routes_agree():
    """Cone equality and the adjointness inequalities give the same verdicts."""
    disagreements = []
    for name, pt in _catalog_points():
        by_cone = cones_equal(pt.cone, product_cone(pt), SMALL_BUDGET)
        sf = compose(SectionHom(pt.carrier), ProjectionHom(pt.carrier))
        by_adjoint = hom_leq(sf, IdentityHom(pt.carrier), pt.cone, pt.cone, SMALL_BUDGET)
        if (by_cone.is_yes and by_adjoint.is_no) or (by_cone.is_no and by_adjoint.is_yes):
            disagreements.append((name, by_cone, by_adjoint))
        # the packaged op answers by the cone route alone, without raising
        is_rali(pt, SMALL_BUDGET)
    assert not disagreements, disagreements
    print(f"\nACCEPTANCE 4: PASS - rali routes agree on {len(_catalog_points())} catalog points")


def test_acceptance_5_pullback_instability():
    """Strong upstairs, not strong after base change along doubling."""
    pt = sign_strong_point()
    assert is_strong(pt, SMALL_BUDGET).is_yes
    carrier = pt.carrier
    # expand the displayed sum to certify the upstairs witness
    total = carrier.zero()
    for step in ((-1, 0), (0, 1), (1, 0), (0, 1)):
        total = carrier.add(total, step)
    assert total == (-2, 2)
    assert pt.cone.contains((-2, 2), SMALL_BUDGET).is_yes
    pb = pullback(pt, LinearHom.scalar(Z, Z, Fraction(2)), ZN, SMALL_BUDGET)
    assert pb.cone.contains((-2, 1), SMALL_BUDGET).is_yes
    v = is_strong(pb, SMALL_BUDGET)
    assert v.is_no and v.witness == (-2, 1)
    mc = minimal_cone(pb, SMALL_BUDGET)
    assert mc.contains((-2, 1), SMALL_BUDGET).is_no
    # independent separating argument: every generator of the downstairs
    # componentwise cone has vanishing first coordinate, so every element of
    # the cone it generates does too (the carrier is untwisted here); -2 != 0.
    prod = product_cone(pb)
    for (x, a) in pb.carrier.window_elements(Window(4, 4, 2)):
        if prod.contains((x, a)).is_yes:
            assert x == 0
    assert pb.action.provably_trivial()
    print("\nACCEPTANCE 5: PASS - strong point loses strongness along n -> 2n, witness (-2, 1)")


def test_acceptance_6_scaling_point_stably_strong():
    """Every pullback along n -> c n stays strong; a conjugator certifies each fibre element."""
    pt = scaling_point()
    failures = []
    for c in range(-4, 5):
        base = ZN if c >= 0 else Z0
        g = LinearHom.scalar(Z, Z, Fraction(c))
        pb = pullback(pt, g, base, SMALL_BUDGET)
        v = is_strong(pb, SMALL_BUDGET)
        if not v.is_yes:
            failures.append((c, v))
        # certificate path: r = x/(1 - 2^{g(a)}) conjugates (0, a) to (x, a)
        for x in (Fraction(-1), Fraction(3, 2)):
            for a in (1, 2):
                if c * a == 0:
                    continue
                r = x / (1 - Fraction(2) ** (c * a))
                assert pb.carrier.conjugate((r, 0), (Fraction(0), a)) == (x, a)
    assert not failures, failures
    print("\nACCEPTANCE 6: PASS - scaling point strong after pullback for every |c| <= 4")


def _transport_instances():
    """Point plus commuting order-isomorphisms (a, c) of its kernel and base."""
    rng = random.Random(CORPUS_SEED + 1)
    out = []
    for q in (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(5, 2), Fraction(4, 3), Fraction(7)):
        out.append((scaling_point(), LinearHom.scalar(Q, Q, q), IdentityHom(Z)))
    for s in (Fraction(1), Fraction(-1)):
        out.append((sign_strong_point(), LinearHom.scalar(Z, Z, s), IdentityHom(Z)))
    out.append(
        (point(ExtensionShape(ZN, ZN, TrivialAction(Z, Z)), "minimal"),
         IdentityHom(Z), IdentityHom(Z))
    )
    doc = builtin_catalog()
    k4_pt = doc.points["rali_k4"]
    aut = monotone_aut(k4_pt.x)
    els = aut.elements()
    for _ in range(3):
        a = aut.realize(rng.choice(els))
        out.append((k4_pt, a, IdentityHom(k4_pt.b.group)))
    return out


def test_acceptance_7_ssfl():
    """The middle map of an iso-framed morphism of strong rows is an order iso."""
    instances = _transport_instances()
    assert len(instances) >= 10
    for pt, a, c in instances:
        m = PointMorphism(a, PairHom(pt.carrier, pt.carrier, a, c), c)
        v = ssfl_check(m, pt, pt, SMALL_BUDGET)
        assert v.is_yes, f"{a}, {c} on {pt}: {v}"
    src = point(ExtensionShape(ZN, ZN, TrivialAction(Z, Z)), "minimal")
    dst = point(ExtensionShape(ZN, ZN, TrivialAction(Z, Z)), "lex")
    m = PointMorphism(IdentityHom(Z), IdentityHom(src.carrier), IdentityHom(Z))
    v = ssfl_check(m, src, dst, SMALL_BUDGET)
    assert v.is_no
    print(f"\nACCEPTANCE 7: PASS - SSFL yes on {len(instances)} minimal-row instances, contrast no")


def test_acceptance_8_classifier_terminality():
    """Every catalog rali point maps uniquely and monotonely into its classifier."""
    doc = builtin_catalog()
    rali_names = ["rali_zz", "rali_qz", "rali_z3", "rali_k4"]
    for name in rali_names:
        pt = doc.points[name]
        assert is_rali(pt, SMALL_BUDGET).is_yes, name
        aut = monotone_aut(pt.x)
        cls = build_classifier(pt.x, aut_cone(aut, "tilde"), SMALL_BUDGET)
        rep = classify_into(pt, cls, SMALL_BUDGET)
        assert rep.base_monotone.is_yes, name
        assert rep.middle_monotone.is_yes, name
        assert rep.uniqueness.is_yes, name
    kernels = {doc.points[n].x.group for n in rali_names}
    assert len(kernels) == 4
    print("\nACCEPTANCE 8: PASS - tilde classifiers terminal for 4 rali kernels")


def test_acceptance_9_no_classifier_witness():
    """A plus-cone scaling moves points, while plus and minus stay admissible."""
    w = no_classifier_witness(QP, SMALL_BUDGET)
    assert w is not None
    alpha, moved = w
    assert isinstance(alpha, Fraction) and alpha >= 2
    aut = monotone_aut(QP)
    assert AutOrderCone(aut, "plus").contains(alpha).is_yes
    assert QP.sim(aut.realize(alpha).apply(moved), moved).is_no
    assert admissible_check(aut_cone(aut, "plus"), SMALL_BUDGET).is_yes
    assert admissible_check(aut_cone(aut, "minus"), SMALL_BUDGET).is_yes
    print(f"\nACCEPTANCE 9: PASS - witness scaling {alpha} moves {moved}; plus/minus admissible")


def test_acceptance_10_determinism_and_budget_monotonicity():
    """Byte-stable catalog reports; doubled budgets flip no definite verdict."""
    assert SCENARIO_COUNT >= 7
    r1 = run(builtin_catalog())
    r2 = run(builtin_catalog())
    assert render_report_json(r1) == render_report_json(r2)
    assert r1["errors"] == 0 and r1["mismatches"] == 0
    doubled = run(builtin_catalog(), doubled=True)
    for q1, q2 in zip(r1["queries"], doubled["queries"]):
        s1 = q1.get("verdict", {}).get("state")
        s2 = q2.get("verdict", {}).get("state")
        if s1 in ("yes", "no"):
            assert s1 == s2, f"{q1['id']} flipped {s1} -> {s2}"
    print("\nACCEPTANCE 10: PASS - byte-stable catalog, no verdict flips under doubled budgets")
