import itertools
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from ordsplit import cones, extensions, linalg, points
from ordsplit.actions import MatrixAction, PrecomposedAction, SignAction, TrivialAction
from ordsplit.cones import (
    Cone,
    FullCone,
    GeneratedCone,
    OrthantCone,
    ProductCone,
    TrivialCone,
    cone_subset,
    cones_equal,
)
from ordsplit.extensions import (
    ExtensionShape,
    compatible_exists,
    is_compatible,
    lex_cone,
    minimal_cone,
    point,
    product_cone,
)
from ordsplit.groups import (
    CyclicGroup,
    FreeAbelian,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
)
from ordsplit.homs import (
    IdentityHom,
    LinearHom,
    PairHom,
    ProjectionHom,
    SectionHom,
    TableHom,
    check_homomorphism,
)
from ordsplit.points import (
    PointMorphism,
    PullbackCone,
    check_point_morphism,
    default_base_catalog,
    equivariance_failure,
    hom_leq,
    is_rali,
    is_strong,
    order_iso_check,
    pullback,
    ssfl_check,
    stably_strong_over,
)
from ordsplit.verdict import SaturationBudget, Window, for_all_members, no, unknown, vand, yes

from helpers import (
    SMALL_BUDGET,
    ComposedHom,
    assert_state,
    classify_point,
    compose,
    definitional_compatible,
    point_product,
    random_finite_extension,
)

Z = FreeAbelian(1)
Q = RationalVector(1)
ZN = OrthantCone(Z)
Z0 = TrivialCone(Z)
QP = OrthantCone(Q)


def trivial_point(cone="product"):
    return point(ExtensionShape(ZN, ZN, TrivialAction(Z, Z)), cone)


def sign_point():
    return point(ExtensionShape(Z0, ZN, SignAction(Z, Z)), "minimal")


def scaling_point():
    return point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), "minimal")


def swap_point():
    """Z^2 under the swap, with N^2: a least cone the fibre route leaves to
    the conjugator and saturation, as its kernel cone is neither {0} nor on Q^k."""
    Z2 = FreeAbelian(2)
    swap = MatrixAction(Z, Z2, (((0, 1), (1, 0)),))
    return point(ExtensionShape(OrthantCone(Z2), ZN, swap), "minimal")


def test_hom_leq_examples():
    g, h = IdentityHom(Z), LinearHom.scalar(Z, Z, Fraction(2))
    assert_state(hom_leq(g, g, ZN, ZN, SMALL_BUDGET), "yes")
    assert_state(hom_leq(g, h, ZN, ZN, SMALL_BUDGET), "yes")
    v = hom_leq(h, g, ZN, ZN, SMALL_BUDGET)
    assert_state(v, "no")
    assert v.witness == 1


def test_is_rali_product_point():
    assert_state(is_rali(trivial_point(), SMALL_BUDGET), "yes")


def test_is_rali_rejects_lex_with_strict_positives():
    v = is_rali(trivial_point("lex"), SMALL_BUDGET)
    assert_state(v, "no")
    x, b = v.witness
    assert x < 0  # a negative fibre over a strictly positive base element


def test_is_rali_scaling_minimal_no():
    v = is_rali(scaling_point(), SMALL_BUDGET)
    assert_state(v, "no")


def test_is_strong_examples():
    assert_state(is_strong(sign_point(), SMALL_BUDGET), "yes")
    assert_state(is_strong(trivial_point(), SMALL_BUDGET), "yes")
    v = is_strong(trivial_point("lex"), SMALL_BUDGET)
    assert_state(v, "no")
    assert_state(is_strong(scaling_point(), SMALL_BUDGET), "yes")


def test_rali_implies_strong_on_catalog():
    for pt in (trivial_point(), sign_point(), scaling_point(), trivial_point("lex")):
        r, s = is_rali(pt, SMALL_BUDGET), is_strong(pt, SMALL_BUDGET)
        if r.is_yes:
            assert s.is_yes


def _contradict(a, b):
    return (a.is_yes and b.is_no) or (a.is_no and b.is_yes)


def test_routes_never_contradict_on_random_finite_extensions():
    # Each query answers by one route; the paper's other route is compared
    # here.  On a finite carrier the componentwise cone is the only
    # compatible one, so the rali routes see only rali points; the catalog
    # points of acceptance 4 cover the `no` side.
    rng = random.Random(20261018)
    compat_states = set()
    for _ in range(25):
        shape = ExtensionShape(*random_finite_extension(rng, max_carrier=32))
        candidates = [product_cone(shape), lex_cone(shape)]
        if compatible_exists(shape, SMALL_BUDGET).is_yes:
            candidates.append(minimal_cone(shape, SMALL_BUDGET))
        for P in candidates:
            interval = is_compatible(P, shape, SMALL_BUDGET)
            definitional = definitional_compatible(P, shape, SMALL_BUDGET)
            assert not _contradict(interval, definitional), (shape, P)
            compat_states |= {interval.state, definitional.state}
            if not interval.is_yes:
                continue
            pt = point(shape, P)
            by_cone = is_rali(pt, SMALL_BUDGET)
            sf = compose(SectionHom(pt.carrier), ProjectionHom(pt.carrier))
            by_adjoint = hom_leq(sf, IdentityHom(pt.carrier), pt.cone, pt.cone, SMALL_BUDGET)
            assert not _contradict(by_cone, by_adjoint), (shape, P)
            if by_cone.is_yes:
                assert_state(is_strong(pt, SMALL_BUDGET), "yes", str(shape))
    assert {s.value for s in compat_states} == {"yes", "no"}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_each_query_computes_only_its_own_route(monkeypatch):
    leq_calls = _count_calls(monkeypatch, points, "hom_leq")
    for pt in (trivial_point(), trivial_point("lex"), sign_point(), scaling_point()):
        is_rali(pt, SMALL_BUDGET)
    assert leq_calls == []
    monotone_calls = _count_calls(monkeypatch, extensions, "is_monotone")
    subset_calls = _count_calls(monkeypatch, extensions, "cone_subset")
    pt = trivial_point("lex")
    assert_state(is_compatible(pt.cone, pt, SMALL_BUDGET), "yes")
    assert (len(monotone_calls), len(subset_calls)) == (0, 2)


def test_pullback_along_identity_preserves_membership():
    pt = trivial_point()
    pb = pullback(pt, LinearHom.scalar(Z, Z, Fraction(1)), ZN, SMALL_BUDGET)
    for el in pt.carrier.window_elements(Window(3, 3, 1)):
        assert pb.cone.contains(el, SMALL_BUDGET).state == pt.cone.contains(el, SMALL_BUDGET).state
    assert_state(is_rali(pb, SMALL_BUDGET), "yes")


def test_pullback_along_identity_preserves_classification():
    for pt in (sign_point(), trivial_point()):
        pb = pullback(pt, LinearHom.scalar(Z, Z, Fraction(1)), pt.b, SMALL_BUDGET)
        assert is_rali(pb, SMALL_BUDGET).state == is_rali(pt, SMALL_BUDGET).state
        assert is_strong(pb, SMALL_BUDGET).state == is_strong(pt, SMALL_BUDGET).state
        cat = default_base_catalog(pt.b)
        a = stably_strong_over(pt, cat, SMALL_BUDGET).aggregate.state
        b = stably_strong_over(pb, cat, SMALL_BUDGET).aggregate.state
        assert a == b


def test_rali_point_stably_strong_over_catalog():
    rep = stably_strong_over(trivial_point(), default_base_catalog(ZN), SMALL_BUDGET)
    assert rep.aggregate.is_yes


def test_pullback_requires_monotone_map():
    with pytest.raises(StructureError):
        pullback(trivial_point(), LinearHom.scalar(Z, Z, Fraction(-1)), ZN, SMALL_BUDGET)


def test_sign_pullback_witness_expansion():
    """The displayed sum (-1,0)+(0,1)+(1,0)+(0,1) lands on (-2,2) upstairs, so
    (-2,1) is positive downstairs while it escapes the minimal cone there."""
    pt = sign_point()
    carrier = pt.carrier
    total = carrier.zero()
    for step in ((-1, 0), (0, 1), (1, 0), (0, 1)):
        total = carrier.add(total, step)
    assert total == (-2, 2)
    assert_state(pt.cone.contains((-2, 2), SMALL_BUDGET), "yes")
    pb = pullback(pt, LinearHom.scalar(Z, Z, Fraction(2)), ZN, SMALL_BUDGET)
    assert_state(pb.cone.contains((-2, 1), SMALL_BUDGET), "yes")
    v = is_strong(pb, SMALL_BUDGET)
    assert_state(v, "no")
    assert v.witness == (-2, 1)
    # the downstairs minimal cone rejects it outright
    mc = minimal_cone(pb, SMALL_BUDGET)
    assert_state(mc.contains((-2, 1), SMALL_BUDGET), "no")


def test_scaling_pullbacks_all_strong():
    pt = scaling_point()
    for base, g in default_base_catalog(ZN):
        pb = pullback(pt, g, base, SMALL_BUDGET)
        assert_state(is_strong(pb, SMALL_BUDGET), "yes", f"pullback along {g}")


def test_stably_strong_reports():
    cat = default_base_catalog(ZN)
    rep = stably_strong_over(scaling_point(), cat, SMALL_BUDGET)
    assert rep.aggregate.is_yes
    assert "catalog" in rep.note
    assert len(rep.entries) == len(cat)
    rep2 = stably_strong_over(sign_point(), cat, SMALL_BUDGET)
    assert rep2.aggregate.is_no


def test_default_catalog_covers_scalars_up_to_four():
    cat = default_base_catalog(ZN)
    factors = sorted(int(m[0][0]) for _, g in cat if (m := g.as_matrix()) is not None)
    assert factors == list(range(-4, 5))


def test_point_product_of_ralis_is_rali():
    pp = point_product(trivial_point(), trivial_point())
    assert_state(is_rali(pp, SMALL_BUDGET), "yes")


def test_point_product_of_scaling_points_strong_on_window():
    pp = point_product(scaling_point(), scaling_point())
    small = SaturationBudget(2, 4, Window(2, 3, 2))
    mc = minimal_cone(pp, small)
    for el in pp.carrier.window_elements(Window(1, 2, 2)):
        vp = pp.cone.contains(el, small)
        vm = mc.contains(el, small)
        assert not (vp.is_yes and vm.is_no)
        assert not (vp.is_no and vm.is_yes)


def test_point_product_with_terminal_point():
    one = CyclicGroup(1)
    terminal = point(
        ExtensionShape(
            FullCone(one), ZN,
            TrivialAction(Z, one),
        ),
        "product",
    )
    pp = point_product(trivial_point(), terminal)
    # membership mirrors the original point on the window
    pt = trivial_point()
    for (x, b) in pt.carrier.window_elements(Window(2, 2, 1)):
        el = ((x, 0), (b, 0))
        assert pp.cone.contains(el, SMALL_BUDGET).state == pt.cone.contains((x, b), SMALL_BUDGET).state


def test_check_point_morphism_identity():
    pt = sign_point()
    m = PointMorphism(IdentityHom(Z), IdentityHom(pt.carrier), IdentityHom(Z))
    assert_state(check_point_morphism(m, pt, pt, SMALL_BUDGET), "yes")


def test_check_point_morphism_catches_broken_square():
    pt = trivial_point()
    # c doubles but b is the identity: the section square fails.
    m = PointMorphism(IdentityHom(Z), IdentityHom(pt.carrier), LinearHom.scalar(Z, Z, Fraction(2)))
    v = check_point_morphism(m, pt, pt, SMALL_BUDGET)
    assert_state(v, "no")
    assert (v.witness, v.note) == (1, "section square does not commute")


def test_check_point_morphism_catches_broken_kernel_and_section_squares():
    # On Z_2 x Z_2, (x, b) -> (x, b + x) moves the kernel off its axis (the
    # first square checked), and (x, b) -> (x + b, b) breaks only the section.
    Z2 = CyclicGroup(2)
    full = FullCone(Z2)
    pt = point(ExtensionShape(full, full, TrivialAction(Z2, Z2)), "product")
    ident = IdentityHom(Z2)
    els = pt.carrier.elements()
    for image, note in (
        (lambda x, b: (x, (b + x) % 2), "kernel square does not commute"),
        (lambda x, b: ((x + b) % 2, b), "section square does not commute"),
    ):
        mid = TableHom.from_dict(pt.carrier, pt.carrier, {(x, b): image(x, b) for x, b in els})
        assert_state(check_homomorphism(mid), "yes")
        v = check_point_morphism(PointMorphism(ident, mid, ident), pt, pt, SMALL_BUDGET)
        assert_state(v, "no")
        assert (v.witness, v.note) == (1, note)


def test_check_point_morphism_needs_a_middle_map_known_to_be_additive():
    # The squares hold on generators, but a middle map that is neither a pair
    # map nor additive by construction, on an infinite carrier, leaves the
    # projection square open: Unknown, with no window scan.
    pt = trivial_point()
    mid = ComposedHom(IdentityHom(pt.carrier), PairHom(pt.carrier, pt.carrier, IdentityHom(Z), IdentityHom(Z)))
    v = check_point_morphism(PointMorphism(IdentityHom(Z), mid, IdentityHom(Z)), pt, pt, SMALL_BUDGET)
    assert_state(v, "unknown")
    assert v.note == "middle map not known to be additive"


def test_ssfl_identity_on_minimal_rows():
    pt = sign_point()
    m = PointMorphism(IdentityHom(Z), IdentityHom(pt.carrier), IdentityHom(Z))
    assert_state(ssfl_check(m, pt, pt, SMALL_BUDGET), "yes")


def test_ssfl_contrast_lex_vs_minimal():
    src = trivial_point("minimal")
    dst = trivial_point("lex")
    m = PointMorphism(IdentityHom(Z), IdentityHom(src.carrier), IdentityHom(Z))
    assert_state(check_point_morphism(m, src, dst, SMALL_BUDGET), "yes")
    v = ssfl_check(m, src, dst, SMALL_BUDGET)
    assert_state(v, "no")


def test_ssfl_requires_iso_components():
    src = trivial_point("minimal")
    m = PointMorphism(LinearHom.scalar(Z, Z, Fraction(2)),
                      PairHom(src.carrier, src.carrier, LinearHom.scalar(Z, Z, Fraction(2)), IdentityHom(Z)),
                      IdentityHom(Z))
    with pytest.raises(StructureError):
        ssfl_check(m, src, src, SMALL_BUDGET)


def test_ssfl_refuses_a_middle_map_that_is_not_a_homomorphism():
    # id x id from the trivially acted Z x Z onto the sign-acted one squares
    # with every structure map, but is not additive: phi_1(1) = 1 goes to 1,
    # while phi'_1(1) = -1.
    src = point(ExtensionShape(Z0, ZN, TrivialAction(Z, Z)), "product")
    dst = point(ExtensionShape(Z0, ZN, SignAction(Z, Z)), "product")
    ident = IdentityHom(Z)
    mid = PairHom(src.carrier, dst.carrier, ident, ident)
    assert_state(check_homomorphism(mid), "no")
    assert equivariance_failure(ident, ident, src, dst) == (1, 1)
    assert equivariance_failure(ident, ident, dst, dst) is None
    m = PointMorphism(ident, mid, ident)
    v = check_point_morphism(m, src, dst, SMALL_BUDGET)
    assert_state(v, "no")
    assert v.witness == (1, 1)
    with pytest.raises(StructureError, match="not a point morphism"):
        ssfl_check(m, src, dst, SMALL_BUDGET)


def test_order_iso_check_scaling():
    h = LinearHom.scalar(Q, Q, Fraction(2))
    assert_state(order_iso_check(h, QP, QP, SMALL_BUDGET), "yes")
    assert_state(order_iso_check(LinearHom.scalar(Z, Z, Fraction(2)), ZN, ZN, SMALL_BUDGET), "no")


def test_classify_point_bundle():
    rep = classify_point(scaling_point(), budget=SMALL_BUDGET)
    assert rep.rali.is_no
    assert rep.strong.is_yes
    assert rep.stably_strong.aggregate.is_yes


def test_pullback_of_rali_is_rali_along_catalog():
    pt = trivial_point()
    for base, g in default_base_catalog(ZN):
        pb = pullback(pt, g, base, SMALL_BUDGET)
        assert_state(is_rali(pb, SMALL_BUDGET), "yes", f"along {g}")
        # pullback cone of a rali point is the product cone on the window
        prod = product_cone(pb)
        for el in pb.carrier.window_elements(Window(2, 2, 1)):
            assert pb.cone.contains(el, SMALL_BUDGET).state == prod.contains(el, SMALL_BUDGET).state

# --- cone equality in one scan ---------------------------------------------------

# At one summand and one conjugator the minimal cones leave memberships unknown.
TINY_BUDGET = SaturationBudget(1, 1, Window(2, 4, 2))


def _two_scans(P, Q, budget):
    """The reference cones_equal must reproduce: both inclusions, then vand."""
    return vand(cone_subset(P, Q, budget), cone_subset(Q, P, budget))


def _equality_cases():
    """(P, Q, budget) with P != Q: finite shapes, the Z-based points, two half-axes."""
    rng = random.Random(20261019)
    for _ in range(12):
        shape = ExtensionShape(*random_finite_extension(rng, max_carrier=32))
        candidates = [product_cone(shape), lex_cone(shape)]
        if compatible_exists(shape, SMALL_BUDGET).is_yes:
            candidates.append(minimal_cone(shape, SMALL_BUDGET))
        for first, second in itertools.permutations(candidates, 2):
            if first != second:
                yield first, second, SMALL_BUDGET
    for budget in (SMALL_BUDGET, TINY_BUDGET):
        pts = [sign_point(), scaling_point(), trivial_point("lex")]
        pts += [
            pullback(pt, LinearHom.scalar(Z, Z, Fraction(c)), ZN, budget)
            for pt in (sign_point(), scaling_point())
            for c in (1, 2, 3)
        ]
        for pt in pts:
            candidates = [pt.cone, minimal_cone(pt, budget), product_cone(pt), lex_cone(pt)]
            for first, second in itertools.permutations(candidates, 2):
                if first != second:
                    yield first, second, budget
    # The swap point's least cone leaves memberships unknown at the tiny budget.
    pt = swap_point()
    for first, second in itertools.permutations([pt.cone, product_cone(pt), lex_cone(pt)], 2):
        yield first, second, TINY_BUDGET
    # Two half-axes: neither holds the other, so both inclusions fail.
    carrier = scaling_point().carrier
    axes = [
        ProductCone(carrier, OrthantCone(Q), TrivialCone(Z)),
        ProductCone(carrier, TrivialCone(Q), OrthantCone(Z)),
    ]
    yield axes[0], axes[1], SMALL_BUDGET
    yield axes[1], axes[0], SMALL_BUDGET


def test_cones_equal_matches_both_subset_scans():
    states = Counter()
    for P, Q, budget in _equality_cases():
        got, want = cones_equal(P, Q, budget), _two_scans(P, Q, budget)
        assert (got.state, got.witness, got.note) == (want.state, want.witness, want.note), (P, Q)
        states[got.state.value] += 1
    assert set(states) == {"yes", "no", "unknown"}
    cone = scaling_point().cone
    assert cones_equal(cone, cone, SMALL_BUDGET) == cone_subset(cone, cone, SMALL_BUDGET)


def _reference_subset(P, Q, budget):
    """cone_subset as a generator shortcut, then a plain for_all_members scan."""
    v = cones._on_generators_of(P, Q, budget)
    if v is not None:
        return v
    G = P.group
    return for_all_members(
        G.window_elements(budget.window),
        lambda x: P.contains(x, budget),
        lambda x: Q.contains(x, budget),
        "element of the first cone only", "subset check hit undecided memberships",
        yes("exhaustive" if G.is_finite else "window-verified"),
    )


def test_cone_subset_keeps_its_notes_and_asking_order():
    for P, Q, budget in _equality_cases():
        one = Counted(P), Counted(Q)
        ref = Counted(P), Counted(Q)
        got, want = cone_subset(*one, budget), _reference_subset(*ref, budget)
        assert (got.state, got.witness, got.note) == (want.state, want.witness, want.note), (P, Q)
        assert (one[0].asked, one[1].asked) == (ref[0].asked, ref[1].asked), (P, Q)


def test_cones_equal_returns_the_lower_generator_no():
    # N's generator 1 escapes the trivial cone: no scan, and P is never asked.
    P, Q = Counted(OrthantCone(Z)), Counted(TrivialCone(Z))
    v = cones_equal(P, Q, SMALL_BUDGET)
    assert (v.state.value, v.witness, v.note) == ("no", 1, "generator escapes the larger cone")
    assert (P.asked, Q.asked) == ([], [1])


@dataclass(frozen=True)
class Counted(Cone):
    """A cone that records the elements it is asked about, through its
    public contains (inherited from Cone) or a caller's _contains."""

    base: Cone
    asked: list = field(default_factory=list, compare=False)

    @property
    def group(self):
        return self.base.group

    def _contains(self, x, budget):
        self.asked.append(x)
        return self.base._contains(x, budget)

    def finite_generators(self):
        return self.base.finite_generators()

    def known_cone(self):
        return self.base.known_cone()


def test_cones_equal_asks_no_more_than_the_two_scans():
    # An eager scan, asking both cones about every element, would ask more
    # whenever one inclusion fails early.
    fewer = 0
    for P, Q, budget in _equality_cases():
        one = Counted(P), Counted(Q)
        two = Counted(P), Counted(Q)
        cones_equal(*one, budget)
        _two_scans(*two, budget)
        assert len(one[0].asked) <= len(two[0].asked), (P, Q)
        assert len(one[1].asked) <= len(two[1].asked), (P, Q)
        fewer += len(one[0].asked) + len(one[1].asked) < len(two[0].asked) + len(two[1].asked)
    assert fewer


def test_conjugator_system_is_built_once_per_base_element(monkeypatch):
    # On the swap point's pullback, whose memberships still take the
    # conjugator route: per base element and budget, along(c), the source
    # membership of (0, b) and the Hermite form of I - phi_b.  Per fibre
    # element: one integer solve against that form, and one conjugation
    # verifying each solution found.  A membership test of the element (0, b)
    # itself comes from _contains and is not the conjugator's.
    budget = SaturationBudget(1, 2, Window(1, 2, 1))
    g = LinearHom.scalar(Z, Z, Fraction(3))
    pb = pullback(swap_point(), g, ZN, budget)
    images, members, systems = Counter(), Counter(), Counter()
    solutions, checks, routes = [], [], Counter()

    def caller():
        return sys._getframe(2)

    hom_apply = LinearHom.apply

    def counting_apply(self, el):
        if self is g:
            images[el] += 1
        return hom_apply(self, el)

    in_source = GeneratedCone._in_source

    def counting_in_source(self, x, budget):
        if caller().f_code.co_name == "_conjugator_system":
            members[(id(self), x, budget)] += 1
        return in_source(self, x, budget)

    hermite = cones.hermite

    def counting_hermite(a, n):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_conjugator_system":
            local = frame.f_locals
            systems[(id(local["self"]), local["bp"], local["budget"])] += 1
        return hermite(a, n)

    integer_solve = cones.integer_solve

    def counting_integer_solve(system, target):
        r = integer_solve(system, target)
        if sys._getframe(1).f_code.co_name == "_solve_conjugator" and r is not None:
            solutions.append(target)
        return r

    conjugate = Semidirect._conjugate

    def counting_conjugate(self, a, x):
        if caller().f_code.co_name == "_solve_conjugator":
            checks.append(x)
        return conjugate(self, a, x)

    contains = GeneratedCone._contains

    def counting_contains(self, x, budget):
        v = contains(self, x, budget)
        routes[(v.note or "").startswith("conjugator")] += 1
        return v

    monkeypatch.setattr(LinearHom, "apply", counting_apply)
    monkeypatch.setattr(GeneratedCone, "_in_source", counting_in_source)
    monkeypatch.setattr(cones, "hermite", counting_hermite)
    monkeypatch.setattr(cones, "integer_solve", counting_integer_solve)
    monkeypatch.setattr(Semidirect, "_conjugate", counting_conjugate)
    monkeypatch.setattr(GeneratedCone, "_contains", counting_contains)
    assert not is_strong(pb, budget).is_no
    assert images and max(images.values()) == 1
    assert members and max(members.values()) == 1
    assert all(x[0] == (0, 0) for _, x, _ in members)
    assert systems and max(systems.values()) == 1
    assert routes[True] > len(systems)
    assert len(solutions) == len(checks) == routes[True]


def test_scaling_pullback_is_strong_without_solves_or_conjugations(monkeypatch):
    # Over (Z, N) with Q kernels, every membership is decided by the source,
    # the structural shortcuts or one fibre test per support and cone:
    # no conjugator solve and no conjugation at all.
    budget = SaturationBudget(2, 6, Window(3, 6, 3))
    pb = pullback(scaling_point(), LinearHom.scalar(Z, Z, Fraction(3)), ZN, budget)
    calls, fibres = Counter(), Counter()

    def counting(name, inner):
        def wrapped(*args):
            calls[name] += 1
            return inner(*args)

        return wrapped

    fibre_test = cones._fibre_test

    def counting_fibre_test(G, S, orthant):
        fibres[(id(sys._getframe(1).f_locals["self"]), S)] += 1
        return fibre_test(G, S, orthant)

    monkeypatch.setattr(linalg, "solve", counting("solve", linalg.solve))
    monkeypatch.setattr(cones, "solve", counting("solve", cones.solve))
    monkeypatch.setattr(Semidirect, "_conjugate", counting("conjugate", Semidirect._conjugate))
    monkeypatch.setattr(cones, "_fibre_test", counting_fibre_test)
    assert_state(is_strong(pb, budget), "yes")
    assert calls == Counter()
    # Two cones ask the fibre test: the pullback's least cone and the
    # scaling point's own cone read through the pullback.
    assert len({key[0] for key in fibres}) == 2
    assert set(fibres.values()) == {1}


def test_pullback_cone_reads_along_from_the_action_memo(monkeypatch):
    # PullbackCone.contains reads along(c) through the carrier's
    # PrecomposedAction, so along runs once per distinct base element,
    # counting the calls made from contains.
    budget = SaturationBudget(2, 6, Window(3, 6, 3))
    g = LinearHom.scalar(Z, Z, Fraction(3))
    pb = pullback(scaling_point(), g, ZN, budget)
    images = Counter()
    hom_apply = LinearHom.apply

    def counting_apply(self, el):
        if self is g:
            images[el] += 1
        return hom_apply(self, el)

    monkeypatch.setattr(LinearHom, "apply", counting_apply)
    assert_state(is_strong(pb, budget), "yes")
    assert images and max(images.values()) == 1


def test_pullback_cone_asks_its_base_cone_once_per_base_element(monkeypatch):
    # PullbackCone keeps each decided base verdict, with along(c), per c: a
    # window scan asks the base cone once per distinct base element.
    budget = SaturationBudget(2, 6, Window(3, 6, 3))
    pb = pullback(scaling_point(), LinearHom.scalar(Z, Z, Fraction(3)), ZN, budget)
    asked = Counter()
    orthant_contains = OrthantCone._contains

    def counting_contains(self, x, budget):
        if sys._getframe(1).f_locals.get("self") is pb.cone:
            asked[x] += 1
        return orthant_contains(self, x, budget)

    monkeypatch.setattr(OrthantCone, "_contains", counting_contains)
    assert_state(is_strong(pb, budget), "yes")
    assert set(asked) == set(Z.window_elements(budget.window))
    assert max(asked.values()) == 1


@dataclass(frozen=True)
class DecidedFromThreeSummands(Cone):
    """N on Z, undecided under budgets of fewer than three summands."""

    group = Z

    def _contains(self, x, budget):
        if budget.max_summands < 3:
            return unknown("undecided by the stub")
        return yes() if x >= 0 else no(x)


def test_pullback_cone_asks_an_undecided_base_element_again():
    # An unknown base verdict may depend on the budget, so it is not kept:
    # the same cone answers unknown, then yes under a larger budget.
    pt = scaling_point()
    shape = ExtensionShape(pt.x, ZN, PrecomposedAction(pt.action, LinearHom.scalar(Z, Z, Fraction(3))))
    cone = PullbackCone(shape.carrier, DecidedFromThreeSummands(), pt.cone)
    el = (Fraction(1), 1)
    assert_state(cone.contains(el, SaturationBudget(1, 2, Window(1, 1, 1))), "unknown")
    assert_state(cone.contains(el, SaturationBudget(1, 3, Window(1, 1, 1))), "yes")
    assert_state(cone.contains(el, SaturationBudget(1, 2, Window(1, 1, 1))), "yes")


def test_cones_on_different_carriers_are_refused():
    # Q x| Z under scaling by 2 and by 3 hold the same pairs, so only the
    # carrier comparison tells the two cones apart.
    by_2 = scaling_point()
    by_3 = point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(3))), "minimal")
    for compare in (cones_equal, cone_subset):
        with pytest.raises(ShapeError):
            compare(by_2.cone, by_3.cone, SMALL_BUDGET)
        with pytest.raises(ShapeError):
            compare(product_cone(by_2), OrthantCone(Q), SMALL_BUDGET)
