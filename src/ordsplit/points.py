"""Classification of points: rali, strong, stably strong; pullbacks; SSFL.

A point is rali exactly when its cone is the componentwise cone, and strong
exactly when its cone is the one generated from it.  Each query answers by
one route: `is_rali` by cone equality, not by the equivalent s∘f <= id of
`hom_leq`, which stays here so that the tests can compare the two.
Strongness is not stable under pullback, so "stably strong" is only ever
certified relative to an explicit catalog of base morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import PrecomposedAction, ProductAction
from .cones import (
    Cone,
    FullCone,
    PointProductCone,
    PreorderedGroup,
    ProductCone,
    TrivialCone,
    cones_equal,
    is_monotone,
)
from .extensions import ExtensionShape, SplitExtension, minimal_cone, point, product_cone
from .groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    Group,
    ShapeError,
    StructureError,
    format_element,
)
from .homs import (
    Homomorphism,
    KernelHom,
    ProjectionHom,
    ScalarHom,
    SectionHom,
    TableHom,
    invert,
)
from .linalg import determinant
from .verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    for_all_members,
    no,
    on_generators,
    unknown,
    vand,
    yes,
)


@dataclass(frozen=True)
class PointMorphism:
    """A triple (a, b, c) between split extensions, kernel / middle / base."""

    a: Homomorphism
    b: Homomorphism
    c: Homomorphism


def hom_leq(
    g: Homomorphism,
    h: Homomorphism,
    src: PreorderedGroup,
    dst: PreorderedGroup,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """g <= h pointwise on the positive elements of the source."""
    if g.source != h.source or g.target != h.target:
        raise ShapeError("maps are not a parallel pair")
    if g.source != src.group or g.target != dst.group:
        raise ShapeError("parallel pair does not match the given preorders")
    gens = src.cone.finite_generators()
    if gens is not None and dst.group.is_abelian() and dst.cone.known_cone():
        # The comparison x -> -g(x)+h(x) is additive into an abelian target,
        # so positivity on cone generators decides every positive element.
        return on_generators(
            gens, lambda x: dst.leq(g.apply(x), h.apply(x), budget),
            "comparison fails on a cone generator", "on cone generators",
        )
    return for_all_members(
        src.group.window_elements(budget.window),
        lambda x: src.cone.contains(x, budget),
        lambda x: dst.leq(g.apply(x), h.apply(x), budget),
        "comparison fails on a positive element", "pointwise comparison hit undecided memberships",
        yes("window-verified"),
    )


def is_rali(pt: SplitExtension, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """Cone equality with the componentwise cone (see the module docstring)."""
    return cones_equal(pt.cone, product_cone(pt), budget)


def is_strong(pt: SplitExtension, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """Cone equality with the least compatible cone; a yes carries no note."""
    v = cones_equal(minimal_cone(pt, budget), pt.cone, budget)
    return yes() if v.is_yes else v


@dataclass(frozen=True)
class PullbackCone(Cone):
    """Positivity downstairs reads off the base cone and the upstairs cone.

    The carrier's action is the PrecomposedAction built by pullback, whose
    memo of along(c) is read here.
    """

    group: Group
    base_cone: Cone
    upstairs: Cone

    contains = Cone.contains

    def _contains(self, el, budget):
        x, c = el
        vb = self.base_cone._contains(c, budget)
        if vb.is_no:
            return no(el, "base part not positive")
        vu = self.upstairs._contains((x, self.group.action._image(c)), budget)
        return vand(vb, vu)

    def __str__(self):
        return f"pullback[{self.upstairs}]"


def pullback(
    pt: SplitExtension,
    g: Homomorphism,
    base: PreorderedGroup,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> SplitExtension:
    """Base change of a point along a monotone map into its base."""
    if g.source != base.group or g.target != pt.b.group:
        raise ShapeError("pullback map must go from the new base into the old one")
    mono = is_monotone(g, base, pt.b, budget)
    if not mono.is_yes:
        raise StructureError(
            f"pullback map not monotone: {mono.note} at {format_element(mono.witness)}"
        )
    shape = ExtensionShape(pt.x, base, PrecomposedAction(pt.action, g))
    return point(shape, PullbackCone(shape.carrier, base.cone, pt.cone))


@dataclass(frozen=True)
class StablyStrongReport:
    """Strongness after pullback along each catalog morphism.

    The aggregate Yes never means absolute stability: it is always relative
    to the catalog run, and the note says so.
    """

    entries: tuple[tuple[str, Verdict], ...]
    aggregate: Verdict
    note: str


def stably_strong_over(
    pt: SplitExtension,
    catalog: list[tuple[PreorderedGroup, Homomorphism]],
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> StablyStrongReport:
    entries = []
    for base, g in catalog:
        label = f"{g} : {base} -> {pt.b}"
        entries.append((label, is_strong(pullback(pt, g, base, budget), budget)))
    agg = vand(*(v for _, v in entries)) if entries else yes("empty catalog")
    return StablyStrongReport(
        entries=tuple(entries),
        aggregate=agg,
        note=f"relative to an explicit catalog of {len(entries)} base morphisms",
    )


def default_base_catalog(base: PreorderedGroup) -> list[tuple[PreorderedGroup, Homomorphism]]:
    """Scalar maps n -> c n for |c| <= 4, plus a finite cyclic source."""
    if not (isinstance(base.group, FreeAbelian) and base.group.rank == 1):
        raise StructureError("default catalog is defined over base Z")
    Z = base.group
    out: list[tuple[PreorderedGroup, Homomorphism]] = []
    candidates = [
        PreorderedGroup(Z, base.cone),
        PreorderedGroup(Z, TrivialCone(Z)),
    ]
    for c in range(-4, 5):
        h = ScalarHom(Z, Z, Fraction(c))
        for cand in candidates:
            if is_monotone(h, cand, base).is_yes:
                out.append((cand, h))
                break
    z2 = CyclicGroup(2)
    zero = TableHom.from_dict(z2, Z, {0: 0, 1: 0})
    out.append((PreorderedGroup(z2, FullCone(z2)), zero))
    return out


def point_product(pt1: SplitExtension, pt2: SplitExtension) -> SplitExtension:
    """Componentwise product of two points in the category of points."""
    x = PreorderedGroup(
        DirectProduct((pt1.x.group, pt2.x.group)),
        ProductCone(
            DirectProduct((pt1.x.group, pt2.x.group)), pt1.x.cone, pt2.x.cone
        ),
    )
    b = PreorderedGroup(
        DirectProduct((pt1.b.group, pt2.b.group)),
        ProductCone(
            DirectProduct((pt1.b.group, pt2.b.group)), pt1.b.cone, pt2.b.cone
        ),
    )
    shape = ExtensionShape(x, b, ProductAction(pt1.action, pt2.action))
    return point(shape, PointProductCone(shape.carrier, pt1.cone, pt2.cone))


def equivariance_failure(
    a: Homomorphism, c: Homomorphism, src: ExtensionShape, dst: ExtensionShape
) -> tuple | None:
    """The first (b, x) over generators with a(phi_b(x)) != phi'_{c(b)}(a(x)), or None.

    A failure means (x, b) -> (a(x), c(b)) is not a homomorphism.  None means
    it is one whenever the base is generated by its generators as a group
    (Z^k, finite groups): both sides are homomorphisms in x, fixed by a basis
    also on Q^k, and the b where they agree form a subgroup.
    """
    for b in src.b.group.generators():
        cb = c.apply(b)
        for x in src.x.group.generators():
            if a.apply(src.action.apply(b, x)) != dst.action.apply(cb, a.apply(x)):
                return b, x
    return None


def check_point_morphism(
    m: PointMorphism,
    src: SplitExtension,
    dst: SplitExtension,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Commutation of the three squares plus monotonicity of all three maps."""
    window = budget.window
    k, f, s = KernelHom(src.carrier), ProjectionHom(src.carrier), SectionHom(src.carrier)
    k2, f2, s2 = KernelHom(dst.carrier), ProjectionHom(dst.carrier), SectionHom(dst.carrier)
    for x in src.x.group.window_elements(window):
        if k2.apply(m.a.apply(x)) != m.b.apply(k.apply(x)):
            return no(x, "kernel square does not commute")
    for el in src.carrier.window_elements(window):
        if f2.apply(m.b.apply(el)) != m.c.apply(f.apply(el)):
            return no(el, "projection square does not commute")
    for bb in src.b.group.window_elements(window):
        if s2.apply(m.c.apply(bb)) != m.b.apply(s.apply(bb)):
            return no(bb, "section square does not commute")
    failure = equivariance_failure(m.a, m.c, src, dst)
    if failure is not None:
        return no(failure, "kernel and base maps do not intertwine the actions")
    return vand(
        is_monotone(m.a, src.x, dst.x, budget),
        is_monotone(m.b, src.pre, dst.pre, budget),
        is_monotone(m.c, src.b, dst.b, budget),
    )


def order_iso_check(
    h: Homomorphism,
    src: PreorderedGroup,
    dst: PreorderedGroup,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Group isomorphism (via an exact inverse) monotone in both directions."""
    m = h.as_matrix()
    if m is not None and src.group == dst.group:
        d = determinant(m)
        if isinstance(src.group, FreeAbelian) and abs(d) != 1:
            return no(d, "matrix determinant is not a unit over Z")
        if d == 0:
            return no(d, "matrix is singular")
    inv = invert(h)
    if inv is None:
        return unknown("no exact inverse available for this representation")
    return vand(
        is_monotone(h, src, dst, budget),
        is_monotone(inv, dst, src, budget),
    )


def ssfl_check(
    m: PointMorphism,
    src: SplitExtension,
    dst: SplitExtension,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Is the middle map an order isomorphism, given iso kernel and base parts?

    For rows carrying their least compatible cones this must come out Yes;
    the check itself just verifies the middle map both ways.
    """
    comm = check_point_morphism(m, src, dst, budget)
    if comm.is_no:
        raise StructureError(f"not a point morphism: {comm.note} at {comm.witness}")
    for label, hom, s_pre, d_pre in (
        ("kernel", m.a, src.x, dst.x),
        ("base", m.c, src.b, dst.b),
    ):
        v = order_iso_check(hom, s_pre, d_pre, budget)
        if not v.is_yes:
            raise StructureError(f"{label} component is not an order isomorphism: {v}")
    return order_iso_check(m.b, src.pre, dst.pre, budget)


@dataclass(frozen=True)
class PointClassification:
    rali: Verdict
    strong: Verdict
    stably_strong: StablyStrongReport


def classify_point(
    pt: SplitExtension,
    catalog: list[tuple[PreorderedGroup, Homomorphism]] | None = None,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> PointClassification:
    if catalog is None:
        catalog = default_base_catalog(pt.b)
    return PointClassification(
        rali=is_rali(pt, budget),
        strong=is_strong(pt, budget),
        stably_strong=stably_strong_over(pt, catalog, budget),
    )
