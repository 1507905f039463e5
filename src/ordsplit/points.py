"""Classification of points: rali, strong, stably strong; pullbacks; SSFL.

A point is rali exactly when its cone is the componentwise cone, and strong
exactly when its cone is the one generated from it.  Each query answers by
one route: `is_rali` by cone equality, not by the equivalent s∘f <= id of
`hom_leq`; the tests compare the two, and `hom_leq` decides the P+ and P-
orders on an automorphism group beyond their orthant and degenerate routes.
Strongness is not stable under pullback, so "stably strong" is only ever
certified relative to an explicit catalog of base morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .actions import PrecomposedAction
from .cones import (
    Cone,
    FullCone,
    TrivialCone,
    cones_equal,
    format_preordered,
    is_monotone,
)
from .extensions import ExtensionShape, SplitExtension, minimal_cone, point, product_cone
from .groups import (
    CyclicGroup,
    FreeAbelian,
    Group,
    ShapeError,
    StructureError,
    format_element,
)
from .homs import (
    Homomorphism,
    KernelHom,
    LinearHom,
    PairHom,
    SectionHom,
    TableHom,
    check_homomorphism,
    first_difference,
    invert,
)
from .linalg import determinant
from .verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    clean_scan,
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
    src: Cone,
    dst: Cone,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """g <= h pointwise on the positive elements of the source."""
    if g.source != h.source or g.target != h.target:
        raise ShapeError("maps are not a parallel pair")
    if g.source != src.group or g.target != dst.group:
        raise ShapeError("parallel pair does not match the given preorders")
    gens = src.finite_generators()
    if gens is not None and dst.group.is_abelian() and dst.known_cone():
        # The comparison x -> -g(x)+h(x) is additive into an abelian target,
        # so positivity on cone generators decides every positive element.
        return on_generators(
            gens, lambda x: dst.leq(g.apply(x), h.apply(x), budget),
            "comparison fails on a cone generator", "on cone generators",
        )
    return for_all_members(
        src.group.window_elements(budget.window),
        lambda x: src.contains(x, budget),
        lambda x: dst.leq(g.apply(x), h.apply(x), budget),
        "comparison fails on a positive element", "pointwise comparison hit undecided memberships",
        clean_scan(src.group, budget.window),
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

    (x, c) is positive when c is, and (x, along(c)) is positive upstairs.
    What depends on c alone, its base verdict and along(c) (read from the
    memo of the carrier's PrecomposedAction, built by pullback), is kept per
    c in _base_table once the base cone has decided c; an unknown may
    depend on the budget and is asked again.
    """

    group: Group
    base_cone: Cone
    upstairs: Cone

    contains = Cone.contains

    @cached_property
    def _base_table(self) -> dict:
        """c -> (its decided base verdict, along(c), or None when c is not
        positive)."""
        return {}

    def _contains(self, el, budget):
        x, c = el
        known = self._base_table.get(c)
        if known is None:
            vb = self.base_cone._contains(c, budget)
            known = (vb, None if vb.is_no else self.group.action._image(c))
            if not vb.is_unknown:
                self._base_table[c] = known
        vb, image = known
        if vb.is_no:
            return no(el, "base part not positive")
        vu = self.upstairs._contains((x, image), budget)
        if vb.is_yes:
            # vand(yes, vu), without its loop: the bare yes, or vu as it is.
            return yes() if vu.is_yes else vu
        return vand(vb, vu)

    def __str__(self):
        return f"pullback[{self.upstairs}]"


def pullback(
    pt: SplitExtension,
    g: Homomorphism,
    base: Cone,
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
    return point(shape, PullbackCone(shape.carrier, base, pt.cone))


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
    catalog: list[tuple[Cone, Homomorphism]],
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> StablyStrongReport:
    entries = []
    for base, g in catalog:
        label = f"{g} : {format_preordered(base)} -> {format_preordered(pt.b)}"
        entries.append((label, is_strong(pullback(pt, g, base, budget), budget)))
    agg = vand(*(v for _, v in entries)) if entries else yes("empty catalog")
    return StablyStrongReport(
        entries=tuple(entries),
        aggregate=agg,
        note=f"relative to an explicit catalog of {len(entries)} base morphisms",
    )


def default_base_catalog(base: Cone) -> list[tuple[Cone, Homomorphism]]:
    """Scalar maps n -> c n for |c| <= 4, plus a finite cyclic source."""
    if not (isinstance(base.group, FreeAbelian) and base.group.rank == 1):
        raise StructureError("default catalog is defined over base Z")
    Z = base.group
    out: list[tuple[Cone, Homomorphism]] = []
    candidates = [base, TrivialCone(Z)]
    for c in range(-4, 5):
        h = LinearHom.scalar(Z, Z, c)
        for cand in candidates:
            if is_monotone(h, cand, base).is_yes:
                out.append((cand, h))
                break
    z2 = CyclicGroup(2)
    zero = TableHom.from_dict(z2, Z, {0: 0, 1: 0})
    out.append((FullCone(z2), zero))
    return out


def equivariance_failure(
    a: Homomorphism, c: Homomorphism, src: ExtensionShape, dst: ExtensionShape
) -> tuple | None:
    """The first (b, x) over generators with a(phi_b(x)) != phi'_{c(b)}(a(x)), or None.

    A failure means (x, b) -> (a(x), c(b)) is not a homomorphism.  None means
    it is one: for each base generator b both sides are homomorphisms in x,
    which first_difference decides, and the b where they agree form a
    subgroup that the generators fill out as in first_difference.
    """
    for b in src.b.group.generators():
        cb = c.apply(b)
        x = first_difference(src.x.group, lambda x: a.apply(src.action.apply(b, x)),
                             lambda x: dst.action.apply(cb, a.apply(x)))
        if x is not None:
            return b, x
    return None


def check_point_morphism(
    m: PointMorphism,
    src: SplitExtension,
    dst: SplitExtension,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Commutation of the three squares plus monotonicity of all three maps.

    With the middle map b additive (a pair map whose parts intertwine the
    actions, additive by construction, or checked on a finite carrier; else
    Unknown), first_difference decides the squares b k = k' a and b s = s' c,
    and as (x, e) = k(x) + s(e), f'(b(x, e)) = f'(k'(a x) + s'(c e)) = c(e).
    """
    b, k, s = m.b.apply, KernelHom(src.carrier).apply, SectionHom(src.carrier).apply
    k2, s2 = KernelHom(dst.carrier).apply, SectionHom(dst.carrier).apply
    x = first_difference(src.x.group, lambda x: k2(m.a.apply(x)), lambda x: b(k(x)))
    if x is not None:
        return no(x, "kernel square does not commute")
    e = first_difference(src.b.group, lambda e: s2(m.c.apply(e)), lambda e: b(s(e)))
    if e is not None:
        return no(e, "section square does not commute")
    if isinstance(m.b, PairHom):
        failure = equivariance_failure(m.b.hx, m.b.hb, src, dst)
        if failure is not None:
            return no(failure, "kernel and base maps do not intertwine the actions")
    elif not m.b.additive_by_construction():
        if not src.carrier.is_finite:
            return unknown("middle map not known to be additive")
        v = check_homomorphism(m.b)
        if not v.is_yes:
            return v
    return vand(
        is_monotone(m.a, src.x, dst.x, budget),
        is_monotone(m.b, src.cone, dst.cone, budget),
        is_monotone(m.c, src.b, dst.b, budget),
    )


def order_iso_check(
    h: Homomorphism,
    src: Cone,
    dst: Cone,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Group isomorphism (via an exact inverse) monotone in both directions."""
    inv = invert(h)
    if inv is None:
        # A unit determinant gives an exact inverse, so only here can it fail.
        m = h.as_matrix()
        if m is not None and src.group == dst.group:
            d = determinant(m)
            if isinstance(src.group, FreeAbelian) and abs(d) != 1:
                return no(d, "matrix determinant is not a unit over Z")
            if d == 0:
                return no(d, "matrix is singular")
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
    for label, hom, s_cone, d_cone in (
        ("kernel", m.a, src.x, dst.x),
        ("base", m.c, src.b, dst.b),
    ):
        v = order_iso_check(hom, s_cone, d_cone, budget)
        if not v.is_yes:
            raise StructureError(f"{label} component is not an order isomorphism: {v}")
    return order_iso_check(m.b, src.cone, dst.cone, budget)
